// Tests for the mini-SMV front end: lexing/parsing, type and semantic
// errors, elaboration semantics (cross-checked against hand-built
// systems), spec lowering and trace decoding.

#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/explain.hpp"
#include "smv/smv.hpp"
#include "test_util.hpp"

namespace symcex::smv {
namespace {

TEST(SmvParse, MinimalModel) {
  const auto model = compile(R"(
MODULE main
VAR x : boolean;
ASSIGN
  init(x) := FALSE;
  next(x) := !x;
)");
  auto& sys = const_cast<SmvModel&>(model).system();
  EXPECT_EQ(sys.num_state_vars(), 1u);
  EXPECT_EQ(sys.count_states(sys.reachable()), 2.0);
}

TEST(SmvParse, CommentsAndWhitespace) {
  const auto model = compile(
      "MODULE main  -- the only module\n"
      "VAR x : boolean; -- a bit\n"
      "ASSIGN next(x) := x; -- frozen\n");
  (void)model;
}

TEST(SmvParse, SyntaxErrors) {
  EXPECT_THROW((void)compile("VAR x : boolean;"), SmvError);  // no MODULE
  EXPECT_THROW((void)compile("MODULE other VAR x : boolean;"), SmvError);
  EXPECT_THROW((void)compile("MODULE main VAR x boolean;"), SmvError);
  EXPECT_THROW((void)compile("MODULE main VAR x : {a};"), SmvError);
  EXPECT_THROW((void)compile("MODULE main VAR x : 5..3;"), SmvError);
  EXPECT_THROW((void)compile("MODULE main ASSIGN x := 1;"), SmvError);
  EXPECT_THROW((void)compile("MODULE main VAR x : boolean; TRANS next(x"),
               SmvError);
  try {
    (void)compile("MODULE main\nVAR\n  x : ???;\n");
    FAIL() << "expected SmvError";
  } catch (const SmvError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST(SmvParse, SemanticErrors) {
  // Unknown variable in assignment.
  EXPECT_THROW((void)compile("MODULE main VAR x : boolean; "
                             "ASSIGN next(y) := TRUE;"),
               SmvError);
  // Duplicate assignment.
  EXPECT_THROW((void)compile("MODULE main VAR x : boolean; "
                             "ASSIGN next(x) := x; next(x) := !x;"),
               SmvError);
  // Duplicate variable.
  EXPECT_THROW(
      (void)compile("MODULE main VAR x : boolean; x : boolean; "
                    "ASSIGN next(x) := x;"),
      SmvError);
  // Value outside the domain.
  EXPECT_THROW((void)compile("MODULE main VAR x : 0..3; "
                             "ASSIGN next(x) := 7;"),
               SmvError);
  // Type mismatch in comparison.
  EXPECT_THROW((void)compile("MODULE main VAR x : 0..3; y : boolean; "
                             "ASSIGN next(x) := x; TRANS x = y"),
               SmvError);
  // Boolean expected.
  EXPECT_THROW((void)compile("MODULE main VAR x : 0..3; TRANS x + 1"),
               SmvError);
  // Non-exhaustive case.
  EXPECT_THROW((void)compile("MODULE main VAR x : 0..3; "
                             "ASSIGN next(x) := case x = 0 : 1; esac;"),
               SmvError);
  // Cyclic DEFINE.
  EXPECT_THROW((void)compile("MODULE main VAR x : boolean; "
                             "DEFINE a := b; b := a; TRANS a"),
               SmvError);
  // Unknown identifier.
  EXPECT_THROW((void)compile("MODULE main VAR x : boolean; TRANS zz"),
               SmvError);
  // Nested next().
  EXPECT_THROW((void)compile("MODULE main VAR x : boolean; "
                             "TRANS next(next(x))"),
               SmvError);
  // Division by zero.
  EXPECT_THROW((void)compile("MODULE main VAR x : 0..3; "
                             "ASSIGN next(x) := x / 0;"),
               SmvError);
}

TEST(SmvSemantics, EnumAndRangeEncoding) {
  auto model = compile(R"(
MODULE main
VAR
  st : {red, yellow, green};
ASSIGN
  init(st) := red;
  next(st) := case
      st = red    : green;
      st = green  : yellow;
      st = yellow : red;
    esac;
SPEC AG (st = red -> AX st = green)
SPEC AG EF st = yellow
)");
  auto& sys = model.system();
  EXPECT_EQ(sys.count_states(sys.reachable()), 3.0);
  core::Checker ck(sys);
  EXPECT_TRUE(ck.holds(model.specs()[0]));
  EXPECT_TRUE(ck.holds(model.specs()[1]));
}

TEST(SmvSemantics, NondeterministicSets) {
  auto model = compile(R"(
MODULE main
VAR x : 0..3;
ASSIGN
  init(x) := {0, 1};
  next(x) := {x, (x + 1) mod 4};
SPEC EG x = 0 | EG x = 1
)");
  auto& sys = model.system();
  EXPECT_EQ(sys.count_states(sys.init()), 2.0);
  EXPECT_EQ(sys.count_states(sys.reachable()), 4.0);
  core::Checker ck(sys);
  EXPECT_TRUE(ck.holds(model.specs()[0]));  // may stutter forever
}

TEST(SmvSemantics, UnassignedVariablesAreFree) {
  auto model = compile(R"(
MODULE main
VAR x : boolean; y : 0..2;
ASSIGN next(x) := x;
SPEC AG EF y = 2
SPEC AG (x -> AG x)
)");
  auto& sys = model.system();
  // x frozen, y free over 3 values; everything reachable from anywhere.
  EXPECT_EQ(sys.count_states(sys.reachable()), 6.0);
  core::Checker ck(sys);
  EXPECT_TRUE(ck.holds(model.specs()[0]));
  EXPECT_TRUE(ck.holds(model.specs()[1]));
}

TEST(SmvSemantics, ArithmeticAndComparisons) {
  auto model = compile(R"(
MODULE main
VAR a : 0..7; b : 0..7;
ASSIGN
  init(a) := 3; init(b) := 5;
  next(a) := a; next(b) := b;
DEFINE
  sum_ok   := a + b = 8;
  diff_ok  := b - a = 2;
  prod_ok  := a * 2 = 6;
  div_ok   := b / 2 = 2;
  mod_ok   := b mod 3 = 2;
  cmp_ok   := a < b & b <= 5 & a >= 3 & b > a & a != b;
SPEC sum_ok & diff_ok & prod_ok & div_ok & mod_ok & cmp_ok
)");
  core::Checker ck(model.system());
  EXPECT_TRUE(ck.holds(model.specs()[0]));
}

TEST(SmvSemantics, InvarRestrictsStateSpace) {
  auto model = compile(R"(
MODULE main
VAR x : 0..7;
INVAR x < 5
SPEC AG x < 5
SPEC EF x = 4
)");
  auto& sys = model.system();
  EXPECT_EQ(sys.count_states(sys.reachable()), 5.0);
  core::Checker ck(sys);
  EXPECT_TRUE(ck.holds(model.specs()[0]));
  EXPECT_TRUE(ck.holds(model.specs()[1]));
}

TEST(SmvSemantics, TransAndInitSections) {
  auto model = compile(R"(
MODULE main
VAR x : 0..3;
INIT x = 0 | x = 1
TRANS next(x) = (x + 1) mod 4 | next(x) = x
SPEC AG EF x = 3
)");
  auto& sys = model.system();
  EXPECT_EQ(sys.count_states(sys.init()), 2.0);
  core::Checker ck(sys);
  EXPECT_TRUE(ck.holds(model.specs()[0]));
}

TEST(SmvSemantics, FairnessSection) {
  auto model = compile(R"(
MODULE main
VAR x : boolean;
ASSIGN next(x) := {x, !x};
FAIRNESS x
FAIRNESS !x
SPEC AG AF x
SPEC AG AF !x
)");
  core::Checker ck(model.system());
  EXPECT_TRUE(ck.holds(model.specs()[0]));
  EXPECT_TRUE(ck.holds(model.specs()[1]));
}

TEST(SmvSemantics, DefinesBecomeLabels) {
  auto model = compile(R"(
MODULE main
VAR x : 0..3;
ASSIGN next(x) := (x + 1) mod 4;
DEFINE top := x = 3;
SPEC AG EF top
)");
  core::Checker ck(model.system());
  EXPECT_TRUE(ck.holds(model.specs()[0]));
  EXPECT_TRUE(model.system().label("top").has_value());
}

TEST(SmvSemantics, NextOnDefineExpands) {
  auto model = compile(R"(
MODULE main
VAR x : boolean;
DEFINE high := x;
TRANS next(high) = !high
SPEC AG (x -> AX !x)
)");
  core::Checker ck(model.system());
  EXPECT_TRUE(ck.holds(model.specs()[0]));
}

TEST(SmvSpecs, TemporalLoweringShapes) {
  auto model = compile(R"(
MODULE main
VAR x : boolean;
ASSIGN next(x) := !x;
SPEC E [!x U x]
SPEC A [!x U x]
SPEC EX x xor AX !x
)");
  ASSERT_EQ(model.specs().size(), 3u);
  core::Checker ck(model.system());
  EXPECT_EQ(model.spec_texts()[0], "E [!x U x]");
}

TEST(SmvTrace, DecodingAndRendering) {
  auto model = compile(R"(
MODULE main
VAR
  st : {idle, busy};
  n  : 0..2;
ASSIGN
  init(st) := idle; init(n) := 0;
  next(st) := case st = idle : busy; TRUE : idle; esac;
  next(n) := case n < 2 : n + 1; TRUE : 0; esac;
)");
  auto& sys = model.system();
  const bdd::Bdd s0 = sys.pick_state(sys.init());
  EXPECT_EQ(model.value_of(0, s0).to_string(), "idle");
  EXPECT_EQ(model.value_of(1, s0).to_string(), "0");
  EXPECT_EQ(model.state_string(s0), "st=idle n=0");
  const bdd::Bdd s1 = sys.pick_state(sys.image(s0));
  EXPECT_EQ(model.state_string(s1), "st=busy n=1");
  EXPECT_EQ(model.state_string(s1, s0), "st=busy n=1");
  EXPECT_EQ(model.state_string(s1, s1), "(unchanged)");
  const std::string trace = model.trace_string({s0, s1}, {});
  EXPECT_NE(trace.find("state 0"), std::string::npos);
}

TEST(SmvIntegration, CounterexampleOnCompiledModel) {
  auto model = compile(R"(
MODULE main
VAR x : 0..3;
ASSIGN
  init(x) := 0;
  next(x) := (x + 1) mod 4;
SPEC AG x < 3
)");
  core::Checker ck(model.system());
  core::Explainer ex(ck);
  const auto e = ex.explain(model.specs()[0]);
  EXPECT_FALSE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  EXPECT_TRUE(test::certified_path(model.system(), *e.trace));
  // The violation is reached at value 3, i.e. after 3 steps.
  EXPECT_EQ(model.value_of(0, e.trace->at(3)).i, 3);
}

TEST(SmvSemantics, UnionOperatorIsNondeterministicChoice) {
  // Arithmetic distributes over the union set, and the mod keeps every
  // alternative in the domain.
  auto model = compile(R"(
MODULE main
VAR x : 0..7;
ASSIGN
  init(x) := 0;
  next(x) := ((x + 1) union (x + 2) union 8) mod 8;
SPEC AG (x = 0 -> EX x = 1 & EX x = 2 & EX x = 0)
SPEC AG x <= 7
)");
  core::Checker ck(model.system());
  EXPECT_TRUE(ck.holds(model.specs()[0]));
  EXPECT_TRUE(ck.holds(model.specs()[1]));
}

TEST(SmvSemantics, ReachableOutOfDomainValuesAreCompileErrors) {
  // From x = 7, "x + 1" leaves 0..7: the elaborator rejects the model
  // (the guard of the offending value is satisfiable).
  EXPECT_THROW((void)compile(R"(
MODULE main
VAR x : 0..7;
ASSIGN next(x) := x + 1;
)"),
               SmvError);
  // With the offending guard unsatisfiable the model is fine.
  auto ok = compile(R"(
MODULE main
VAR x : 0..7;
ASSIGN next(x) := case x < 7 : x + 1; TRUE : 0; esac;
SPEC AF x = 7
)");
  core::Checker ck(ok.system());
  EXPECT_TRUE(ck.holds(ok.specs()[0]));
}

TEST(SmvParse, SpecPrecedenceMatchesNuSmvStyle) {
  auto model = compile(R"(
MODULE main
VAR st : {a, b}; n : 0..3;
ASSIGN
  init(st) := a; init(n) := 0;
  next(st) := case st = a : b; TRUE : a; esac;
  next(n) := (n + 1) mod 4;
SPEC AF st = b
SPEC AG (st = a -> AX st = b)
SPEC !st = b | n >= 0
)");
  // "AF st = b" must parse as AF (st = b); "!st = b" as !(st = b).
  core::Checker ck(model.system());
  EXPECT_TRUE(ck.holds(model.specs()[0]));
  EXPECT_TRUE(ck.holds(model.specs()[1]));
  EXPECT_TRUE(ck.holds(model.specs()[2]));
}

TEST(SmvSemantics, CombinationalAssignments) {
  auto model = compile(R"(
MODULE main
VAR
  x : 0..3;
  y : 0..6;
  twice : boolean;
ASSIGN
  init(x) := 0;
  next(x) := (x + 1) mod 4;
  y := x + x;         -- combinational: y always equals 2x
  twice := y = 2 * x;
SPEC AG twice
SPEC AG (x = 3 -> y = 6)
SPEC AG (y = 0 -> x = 0)
)");
  auto& sys = model.system();
  // y and twice are functionally determined: only 4 reachable states.
  EXPECT_EQ(sys.count_states(sys.reachable()), 4.0);
  core::Checker ck(sys);
  for (const auto& spec : model.specs()) EXPECT_TRUE(ck.holds(spec));
}

TEST(SmvSemantics, CombinationalConflictsRejected) {
  EXPECT_THROW((void)compile(R"(
MODULE main
VAR x : 0..3; y : 0..3;
ASSIGN
  y := x;
  next(y) := 0;
)"),
               SmvError);
  EXPECT_THROW((void)compile(R"(
MODULE main
VAR x : 0..3; y : 0..3;
ASSIGN
  init(y) := 0;
  y := x;
)"),
               SmvError);
  // Out-of-domain combinational value.
  EXPECT_THROW((void)compile(R"(
MODULE main
VAR x : 0..3; y : 0..3;
ASSIGN y := x + 9;
)"),
               SmvError);
}

// ---------------------------------------------------------------------------
// Module hierarchy
// ---------------------------------------------------------------------------

TEST(SmvModules, InstanceFlattening) {
  auto model = compile(R"(
MODULE cell(in)
VAR v : boolean;
ASSIGN next(v) := in;
DEFINE out := v;

MODULE main
VAR
  a : cell(c.out);
  b : cell(a.out);
  c : cell(b.out);
INIT a.v & !b.v & !c.v
SPEC AG (a.v -> AX b.v)
SPEC AG EF a.v
)");
  EXPECT_EQ(model.variable_names(),
            (std::vector<std::string>{"a.v", "b.v", "c.v"}));
  auto& sys = model.system();
  // The one token rotates: 3 reachable states.
  EXPECT_EQ(sys.count_states(sys.reachable()), 3.0);
  core::Checker ck(sys);
  EXPECT_TRUE(ck.holds(model.specs()[0]));
  EXPECT_TRUE(ck.holds(model.specs()[1]));
}

TEST(SmvModules, ParametersSeeParentScope) {
  auto model = compile(R"(
MODULE latch(set)
VAR q : boolean;
ASSIGN
  init(q) := FALSE;
  next(q) := q | set;

MODULE main
VAR
  trigger : boolean;
  l : latch(trigger & !l.q);
ASSIGN next(trigger) := {TRUE, FALSE};
SPEC AG (l.q -> AG l.q)
SPEC EF l.q
)");
  core::Checker ck(model.system());
  EXPECT_TRUE(ck.holds(model.specs()[0]));
  EXPECT_TRUE(ck.holds(model.specs()[1]));
}

TEST(SmvModules, SubmoduleSectionsAreCollected) {
  auto model = compile(R"(
MODULE worker
VAR busy : boolean;
ASSIGN next(busy) := {TRUE, FALSE};
FAIRNESS !busy
SPEC AG AF !busy

MODULE main
VAR w1 : worker; w2 : worker;
SPEC AG (AF !w1.busy & AF !w2.busy)
)");
  auto& sys = model.system();
  EXPECT_EQ(sys.fairness().size(), 2u);
  ASSERT_EQ(model.specs().size(), 3u);  // two submodule specs + main's
  core::Checker ck(sys);
  for (const auto& spec : model.specs()) {
    EXPECT_TRUE(ck.holds(spec));
  }
  // Submodule spec texts carry the instance path.
  EXPECT_NE(model.spec_texts()[0].find("w1."), std::string::npos);
}

TEST(SmvModules, EnumLiteralsPassThroughUnprefixed) {
  auto model = compile(R"(
MODULE stage
VAR st : {idle, run};
ASSIGN next(st) := case st = idle : run; TRUE : idle; esac;

MODULE main
VAR s : stage;
SPEC AG (s.st = idle -> AX s.st = run)
)");
  core::Checker ck(model.system());
  EXPECT_TRUE(ck.holds(model.specs()[0]));
}

TEST(SmvModules, Errors) {
  // Unknown module.
  EXPECT_THROW((void)compile("MODULE main VAR x : nosuch;"), SmvError);
  // Arity mismatch.
  EXPECT_THROW((void)compile(R"(
MODULE one(a)
VAR v : boolean;
MODULE main
VAR x : one;
)"),
               SmvError);
  // Cyclic instantiation.
  EXPECT_THROW((void)compile(R"(
MODULE a
VAR x : b;
MODULE b
VAR y : a;
MODULE main
VAR z : a;
)"),
               SmvError);
  // main must not take parameters.
  EXPECT_THROW((void)compile("MODULE main(p) VAR x : boolean;"), SmvError);
  // Duplicate module names.
  EXPECT_THROW((void)compile("MODULE main VAR x : boolean; MODULE main "
                             "VAR y : boolean;"),
               SmvError);
  // Missing main.
  EXPECT_THROW((void)compile("MODULE helper VAR x : boolean;"), SmvError);
}

TEST(SmvModules, NestedHierarchy) {
  auto model = compile(R"(
MODULE bit
VAR b : boolean;
ASSIGN next(b) := {b, !b};

MODULE pair
VAR lo : bit; hi : bit;
DEFINE both := lo.b & hi.b;

MODULE main
VAR p : pair; q : pair;
SPEC EF (p.both & q.both)
SPEC AG EF !p.lo.b
)");
  EXPECT_EQ(model.variable_names().size(), 4u);
  EXPECT_EQ(model.variable_names()[0], "p.lo.b");
  core::Checker ck(model.system());
  EXPECT_TRUE(ck.holds(model.specs()[0]));
  EXPECT_TRUE(ck.holds(model.specs()[1]));
}

TEST(SmvSemantics, NegativeRanges) {
  auto model = compile(R"(
MODULE main
VAR t : -2..2;
ASSIGN
  init(t) := -2;
  next(t) := case t < 2 : t + 1; TRUE : -2; esac;
SPEC EF t = 2
SPEC AG (t = -2 -> AX t = -1)
)");
  core::Checker ck(model.system());
  EXPECT_TRUE(ck.holds(model.specs()[0]));
  EXPECT_TRUE(ck.holds(model.specs()[1]));
}

}  // namespace
}  // namespace symcex::smv
