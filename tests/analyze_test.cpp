// Tests for the static-analysis subsystem (src/analyze, DESIGN.md §12):
// dependency graphs, cone-of-influence reduction, trace re-inflation,
// constant folding, and the cross-mode guarantee the whole feature hangs
// on -- a COI-reduced check must return the same verdict as the exact
// check, and its certified witness must be a full-model trace the raw
// relation accepts.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/analyze.hpp"
#include "bdd/bdd.hpp"
#include "certify/certify.hpp"
#include "core/checker.hpp"
#include "core/explain.hpp"
#include "diag/metrics.hpp"
#include "models/models.hpp"
#include "smv/smv.hpp"
#include "ts/transition_system.hpp"

namespace symcex {
namespace {

// ---------------------------------------------------------------------------
// Dependency graph
// ---------------------------------------------------------------------------

/// x' = y, y' = y: x depends on y, y depends on itself.
std::unique_ptr<ts::TransitionSystem> chain2() {
  auto m = std::make_unique<ts::TransitionSystem>();
  const ts::VarId x = m->add_var("x");
  const ts::VarId y = m->add_var("y");
  m->set_init(!m->cur(x) & !m->cur(y));
  m->add_trans(!(m->next(x) ^ m->cur(y)));
  m->add_trans(!(m->next(y) ^ m->cur(y)));
  m->add_label("x", m->cur(x));
  m->add_label("y", m->cur(y));
  m->finalize();
  return m;
}

TEST(DepGraph, PartsAndDepsReflectConjunctSupports) {
  auto m = chain2();
  const analyze::DepGraph g = analyze::build_dep_graph(*m);
  ASSERT_EQ(g.num_vars, 2u);
  ASSERT_EQ(g.parts.size(), m->trans_parts().size());
  ASSERT_EQ(g.deps.size(), 2u);
  // x (var 0) is written by a conjunct reading y (var 1).
  EXPECT_EQ(g.deps[0], (std::vector<ts::VarId>{1}));
  // y is written by a conjunct reading only y.
  EXPECT_EQ(g.deps[1], (std::vector<ts::VarId>{1}));
}

TEST(DepGraph, FingerprintIsStableAndStructureSensitive) {
  const std::uint64_t fp1 = analyze::build_dep_graph(*chain2()).fingerprint();
  const std::uint64_t fp2 = analyze::build_dep_graph(*chain2()).fingerprint();
  EXPECT_EQ(fp1, fp2) << "identical models must hash identically";

  // Reverse the dependency (y' = x instead of y' = y): different graph.
  auto m = std::make_unique<ts::TransitionSystem>();
  const ts::VarId x = m->add_var("x");
  const ts::VarId y = m->add_var("y");
  m->set_init(!m->cur(x) & !m->cur(y));
  m->add_trans(!(m->next(x) ^ m->cur(y)));
  m->add_trans(!(m->next(y) ^ m->cur(x)));
  m->finalize();
  EXPECT_NE(analyze::build_dep_graph(*m).fingerprint(), fp1);
}

// ---------------------------------------------------------------------------
// Cone of influence
// ---------------------------------------------------------------------------

TEST(Cone, ClosureFollowsDependenciesAndDropsTheRest) {
  // Chain x0' = x0, x1' = x0, x2' = x1, plus an isolated z' = z.
  auto m = std::make_unique<ts::TransitionSystem>();
  const ts::VarId x0 = m->add_var("x0");
  const ts::VarId x1 = m->add_var("x1");
  const ts::VarId x2 = m->add_var("x2");
  const ts::VarId z = m->add_var("z");
  m->set_init(!m->cur(x0) & !m->cur(x1) & !m->cur(x2) & !m->cur(z));
  m->add_trans(!(m->next(x0) ^ m->cur(x0)));
  m->add_trans(!(m->next(x1) ^ m->cur(x0)));
  m->add_trans(!(m->next(x2) ^ m->cur(x1)));
  m->add_trans(!(m->next(z) ^ m->cur(z)));
  m->finalize();

  const analyze::DepGraph g = analyze::build_dep_graph(*m);
  // Seeding on x1 pulls in x0 (its input) and also x2: the closure is
  // part-granular, so the conjunct x2' = x1 -- whose support touches the
  // cone through its read of x1 -- is kept, and with it the variable it
  // writes.  Coarse, but what makes the factorization R = R_kept &
  // R_dropped sound.  Only the disconnected z drops.
  const analyze::Cone cone =
      analyze::cone_of_influence(*m, g, {m->cur(x1)});
  ASSERT_TRUE(cone.reduces());
  EXPECT_TRUE(cone.in_cone[x0]);
  EXPECT_TRUE(cone.in_cone[x1]);
  EXPECT_TRUE(cone.in_cone[x2]);
  EXPECT_FALSE(cone.in_cone[z]);
  EXPECT_EQ(cone.dropped, (std::vector<ts::VarId>{z}));

  // A seed touching everything keeps everything.
  const analyze::Cone full = analyze::cone_of_influence(
      *m, g, {m->cur(x1) & m->cur(x2) & m->cur(z)});
  EXPECT_FALSE(full.reduces());
}

TEST(Cone, FairnessConstraintsAreImplicitSeeds) {
  auto m = std::make_unique<ts::TransitionSystem>();
  const ts::VarId x = m->add_var("x");
  const ts::VarId z = m->add_var("z");
  m->set_init(!m->cur(x) & !m->cur(z));
  m->add_trans(!(m->next(x) ^ m->cur(x)));
  m->add_trans(!(m->next(z) ^ !m->cur(z)));
  m->add_fairness(m->cur(z));
  m->finalize();
  const analyze::DepGraph g = analyze::build_dep_graph(*m);
  // Even seeded only on x, the fairness constraint keeps z in the cone:
  // fair-path semantics read it in every fixpoint.
  const analyze::Cone cone = analyze::cone_of_influence(*m, g, {m->cur(x)});
  EXPECT_FALSE(cone.reduces());
}

TEST(Reduction, ImageAgreesWithFullImageProjectedOntoTheCone) {
  auto m = models::counter_bank({.banks = 4, .width = 3});
  const analyze::DepGraph g = analyze::build_dep_graph(*m);
  analyze::Cone cone =
      analyze::cone_of_influence(*m, g, {m->label("zero0").value()});
  ASSERT_TRUE(cone.reduces());
  EXPECT_EQ(cone.dropped.size(), 9u);  // banks 1..3, 3 bits each
  const analyze::Reduction red(*m, std::move(cone), g);

  // The banks are independent, so for a cone-only predicate S the reduced
  // sweeps must agree with the full ones projected onto the cone.
  const bdd::Bdd s = red.project(m->init());
  for (const ts::ImageMethod method :
       {ts::ImageMethod::kMonolithic, ts::ImageMethod::kPartitioned}) {
    const ts::Relation& rel = red.relation(method);
    EXPECT_EQ(rel.image(s), red.project(m->image(s, method)));
    EXPECT_EQ(rel.preimage(s), red.project(m->preimage(s, method)));
  }
  // The reduced reachable set is the projection of the full one.
  EXPECT_EQ(red.reachable(), red.project(m->reachable()));
  EXPECT_EQ(red.dropped_names().front(), "c1.0");
}

// ---------------------------------------------------------------------------
// Trace re-inflation
// ---------------------------------------------------------------------------

TEST(InflateTrace, LassoReinflatesToARawRelationAcceptedTrace) {
  // Kept component: a 2-bit counter (bank 0).  Dropped: three more banks
  // free to hold or step -- inflation must re-simulate them somehow.
  auto m = models::counter_bank({.banks = 4, .width = 2});
  const analyze::DepGraph g = analyze::build_dep_graph(*m);
  analyze::Cone cone =
      analyze::cone_of_influence(*m, g, {m->label("zero0").value()});
  ASSERT_TRUE(cone.reduces());
  const analyze::Reduction red(*m, std::move(cone), g);

  // A reduced lasso over bank 0: 0 -> 1 -> (2 -> 3 -> 0 -> 1 -> 2 ...)
  // expressed as cone-projected minterms.
  auto bank0 = [&](std::uint32_t value) {
    bdd::Bdd state = m->manager().one();
    for (std::uint32_t i = 0; i < 2; ++i) {
      const bool bit = (value >> i) & 1;
      state &= bit ? m->cur(i) : !m->cur(i);
    }
    return state;
  };
  const std::vector<bdd::Bdd> prefix = {bank0(0), bank0(1)};
  const std::vector<bdd::Bdd> cycle = {bank0(2), bank0(3), bank0(0),
                                       bank0(1)};

  std::vector<bdd::Bdd> full_prefix;
  std::vector<bdd::Bdd> full_cycle;
  std::string error;
  ASSERT_TRUE(analyze::inflate_trace(*m, red, prefix, cycle, &full_prefix,
                                     &full_cycle, &error))
      << error;
  ASSERT_EQ(full_prefix.size(), prefix.size());
  ASSERT_FALSE(full_cycle.empty());

  // Every inflated state projects back onto exactly the reduced state it
  // came from (cycle may have been unrolled to close on the full state).
  for (std::size_t i = 0; i < full_prefix.size(); ++i) {
    EXPECT_EQ(red.project(full_prefix[i]), prefix[i]) << "prefix step " << i;
  }
  for (std::size_t i = 0; i < full_cycle.size(); ++i) {
    EXPECT_EQ(red.project(full_cycle[i]), cycle[i % cycle.size()])
        << "cycle step " << i;
  }
  // And the raw, unreduced relation accepts the result end to end.
  const certify::TraceCertifier certifier(*m);
  const certify::Certificate cert =
      certifier.certify_path({full_prefix, full_cycle});
  EXPECT_TRUE(cert.ok()) << cert.to_string();
}

// ---------------------------------------------------------------------------
// Constant folding (dead-assignment elimination in the SMV front end)
// ---------------------------------------------------------------------------

constexpr const char* kStuckModel = R"(MODULE main
VAR
  mode  : {idle, busy};
  stuck : 0..3;
ASSIGN
  init(mode)  := idle;
  next(mode)  := case mode = idle : busy; TRUE : idle; esac;
  init(stuck) := 2;
  next(stuck) := stuck;
SPEC AG (stuck = 2 -> EF mode = busy)
SPEC EF mode = busy
)";

TEST(ConstFold, PinsConstantVariablesAndSeversThemFromTheCone) {
  std::vector<smv::LintFinding> findings;
  smv::SmvModel folded = smv::compile(
      kStuckModel, {.fold_constants = true, .findings = &findings});
  smv::SmvModel plain =
      smv::compile(kStuckModel, {.fold_constants = false});

  bool flagged = false;
  for (const auto& f : findings) {
    flagged = flagged || f.check == "constant-next-state";
  }
  EXPECT_TRUE(flagged) << "stuck should be reported as constant";

  // Verdicts are unchanged by folding...
  for (std::size_t i = 0; i < folded.specs().size(); ++i) {
    core::Checker cf(folded.system());
    core::Checker cp(plain.system());
    EXPECT_EQ(cf.check(folded.specs()[i]).verdict,
              cp.check(plain.specs()[i]).verdict)
        << folded.spec_texts()[i];
  }

  // ...but folding shrinks conjunct supports, so a mode-only property's
  // cone can now drop the pinned bits of `stuck`.
  bdd::Bdd mode_seed;
  for (const auto& var : folded.variables()) {
    if (var.name == "mode") {
      mode_seed = folded.system().cur(var.bits.front());
    }
  }
  ASSERT_FALSE(mode_seed.is_null());
  const analyze::DepGraph g = analyze::build_dep_graph(folded.system());
  const analyze::Cone cone =
      analyze::cone_of_influence(folded.system(), g, {mode_seed});
  EXPECT_TRUE(cone.reduces());
}

// ---------------------------------------------------------------------------
// Cross-mode: COI on vs off
// ---------------------------------------------------------------------------

/// Check one spec in both modes with certification forced on (so the
/// Explainer itself re-inflates and certifies the COI trace against the
/// raw relation, throwing on any violation).  Verdicts must agree; when
/// `bit_identical`, the full-model traces must also match bit for bit --
/// true whenever the dropped components can stutter, because then both
/// the witness picks and the re-inflation resolve to the same
/// lexicographically-least states.  With a *deterministic* dropped
/// component (a free-running watchdog, say) the two modes may close a
/// lasso differently -- the exact cycle must return to the full state,
/// the reduced one only to the cone -- so both cycles are valid but not
/// comparable; there we still require both traces to replay against the
/// raw unreduced relation.
void expect_cross_mode_match(ts::TransitionSystem& system,
                             const std::string& spec,
                             bool bit_identical = true) {
  certify::set_enabled(true);
  core::Checker exact(system, {.coi = false});
  core::Checker reduced(system, {.coi = true});
  core::Explainer exact_explain(exact);
  core::Explainer reduced_explain(reduced);

  const core::Explanation a = exact_explain.explain(spec);
  const core::Explanation b = reduced_explain.explain(spec);
  certify::set_enabled(false);

  EXPECT_EQ(a.holds, b.holds) << spec;
  ASSERT_EQ(a.trace.has_value(), b.trace.has_value()) << spec;
  if (!a.trace.has_value()) return;
  if (bit_identical) {
    ASSERT_EQ(a.trace->prefix.size(), b.trace->prefix.size()) << spec;
    ASSERT_EQ(a.trace->cycle.size(), b.trace->cycle.size()) << spec;
    for (std::size_t i = 0; i < a.trace->prefix.size(); ++i) {
      EXPECT_EQ(a.trace->prefix[i], b.trace->prefix[i])
          << spec << " prefix step " << i;
    }
    for (std::size_t i = 0; i < a.trace->cycle.size(); ++i) {
      EXPECT_EQ(a.trace->cycle[i], b.trace->cycle[i])
          << spec << " cycle step " << i;
    }
  } else {
    const certify::TraceCertifier certifier(system);
    const certify::Certificate ca = certifier.certify_path(*a.trace);
    const certify::Certificate cb = certifier.certify_path(*b.trace);
    EXPECT_TRUE(ca.ok()) << spec << "\n" << ca.to_string();
    EXPECT_TRUE(cb.ok()) << spec << "\n" << cb.to_string();
  }
}

TEST(CrossMode, CounterBankVerdictsAndTracesMatch) {
  auto m = models::counter_bank({.banks = 3, .width = 2});
  for (const char* spec : {"EF max0", "AG EF zero0", "EF all_max",
                           "AG (zero0 -> EX !zero0)", "EG zero0"}) {
    expect_cross_mode_match(*m, spec);
  }
}

TEST(CrossMode, SmvModelWithIndependentWatchdogMatches) {
  constexpr const char* source = R"(MODULE main
VAR
  req  : boolean;
  gnt  : boolean;
  tick : 0..7;
ASSIGN
  init(gnt)  := FALSE;
  next(req)  := case req = gnt : {TRUE, FALSE}; TRUE : req; esac;
  next(gnt)  := req;
  init(tick) := 0;
  next(tick) := case tick < 7 : tick + 1; TRUE : 0; esac;
)";
  smv::SmvModel model = smv::compile(source);
  // The watchdog is deterministic, so lassos may close differently across
  // modes (see expect_cross_mode_match): require raw-relation replay
  // instead of bit-identity.
  for (const char* spec :
       {"AG (gnt -> req)",      // holds: gnt' = req and req holds while != gnt
        "AG !gnt",              // fails with a counterexample path
        "EF gnt", "EG !gnt"}) {
    expect_cross_mode_match(model.system(), spec, /*bit_identical=*/false);
  }
}

TEST(CrossMode, SeedsGrowMonotonicallyAcrossChecks) {
  diag::set_enabled(true);
  auto m = models::counter_bank({.banks = 3, .width = 2});
  core::Checker checker(*m, {.coi = true});

  ASSERT_EQ(checker.check("EF max0").verdict, core::Verdict::kTrue);
  ASSERT_NE(checker.reduction(), nullptr);
  const std::size_t dropped_first = checker.reduction()->cone().dropped.size();
  EXPECT_EQ(dropped_first, 4u);  // banks 1 and 2

  // A property over every bank widens the seed set; the cone stops
  // reducing and the checker must fall back to the exact relation.
  ASSERT_EQ(checker.check("EF all_max").verdict, core::Verdict::kTrue);
  EXPECT_EQ(checker.reduction(), nullptr);

  // Narrow properties after the widening stay exact: seeds never shrink
  // (results computed under the wide view remain reusable).
  ASSERT_EQ(checker.check("EF zero0").verdict, core::Verdict::kTrue);
  EXPECT_EQ(checker.reduction(), nullptr);

  const std::uint64_t dropped_count =
      diag::Registry::global().counter("analyze", "coi_vars_dropped");
  diag::set_enabled(false);
  EXPECT_GE(dropped_count, dropped_first);
}

}  // namespace
}  // namespace symcex
