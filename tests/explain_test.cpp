// Tests for the top-level counterexample/witness driver (Explainer):
// verdict + trace for the classic specification shapes, and the
// counterexample-is-witness-of-the-dual property on random models.

#include <random>

#include <gtest/gtest.h>

#include "core/explain.hpp"
#include "models/models.hpp"
#include "test_util.hpp"

namespace symcex::core {
namespace {

/// Checks the basic contract: trace (if any) validates against the system
/// and starts in an initial state.
void expect_well_formed(const Explanation& e, ts::TransitionSystem& m) {
  if (!e.trace.has_value()) return;
  EXPECT_TRUE(test::certified_path(m, *e.trace));
  ASSERT_FALSE(e.trace->states().empty());
  EXPECT_TRUE(e.trace->states().front().implies(m.init()));
}

TEST(ExplainTest, AgCounterexampleReachesViolation) {
  auto m = models::counter({.width = 3});
  Checker ck(*m);
  Explainer ex(ck);
  const Explanation e = ex.explain("AG !max");
  EXPECT_FALSE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  expect_well_formed(e, *m);
  bool reaches = false;
  for (const auto& s : e.trace->states()) {
    reaches |= s.intersects(*m->label("max"));
  }
  EXPECT_TRUE(reaches);
}

TEST(ExplainTest, AgAfCounterexampleIsTheClassicLasso) {
  auto m = models::seitz_arbiter();  // buggy: starves side 1
  Checker ck(*m);
  Explainer ex(ck);
  const Explanation e = ex.explain("AG (r1 -> AF a1)");
  EXPECT_FALSE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  expect_well_formed(e, *m);
  ASSERT_TRUE(e.trace->is_lasso());
  // On the whole cycle the request stays up and the ack stays down --
  // the paper's "tr1 high, ta1 never rises" shape.
  for (const auto& s : e.trace->cycle) {
    EXPECT_TRUE(s.implies(*m->label("r1")));
    EXPECT_TRUE(s.implies(!*m->label("a1")));
  }
  // And the lasso is fair: every constraint recurs on the cycle.
  for (const auto& h : m->fairness()) {
    EXPECT_TRUE(e.trace->cycle_visits(h));
  }
}

TEST(ExplainTest, TrueUniversalHasNoTrace) {
  auto m = models::counter({.width = 2});
  Checker ck(*m);
  Explainer ex(ck);
  const Explanation e = ex.explain("AG EF zero");
  EXPECT_TRUE(e.holds);
  EXPECT_FALSE(e.trace.has_value());
  EXPECT_NE(e.note.find("no single-path witness"), std::string::npos);
}

TEST(ExplainTest, TrueExistentialGetsWitness) {
  auto m = models::counter({.width = 3});
  Checker ck(*m);
  Explainer ex(ck);
  const Explanation e = ex.explain("EF max");
  EXPECT_TRUE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  expect_well_formed(e, *m);
  bool reaches = false;
  for (const auto& s : e.trace->states()) {
    reaches |= s.intersects(*m->label("max"));
  }
  EXPECT_TRUE(reaches);
}

TEST(ExplainTest, EgWitnessIsALasso) {
  auto m = models::counter({.width = 2});
  Checker ck(*m);
  Explainer ex(ck);
  const Explanation e = ex.explain("EG true");
  EXPECT_TRUE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  EXPECT_TRUE(e.trace->is_lasso());
  expect_well_formed(e, *m);
}

TEST(ExplainTest, NestedExplanationsChainThroughExAndEu) {
  auto m = models::counter({.width = 3});
  Checker ck(*m);
  Explainer ex(ck);
  // EX EX (E [true U max]): one step, one step, then walk to max.
  const Explanation e = ex.explain("EX EX EF max");
  EXPECT_TRUE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  expect_well_formed(e, *m);
  EXPECT_TRUE(e.trace->at(7).implies(*m->label("max")));
}

TEST(ExplainTest, FalseExistentialPointsAtInitialState) {
  auto m = models::counter({.width = 2});
  Checker ck(*m);
  Explainer ex(ck);
  const Explanation e = ex.explain("EX zero & !zero");
  EXPECT_FALSE(e.holds);
  // No path evidence exists for a failing EX, but the initial state is
  // still reported.
  ASSERT_TRUE(e.trace.has_value());
  EXPECT_EQ(e.trace->length(), 1u);
}

TEST(ExplainTest, PropositionalFailure) {
  auto m = models::counter({.width = 2});
  Checker ck(*m);
  Explainer ex(ck);
  const Explanation e = ex.explain("!zero");
  EXPECT_FALSE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  EXPECT_TRUE(e.trace->states().front().implies(*m->label("zero")));
}

TEST(ExplainTest, AxCounterexampleStepsToTheBadSuccessor) {
  auto m = models::counter({.width = 2});
  Checker ck(*m);
  Explainer ex(ck);
  // AX max is false from 0: the successor 1 is not max.
  const Explanation e = ex.explain("AX max");
  EXPECT_FALSE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  expect_well_formed(e, *m);
  EXPECT_GE(e.trace->length(), 2u);
  EXPECT_TRUE(e.trace->at(1).implies(!*m->label("max")));
}

TEST(ExplainTest, AuCounterexample) {
  auto m = models::counter({.width = 3});
  Checker ck(*m);
  Explainer ex(ck);
  // A [ !max U zero & max ]: the target is unsatisfiable, so EG !target
  // provides the counterexample lasso.
  const Explanation e = ex.explain("A [!max U (zero & max)]");
  EXPECT_FALSE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  expect_well_formed(e, *m);
}

TEST(ExplainTest, ExplainReusesTheCheckFixpoints) {
  // Check and explain each build their own normal-form tree; the checker's
  // memo is keyed on structure, so explaining after a check (and checking
  // a re-parsed spec again, as a resident serve session does) runs no
  // fixpoint iteration beyond the check's own.
  auto m = models::counter({.width = 12});
  struct Case {
    const char* spec;
    std::size_t CheckStats::*loop;  // the loop the spec's fixpoint runs
  };
  for (const Case& c : {Case{"AG EF zero", &CheckStats::eu_iterations},
                        Case{"AG AF max", &CheckStats::eg_iterations}}) {
    const char* spec = c.spec;
    Checker ck(*m);
    EXPECT_EQ(ck.check(spec).verdict, Verdict::kTrue) << spec;
    const CheckStats after_check = ck.stats();
    EXPECT_EQ(after_check.*c.loop, 4097u) << spec;
    Explainer ex(ck);
    EXPECT_TRUE(ex.explain(spec).holds) << spec;
    EXPECT_EQ(ex.check(spec).verdict, Verdict::kTrue) << spec;
    EXPECT_EQ(ck.check(spec).verdict, Verdict::kTrue) << spec;
    EXPECT_EQ(ck.stats().eu_iterations, after_check.eu_iterations) << spec;
    EXPECT_EQ(ck.stats().eg_iterations, after_check.eg_iterations) << spec;
  }
}

TEST(ExplainTest, ParseErrorsPropagate) {
  auto m = models::counter({.width = 2});
  Checker ck(*m);
  Explainer ex(ck);
  EXPECT_THROW((void)ex.explain("AG ("), ctl::ParseError);
}

TEST(ExplainTest, PetersonLivelockLasso) {
  auto m = models::peterson({.buggy = true});
  Checker ck(*m);
  Explainer ex(ck);
  const Explanation e = ex.explain("AG (try0 -> AF crit0)");
  EXPECT_FALSE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  ASSERT_TRUE(e.trace->is_lasso());
  // On the livelock cycle neither process is ever critical.
  for (const auto& s : e.trace->cycle) {
    EXPECT_TRUE(s.implies(!*m->label("crit0")));
  }
  // Scheduling fairness still holds on the cycle.
  for (const auto& h : m->fairness()) {
    EXPECT_TRUE(e.trace->cycle_visits(h));
  }
}

TEST(ExplainTest, PhilosopherStarvationLasso) {
  auto m = models::dining_philosophers({.count = 3});
  Checker ck(*m);
  Explainer ex(ck);
  const Explanation e = ex.explain("AG (hungry0 -> AF eat0)");
  EXPECT_FALSE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  ASSERT_TRUE(e.trace->is_lasso());
  for (const auto& s : e.trace->cycle) {
    EXPECT_TRUE(s.implies(!*m->label("eat0")));
  }
}

// ---------------------------------------------------------------------------
// Property: for random models and random specs, the verdict matches the
// checker, the trace validates, and a false universal spec's trace truly
// demonstrates the dual existential formula.
// ---------------------------------------------------------------------------

class ExplainProperty : public ::testing::TestWithParam<int> {};

TEST_P(ExplainProperty, TraceContract) {
  const unsigned seed = static_cast<unsigned>(GetParam());
  auto m = test::random_ts(seed, {.num_vars = 4, .num_fairness = seed % 2});
  Checker ck(*m);
  Explainer ex(ck);
  std::mt19937 rng(seed * 31 + 5);
  for (int round = 0; round < 10; ++round) {
    const auto f = test::random_ctl(rng);
    const Explanation e = ex.explain(f);
    EXPECT_EQ(e.holds, ck.holds(f)) << ctl::to_string(f);
    if (e.trace.has_value()) {
      EXPECT_TRUE(test::certified_path(*m, *e.trace))
          << ctl::to_string(f) << " seed " << seed;
      EXPECT_TRUE(e.trace->states().front().implies(m->init()));
      if (!e.holds) {
        // The first state genuinely violates the formula.
        EXPECT_FALSE(
            e.trace->states().front().intersects(ck.states(f)))
            << ctl::to_string(f);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExplainProperty, ::testing::Range(0, 12));

}  // namespace
}  // namespace symcex::core
