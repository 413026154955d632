// Tests for the forward invariant checker: verdict agreement with the CTL
// checker, minimality of the counterexample prefix, fairness handling.

#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/explain.hpp"
#include "core/invariant.hpp"
#include "models/models.hpp"
#include "test_util.hpp"

namespace symcex::core {
namespace {

TEST(InvariantTest, HoldsOnSafeInvariants) {
  auto m = models::seitz_arbiter();
  Checker ck(*m);
  const bdd::Bdd no_double_grant = !(*m->label("g1") & *m->label("g2"));
  const InvariantResult r = check_invariant(ck, no_double_grant);
  EXPECT_TRUE(r.holds);
  EXPECT_FALSE(r.counterexample.has_value());
  EXPECT_GT(r.depth, 0u);
}

TEST(InvariantTest, CounterexamplePrefixIsShortest) {
  auto m = models::counter({.width = 4});
  Checker ck(*m);
  // "counter < 5" is violated first at value 5, i.e. at depth 5.
  bdd::Bdd lt5 = m->manager().zero();
  for (unsigned v = 0; v < 5; ++v) {
    lt5 |= m->manager().minterm(
        {0, 2, 4, 6}, {(v & 1) != 0, (v & 2) != 0, (v & 4) != 0, false});
  }
  const InvariantResult r = check_invariant(ck, lt5, /*extend_to_fair=*/false);
  EXPECT_FALSE(r.holds);
  EXPECT_EQ(r.depth, 5u);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_EQ(r.counterexample->prefix.size(), 6u);  // values 0..5
  EXPECT_TRUE(test::certified_path(*m, *r.counterexample));
  EXPECT_TRUE(r.counterexample->prefix.back().implies(!lt5));
}

TEST(InvariantTest, ExtendsToFairLasso) {
  auto m = models::counter({.width = 3});
  Checker ck(*m);
  const InvariantResult r = check_invariant(ck, !*m->label("max"));
  ASSERT_FALSE(r.holds);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_TRUE(r.counterexample->is_lasso());
  EXPECT_TRUE(test::certified_path(*m, *r.counterexample));
}

TEST(InvariantTest, FairSemanticsMatchTheCtlChecker) {
  // A violating state exists but only on unfair paths: the invariant holds
  // under fairness, and both engines agree.
  ts::TransitionSystem m;
  const auto x = m.add_var("x");
  const auto trap = m.add_var("trap");
  m.set_init(!m.cur(x) & !m.cur(trap));
  // x free while out of the trap; entering the trap forces trap forever
  // and freezes x low.
  m.add_trans((!m.cur(trap) & !m.next(trap)) |
              (m.next(trap) & !m.next(x)));
  m.add_fairness(m.cur(x));  // fair paths need x high infinitely often
  m.finalize();
  Checker ck(m);
  // "!trap" is violated in reachable states, but trap states are unfair.
  EXPECT_TRUE(ck.holds(ctl::parse("AG !trap")));
  const InvariantResult r = check_invariant(ck, !m.cur(trap));
  EXPECT_TRUE(r.holds);
}

TEST(InvariantTest, VerdictAgreesWithCheckerOnRandomModels) {
  for (unsigned seed = 0; seed < 20; ++seed) {
    auto m = test::random_ts(seed, {.num_vars = 4,
                                    .num_fairness = seed % 2});
    Checker ck(*m);
    std::mt19937 rng(seed + 321);
    for (int round = 0; round < 5; ++round) {
      const bdd::Bdd p = test::random_predicate(*m, rng);
      const InvariantResult r = check_invariant(ck, p);
      const bool want = m->init().implies(!ck.eu(m->manager().one(), !p));
      EXPECT_EQ(r.holds, want) << "seed " << seed;
      if (!r.holds) {
        ASSERT_TRUE(r.counterexample.has_value());
        EXPECT_TRUE(test::certified_path(*m, *r.counterexample)) << "seed " << seed;
        EXPECT_TRUE(
            r.counterexample->states().front().implies(m->init()));
        bool hits = false;
        for (const auto& s : r.counterexample->states()) {
          hits = hits || s.implies(!p);
        }
        EXPECT_TRUE(hits) << "seed " << seed;
      }
    }
  }
}

TEST(InvariantTest, EmptyInitHoldsVacuously) {
  ts::TransitionSystem m;
  m.add_var("x");
  m.set_init(m.manager().zero());
  m.add_trans(m.manager().one());
  m.finalize();
  Checker ck(m);
  const InvariantResult r = check_invariant(ck, m.manager().zero());
  EXPECT_TRUE(r.holds);
  EXPECT_EQ(r.depth, 0u);
}

}  // namespace
}  // namespace symcex::core
