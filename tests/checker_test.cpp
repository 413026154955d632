// Tests for the symbolic CTL model checker (fixpoints, fairness).

#include <random>

#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "test_util.hpp"
#include "ts/transition_system.hpp"

namespace symcex::core {
namespace {

/// Two-variable toggler: x flips each step, y is free.
class SmallModel : public ::testing::Test {
 protected:
  void SetUp() override {
    x_ = m_.add_var("x");
    y_ = m_.add_var("y");
    m_.set_init(!m_.cur(x_) & !m_.cur(y_));
    m_.add_trans(!(m_.next(x_) ^ !m_.cur(x_)));  // x' = !x
    m_.add_trans(m_.manager().one());            // y' unconstrained
    m_.finalize();
  }
  ts::TransitionSystem m_;
  ts::VarId x_ = 0;
  ts::VarId y_ = 0;
};

TEST_F(SmallModel, BasicVerdicts) {
  Checker ck(m_);
  EXPECT_TRUE(ck.holds("AX x"));
  EXPECT_TRUE(ck.holds("AX AX !x"));
  EXPECT_TRUE(ck.holds("AG (x -> AX !x)"));
  EXPECT_TRUE(ck.holds("EF (x & y)"));
  EXPECT_TRUE(ck.holds("AG EF (x & y)"));
  EXPECT_TRUE(ck.holds("EG !y"));
  EXPECT_FALSE(ck.holds("AG !y"));
  EXPECT_FALSE(ck.holds("EG x"));  // x toggles
  EXPECT_TRUE(ck.holds("A [!x U x]"));
  EXPECT_TRUE(ck.holds("E [!y U y]"));
}

TEST_F(SmallModel, StatesSetSemantics) {
  Checker ck(m_);
  const bdd::Bdd sat = ck.states(ctl::parse("EX x"));
  // EX x holds exactly where x is currently low.
  EXPECT_EQ(sat, !m_.cur(x_));
  EXPECT_EQ(ck.states(ctl::parse("x | !x")), m_.manager().one());
}

TEST_F(SmallModel, AtomResolution) {
  Checker ck(m_);
  EXPECT_EQ(ck.resolve_atom("x"), m_.cur(x_));
  EXPECT_THROW((void)ck.resolve_atom("zz"), std::invalid_argument);
  EXPECT_THROW((void)ck.holds("zz"), std::invalid_argument);
}

TEST_F(SmallModel, RejectsNonCtl) {
  Checker ck(m_);
  EXPECT_THROW((void)ck.states(ctl::parse("E (G F x)")),
               std::invalid_argument);
}

TEST_F(SmallModel, StatsAccumulate) {
  Checker ck(m_);
  ck.reset_stats();
  (void)ck.holds("EF (x & y)");
  EXPECT_GT(ck.stats().preimage_calls, 0u);
  EXPECT_GT(ck.stats().eu_iterations, 0u);
  ck.reset_stats();
  EXPECT_EQ(ck.stats().preimage_calls, 0u);
}

TEST_F(SmallModel, MemoizationIsSound) {
  Checker ck(m_);
  const auto f = ctl::parse("AG (x -> AX !x)");
  EXPECT_EQ(ck.states(f), ck.states(f));
  // Distinct formulas parsed from identical text also agree.
  EXPECT_EQ(ck.states(ctl::parse("EF y")), ck.states(ctl::parse("EF y")));
}

TEST_F(SmallModel, RequiresFinalizedSystem) {
  ts::TransitionSystem open;
  open.add_var("v");
  EXPECT_THROW(Checker bad(open), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fairness semantics
// ---------------------------------------------------------------------------

TEST(FairnessTest, FairEgRestrictsToFairPaths) {
  // x may stay or toggle; fairness requires x high infinitely often.
  ts::TransitionSystem m;
  const ts::VarId x = m.add_var("x");
  m.set_init(!m.cur(x));
  m.add_trans(m.manager().one());  // fully nondeterministic
  m.add_fairness(m.cur(x));
  m.finalize();
  Checker ck(m);
  // Without fairness EG !x would hold; with it, no fair path keeps x low.
  EXPECT_TRUE(ck.eg_raw(!m.cur(x)) == !m.cur(x));
  EXPECT_TRUE(ck.eg(!m.cur(x)).is_false());
  EXPECT_EQ(ck.fair_states(), m.manager().one());
  EXPECT_TRUE(ck.holds("AF x"));   // fairness forces x
  EXPECT_FALSE(ck.holds("AG x"));
}

TEST(FairnessTest, UnsatisfiableFairnessEmptiesEverything) {
  ts::TransitionSystem m;
  const ts::VarId x = m.add_var("x");
  m.set_init(!m.cur(x));
  m.add_trans(!m.next(x));  // x stays low forever
  m.add_fairness(m.cur(x));  // but must be high infinitely often
  m.finalize();
  Checker ck(m);
  EXPECT_TRUE(ck.fair_states().is_false());
  // Existential formulas are all false; their universal duals vacuous.
  EXPECT_FALSE(ck.holds("EF !x"));
  EXPECT_FALSE(ck.holds("EX true"));
  EXPECT_TRUE(ck.holds("AG x"));  // vacuously: no fair path at all
}

TEST(FairnessTest, MultipleConstraintsNeedAllInfinitelyOften) {
  // A 2-bit free system; constraints "x" and "y" force a fair path to
  // visit both regions forever.
  ts::TransitionSystem m;
  const ts::VarId x = m.add_var("x");
  const ts::VarId y = m.add_var("y");
  m.set_init(!m.cur(x) & !m.cur(y));
  m.add_trans(m.manager().one());
  m.add_fairness(m.cur(x) & !m.cur(y));
  m.add_fairness(!m.cur(x) & m.cur(y));
  m.finalize();
  Checker ck(m);
  EXPECT_EQ(ck.fair_states(), m.manager().one());
  // EG (x | y) is still satisfiable: alternate between the two regions.
  EXPECT_FALSE(ck.eg(m.cur(x) | m.cur(y)).is_false());
  // EG x is not: the second constraint needs !x states.
  EXPECT_TRUE(ck.eg(m.cur(x)).is_false());
}

TEST(FairnessTest, EgWithRingsMatchesEgAndSavesRings) {
  auto m = test::random_ts(42, {.num_vars = 4, .num_fairness = 2});
  Checker ck(*m);
  const bdd::Bdd f = *m->label("p") | *m->label("q");
  const FairEG info = ck.eg_with_rings(f);
  EXPECT_EQ(info.states, ck.eg(f));
  ASSERT_EQ(info.constraints.size(), 2u);
  ASSERT_EQ(info.rings.size(), 2u);
  for (std::size_t k = 0; k < info.rings.size(); ++k) {
    ASSERT_FALSE(info.rings[k].empty());
    // Ring 0 is (EG f) & h_k; rings increase and stay within E[f U ...].
    EXPECT_EQ(info.rings[k][0], info.states & info.constraints[k]);
    for (std::size_t i = 1; i < info.rings[k].size(); ++i) {
      EXPECT_TRUE(info.rings[k][i - 1].implies(info.rings[k][i]));
    }
    // Every EG state appears in the last ring (it can reach Z & h_k).
    EXPECT_TRUE(info.states.implies(info.rings[k].back()));
  }
}

TEST(FairnessTest, NoConstraintsUsesTrueRing) {
  auto m = test::random_ts(7, {.num_vars = 3});
  Checker ck(*m);
  const FairEG info = ck.eg_with_rings(m->manager().one());
  ASSERT_EQ(info.constraints.size(), 1u);
  EXPECT_TRUE(info.constraints[0].is_true());
  EXPECT_EQ(info.states, ck.eg_raw(m->manager().one()));
}

TEST(EuRingsTest, RingsAreTheBfsOnion) {
  // 3-bit counter: distance to the "max" state is exact.
  ts::TransitionSystem m;
  const auto b = m.add_vector("b", 3);
  bdd::Bdd carry = m.manager().one();
  for (const auto v : b) {
    m.add_trans(!(m.next(v) ^ (m.cur(v) ^ carry)));
    carry &= m.cur(v);
  }
  m.set_init(!m.cur(b[0]) & !m.cur(b[1]) & !m.cur(b[2]));
  m.finalize();
  Checker ck(m);
  const bdd::Bdd max = m.cur(b[0]) & m.cur(b[1]) & m.cur(b[2]);
  const auto rings = ck.eu_rings(m.manager().one(), max);
  ASSERT_EQ(rings.size(), 8u);  // distances 0..7 exist
  EXPECT_EQ(rings[0], max);
  EXPECT_EQ(rings.back(), m.manager().one());
  // Each ring adds exactly the states at that distance (counter: one each).
  for (std::size_t i = 1; i < rings.size(); ++i) {
    EXPECT_EQ(m.count_states(rings[i] - rings[i - 1]), 1.0);
  }
}

}  // namespace
}  // namespace symcex::core
