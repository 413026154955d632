// Tests for trace shortening (the Section 9 "shorter counterexamples"
// extension) and for the random-walk simulator.

#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/explain.hpp"
#include "core/trace_util.hpp"
#include "models/models.hpp"
#include "test_util.hpp"

namespace symcex::core {
namespace {

/// A fully free 2-bit playground system.
std::unique_ptr<ts::TransitionSystem> free_system() {
  auto m = std::make_unique<ts::TransitionSystem>();
  m->add_var("x");
  m->add_var("y");
  m->set_init(!m->cur(0) & !m->cur(1));  // x=0, y=0
  m->add_trans(m->manager().one());
  m->finalize();
  return m;
}

bdd::Bdd state_of(ts::TransitionSystem& m, bool x, bool y) {
  return m.manager().minterm({0, 2}, {x, y});
}

TEST(ShortenTest, CutsPrefixLoops) {
  auto m = free_system();
  const bdd::Bdd s00 = state_of(*m, false, false);
  const bdd::Bdd s01 = state_of(*m, false, true);
  const bdd::Bdd s10 = state_of(*m, true, false);
  const bdd::Bdd s11 = state_of(*m, true, true);
  Trace t;
  t.prefix = {s00, s01, s10, s01, s11};  // loop s01 -> s10 -> s01
  ASSERT_TRUE(test::certified_path(*m, t));
  const Trace s = shorten(t, *m);
  EXPECT_TRUE(test::certified_path(*m, s));
  EXPECT_EQ(s.prefix, (std::vector<bdd::Bdd>{s00, s01, s11}));
}

TEST(ShortenTest, PreservesObligations) {
  auto m = free_system();
  const bdd::Bdd s00 = state_of(*m, false, false);
  const bdd::Bdd s01 = state_of(*m, false, true);
  const bdd::Bdd s10 = state_of(*m, true, false);
  const bdd::Bdd s11 = state_of(*m, true, true);
  Trace t;
  t.prefix = {s00, s01, s10, s01, s11};
  // The loop contains the only s10 state; demanding s10 forbids the cut.
  const Trace s = shorten(t, *m, {s10});
  EXPECT_EQ(s.prefix.size(), 5u);
  // Without the obligation the cut happens.
  EXPECT_EQ(shorten(t, *m).prefix.size(), 3u);
}

TEST(ShortenTest, JumpsIntoTheCycle) {
  auto m = free_system();
  const bdd::Bdd s00 = state_of(*m, false, false);
  const bdd::Bdd s01 = state_of(*m, false, true);
  const bdd::Bdd s10 = state_of(*m, true, false);
  const bdd::Bdd s11 = state_of(*m, true, true);
  Trace t;
  t.prefix = {s00, s11, s10};  // s11 is already on the cycle
  t.cycle = {s10, s01, s11};
  ASSERT_TRUE(test::certified_path(*m, t));
  const Trace s = shorten(t, *m);
  EXPECT_TRUE(test::certified_path(*m, s));
  EXPECT_EQ(s.prefix, (std::vector<bdd::Bdd>{s00}));
  ASSERT_EQ(s.cycle.size(), 3u);
  EXPECT_EQ(s.cycle.front(), s11);  // rotated to the junction state
}

TEST(ShortenTest, CutsCycleLoopsButKeepsFairness) {
  // System with fairness on y: a cycle detour through y=1 must survive.
  auto m = std::make_unique<ts::TransitionSystem>();
  m->add_var("x");
  m->add_var("y");
  m->set_init(m->manager().one());
  m->add_trans(m->manager().one());
  m->add_fairness(m->cur(1));  // y high infinitely often
  m->finalize();
  const bdd::Bdd s00 = state_of(*m, false, false);
  const bdd::Bdd s01 = state_of(*m, false, true);
  const bdd::Bdd s10 = state_of(*m, true, false);
  Trace t;
  t.cycle = {s00, s10, s01, s10, s00, s10};  // y=1 only at s01
  ASSERT_TRUE(test::certified_path(*m, t));
  const Trace s = shorten(t, *m);
  EXPECT_TRUE(test::certified_path(*m, s));
  bool has_fair = false;
  for (const auto& st : s.cycle) has_fair |= st.intersects(m->cur(1));
  EXPECT_TRUE(has_fair);
  EXPECT_LE(s.cycle.size(), t.cycle.size());
}

TEST(ShortenTest, FoldsRedundantPrefixIntoCycle) {
  // The Section 6 construction yields prefix [0], cycle [1,2,3,0] on the
  // 2-bit counter; state 0 is on the cycle, so the prefix folds away.
  auto m = models::counter({.width = 2});
  Checker ck(*m);
  WitnessGenerator wg(ck);
  const Trace t = wg.eg(m->manager().one(), m->init());
  const Trace s = shorten(t, *m);
  EXPECT_TRUE(test::certified_path(*m, s));
  EXPECT_EQ(s.length(), 4u);
  EXPECT_TRUE(s.prefix.empty());
  // A second application is a fixpoint.
  const Trace s2 = shorten(s, *m);
  EXPECT_EQ(s2.length(), s.length());
}

TEST(ShortenTest, RealCounterexamplesStayValidAndDemonstrative) {
  auto m = models::seitz_arbiter();
  Checker ck(*m);
  Explainer ex(ck);
  const Explanation e = ex.explain("AG (r1 -> AF a1)");
  ASSERT_TRUE(e.trace.has_value());
  // Obligation: the cycle keeps r1 high with a1 low somewhere (it holds
  // everywhere on it, so shortening cannot lose it).
  const Trace s =
      shorten(*e.trace, *m, {*m->label("r1") & !*m->label("a1")});
  EXPECT_TRUE(test::certified_path(*m, s));
  EXPECT_LE(s.length(), e.trace->length());
  for (const auto& h : m->fairness()) {
    EXPECT_TRUE(s.cycle_visits(h));
  }
}

TEST(ShortenTest, ExplainerObligationsKeepTracesDemonstrative) {
  // Shorten every counterexample the Explainer produces across a battery
  // of specs, using the recorded obligations; the shortened trace must
  // still visit each obligation and stay a valid fair trace.
  auto m = models::dining_philosophers({.count = 3});
  Checker ck(*m);
  Explainer ex(ck);
  for (const char* spec :
       {"AG (hungry0 -> AF eat0)", "AG !eat1", "EF (eat0 & hungry1)",
        "EX EX EF eat2"}) {
    const Explanation e = ex.explain(spec);
    if (!e.trace.has_value()) continue;
    const Trace s = shorten(*e.trace, *m, e.obligations);
    EXPECT_TRUE(test::certified_path(*m, s)) << spec;
    EXPECT_LE(s.length(), e.trace->length()) << spec;
    const auto states = s.states();
    for (const auto& obligation : e.obligations) {
      bool visited = false;
      for (const auto& st : states) visited |= st.intersects(obligation);
      EXPECT_TRUE(visited) << spec;
    }
    if (e.trace->is_lasso()) {
      for (const auto& h : m->fairness()) {
        EXPECT_TRUE(s.cycle_visits(h)) << spec;
      }
    }
  }
}

TEST(SimulateTest, WalksAreValidPaths) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    auto m = models::dining_philosophers({.count = 3});
    const Trace t = simulate(*m, {.steps = 25, .seed = seed});
    EXPECT_TRUE(test::certified_path(*m, t)) << "seed " << seed;
    EXPECT_EQ(t.prefix.size(), 26u);
    EXPECT_FALSE(t.is_lasso());
    EXPECT_TRUE(t.prefix.front().implies(m->init()));
  }
}

TEST(SimulateTest, SameSeedSameWalk) {
  auto m = models::counter({.width = 3});
  const Trace a = simulate(*m, {.steps = 10, .seed = 42});
  const Trace b = simulate(*m, {.steps = 10, .seed = 42});
  ASSERT_EQ(a.prefix.size(), b.prefix.size());
  for (std::size_t i = 0; i < a.prefix.size(); ++i) {
    EXPECT_EQ(a.prefix[i], b.prefix[i]);
  }
}

TEST(SimulateTest, ConstraintRestrictsTheWalk) {
  auto m = models::dining_philosophers({.count = 3});
  const bdd::Bdd no_eat0 = !*m->label("eat0");
  const Trace t =
      simulate(*m, {.steps = 30, .seed = 5, .constraint = no_eat0});
  EXPECT_TRUE(test::certified_path(*m, t));
  EXPECT_TRUE(t.all_satisfy(no_eat0));
}

TEST(SimulateTest, StopsAtDeadlock) {
  ts::TransitionSystem m;
  const auto x = m.add_var("x");
  m.set_init(!m.cur(x));
  m.add_trans(!m.cur(x) & m.next(x));  // one step, then stuck
  m.finalize();
  const Trace t = simulate(m, {.steps = 10});
  EXPECT_EQ(t.prefix.size(), 2u);
}

TEST(SimulateTest, EmptyInitGivesEmptyTrace) {
  ts::TransitionSystem m;
  m.add_var("x");
  m.set_init(m.manager().zero());
  m.add_trans(m.manager().one());
  m.finalize();
  EXPECT_TRUE(simulate(m).prefix.empty());
}

}  // namespace
}  // namespace symcex::core
