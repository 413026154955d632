// Tests for the explicit-state baseline: enumeration, the SCC-based
// checker, and the exact minimal-finite-witness search of Theorem 1.

#include <random>

#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/witness.hpp"
#include "explicit/explicit_checker.hpp"
#include "explicit/explicit_graph.hpp"
#include "models/models.hpp"
#include "test_util.hpp"

namespace symcex::enumerative {
namespace {

Graph diamond() {
  // 0 -> {1, 2} -> 3 -> 3 (self loop), labels a = {1}, b = {2, 3}.
  Graph g;
  for (int i = 0; i < 4; ++i) g.add_state();
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.add_edge(3, 3);
  g.init = {0};
  g.labels["a"] = {false, true, false, false};
  g.labels["b"] = {false, false, true, true};
  return g;
}

TEST(ExplicitGraph, PredecessorsInvertEdges) {
  const Graph g = diamond();
  const auto pred = g.predecessors();
  EXPECT_EQ(pred[0], (std::vector<StateId>{}));
  EXPECT_EQ(pred[3], (std::vector<StateId>{1, 2, 3}));
}

TEST(ExplicitChecker, BasicVerdicts) {
  const Graph g = diamond();
  Checker ck(g);
  EXPECT_TRUE(ck.holds("EF b"));
  EXPECT_TRUE(ck.holds("AF b"));
  EXPECT_FALSE(ck.holds("AF a"));
  EXPECT_TRUE(ck.holds("EX a"));
  EXPECT_FALSE(ck.holds("AX a"));
  EXPECT_TRUE(ck.holds("AG (a -> AX b)"));
  EXPECT_TRUE(ck.holds("EG (a | b | !a & !b)"));
  EXPECT_THROW((void)ck.holds("missing_label"), std::invalid_argument);
}

TEST(ExplicitChecker, EgNeedsACycle) {
  const Graph g = diamond();
  Checker ck(g);
  // Only state 3 has a cycle; EG b = states that stay in b forever.
  const auto eg_b = ck.eg(g.labels.at("b"));
  EXPECT_EQ(eg_b, (StateSet{false, false, true, true}));
  const auto eg_a = ck.eg(g.labels.at("a"));
  EXPECT_EQ(eg_a, (StateSet{false, false, false, false}));
}

TEST(ExplicitChecker, FairnessFiltersSccs) {
  // Two independent loops: 0<->1 and 2->2; fairness set = {1}.
  Graph g;
  for (int i = 0; i < 3; ++i) g.add_state();
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(2, 2);
  g.init = {0};
  g.fairness.push_back({false, true, false});
  Checker ck(g);
  const auto& fair = ck.fair_states();
  EXPECT_EQ(fair, (StateSet{true, true, false}));
}

TEST(ExplicitChecker, SccDecomposition) {
  const Graph g = diamond();
  Checker ck(g);
  const auto [comp, n] = ck.scc_of(StateSet{true, true, true, true});
  EXPECT_EQ(n, 4);  // all singletons (3 has a self loop but is its own SCC)
  EXPECT_NE(comp[0], comp[1]);
  const auto [comp2, n2] = ck.scc_of(StateSet{true, true, false, false});
  EXPECT_EQ(comp2[2], -1);
  EXPECT_EQ(n2, 2);
}

TEST(Enumerate, MatchesSymbolicReachability) {
  auto m = models::counter({.width = 4});
  const Enumerated e = enumerate(*m, 1000);
  EXPECT_EQ(e.graph.num_states(), 16u);
  EXPECT_EQ(e.graph.init.size(), 1u);
  for (const auto& succ : e.graph.succ) {
    EXPECT_EQ(succ.size(), 1u);  // the counter is deterministic
  }
  EXPECT_EQ(e.graph.labels.at("zero"),
            ([&] {
              StateSet s(16, false);
              s[e.graph.init[0]] = true;
              return s;
            })());
}

TEST(Enumerate, ThrowsOnExplosion) {
  auto m = models::counter({.width = 6});
  EXPECT_THROW((void)enumerate(*m, 10), std::length_error);
}

TEST(Enumerate, CarriesFairness) {
  auto m = models::dining_philosophers({.count = 2});
  const Enumerated e = enumerate(*m, 10000);
  EXPECT_EQ(e.graph.fairness.size(), m->fairness().size());
}

// ---------------------------------------------------------------------------
// Minimal finite witness (Theorem 1)
// ---------------------------------------------------------------------------

TEST(MinimalWitness, SimpleLoop) {
  // 0 -> 1 -> 2 -> 1: minimal witness from 0 is prefix [0], cycle [1, 2].
  Graph g;
  for (int i = 0; i < 3; ++i) g.add_state();
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 1);
  const StateSet all(3, true);
  const auto w = minimal_finite_witness(g, 0, all);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->prefix, (std::vector<StateId>{0}));
  EXPECT_EQ(w->cycle, (std::vector<StateId>{1, 2}));
  EXPECT_EQ(w->length(), 3u);
}

TEST(MinimalWitness, SelfLoopIsMinimal) {
  Graph g;
  g.add_state();
  g.add_edge(0, 0);
  const auto w = minimal_finite_witness(g, 0, StateSet{true});
  ASSERT_TRUE(w.has_value());
  EXPECT_TRUE(w->prefix.empty());
  EXPECT_EQ(w->cycle, (std::vector<StateId>{0}));
}

TEST(MinimalWitness, FairnessForcesLongerCycles) {
  // A 4-cycle 0->1->2->3->0 with shortcut 1->0; constraints on 2 and 3
  // force the full loop even though a 2-cycle exists.
  Graph g;
  for (int i = 0; i < 4; ++i) g.add_state();
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  g.add_edge(1, 0);
  g.fairness.push_back({false, false, true, false});
  g.fairness.push_back({false, false, false, true});
  const StateSet all(4, true);
  const auto w = minimal_finite_witness(g, 0, all);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->length(), 4u);
  EXPECT_EQ(w->cycle.size(), 4u);
}

TEST(MinimalWitness, RespectsTheInvariant) {
  // The short loop passes through a forbidden state.
  Graph g;
  for (int i = 0; i < 4; ++i) g.add_state();
  g.add_edge(0, 1);  // forbidden
  g.add_edge(1, 0);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  StateSet f{true, false, true, true};
  const auto w = minimal_finite_witness(g, 0, f);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->cycle.size(), 3u);  // 0 -> 2 -> 3 -> 0
}

TEST(MinimalWitness, NoWitnessCases) {
  Graph g;
  for (int i = 0; i < 2; ++i) g.add_state();
  g.add_edge(0, 1);  // no cycle anywhere
  const StateSet all(2, true);
  EXPECT_EQ(minimal_finite_witness(g, 0, all), std::nullopt);
  // Unsatisfiable fairness.
  Graph g2;
  g2.add_state();
  g2.add_edge(0, 0);
  g2.fairness.push_back({false});
  EXPECT_EQ(minimal_finite_witness(g2, 0, StateSet{true}), std::nullopt);
  // Start state outside the invariant.
  EXPECT_EQ(minimal_finite_witness(g, 0, StateSet{false, true}),
            std::nullopt);
}

TEST(MinimalWitness, TooManyConstraintsRejected) {
  Graph g;
  g.add_state();
  g.add_edge(0, 0);
  for (int i = 0; i < 21; ++i) g.fairness.push_back({true});
  EXPECT_THROW((void)minimal_finite_witness(g, 0, StateSet{true}),
               std::invalid_argument);
}

/// The heuristic Section 6 witness is never shorter than the exact
/// minimum, and both visit all constraints (the E4 experiment's property).
class MinimalVsHeuristic : public ::testing::TestWithParam<int> {};

TEST_P(MinimalVsHeuristic, HeuristicIsBoundedBelowByExact) {
  const unsigned seed = static_cast<unsigned>(GetParam());
  auto m = symcex::test::random_ts(
      seed, {.num_vars = 3, .num_fairness = 1 + seed % 2});
  core::Checker ck(*m);
  const core::FairEG info = ck.eg_with_rings(m->manager().one());
  if (!m->init().intersects(info.states)) return;

  core::WitnessGenerator wg(ck);
  const core::Trace heuristic =
      wg.eg(info, m->manager().one(), m->init());
  ASSERT_TRUE(test::certified_path(*m, heuristic));

  const Enumerated e = enumerate(*m, 1u << 12);
  // Locate the heuristic's start state in the enumeration.
  const bdd::Bdd start = heuristic.prefix.front();
  StateId start_id = 0;
  for (StateId i = 0; i < e.concrete.size(); ++i) {
    if (e.concrete[i] == start) start_id = i;
  }
  const StateSet all(e.graph.num_states(), true);
  const auto exact = minimal_finite_witness(e.graph, start_id, all);
  ASSERT_TRUE(exact.has_value()) << "seed " << seed;
  EXPECT_LE(exact->length(), heuristic.length()) << "seed " << seed;
  // The exact cycle visits every constraint.
  for (const auto& fair_set : e.graph.fairness) {
    bool visited = false;
    for (const StateId s : exact->cycle) visited |= fair_set[s];
    EXPECT_TRUE(visited) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimalVsHeuristic, ::testing::Range(0, 10));

}  // namespace
}  // namespace symcex::enumerative
