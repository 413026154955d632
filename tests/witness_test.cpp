// Tests for the Section 6 witness generator: structural validity of every
// produced trace, fairness coverage of cycles, the SCC-restart behaviour
// of Figures 1 and 2, and both cycle-closure strategies.

#include <cstdint>
#include <random>

#include <gtest/gtest.h>

#include "certify/certify.hpp"
#include "core/checker.hpp"
#include "core/witness.hpp"
#include "models/models.hpp"
#include "test_util.hpp"

namespace symcex::core {
namespace {

/// Asserts the full Section 6 contract of a fair EG witness.
void expect_valid_eg_witness(const Trace& trace, ts::TransitionSystem& m,
                             const bdd::Bdd& f,
                             const std::vector<bdd::Bdd>& constraints) {
  ASSERT_TRUE(test::certified_path(m, trace));
  ASSERT_TRUE(trace.is_lasso());
  EXPECT_TRUE(trace.all_satisfy(f));
  for (const auto& h : constraints) {
    EXPECT_TRUE(trace.cycle_visits(h)) << "fairness constraint missed";
  }
}

TEST(TraceTest, AccessorsAndRendering) {
  ts::TransitionSystem m;
  const auto x = m.add_var("x");
  m.set_init(!m.cur(x));
  m.add_trans(!(m.next(x) ^ !m.cur(x)));
  m.finalize();
  Trace t;
  t.prefix = {m.pick_state(!m.cur(x))};
  t.cycle = {m.pick_state(m.cur(x)), m.pick_state(!m.cur(x))};
  EXPECT_EQ(t.length(), 3u);
  EXPECT_TRUE(t.is_lasso());
  EXPECT_EQ(t.states().size(), 3u);
  EXPECT_EQ(t.at(0), t.prefix[0]);
  EXPECT_EQ(t.at(1), t.cycle[0]);
  EXPECT_EQ(t.at(3), t.cycle[0]);  // cycle wraps
  EXPECT_EQ(t.at(4), t.cycle[1]);
  EXPECT_TRUE(test::certified_path(m, t));
  const std::string rendered = t.to_string(m);
  EXPECT_NE(rendered.find("loop starts here"), std::string::npos);
}

TEST(TraceTest, ValidateCatchesBrokenTraces) {
  ts::TransitionSystem m;
  const auto x = m.add_var("x");
  m.set_init(!m.cur(x));
  m.add_trans(!(m.next(x) ^ !m.cur(x)));  // strict toggle
  m.finalize();
  // Each broken trace fails certify_path, first at the obligation it breaks.
  const auto first_failure = [&](const Trace& t) -> std::string {
    const certify::Certificate cert =
        certify::TraceCertifier(m).certify_path(t);
    const certify::Obligation* failed = cert.first_failure();
    return failed == nullptr ? "" : failed->name;
  };
  Trace empty;
  EXPECT_EQ(first_failure(empty), "trace-nonempty");
  Trace not_single;
  not_single.prefix = {m.manager().one()};
  EXPECT_EQ(first_failure(not_single), "single-state[0]");
  Trace bad_edge;
  bad_edge.prefix = {m.pick_state(!m.cur(x)), m.pick_state(!m.cur(x))};
  EXPECT_EQ(first_failure(bad_edge), "edge[0]");  // no self loop on !x
  Trace bad_cycle;
  bad_cycle.prefix = {m.pick_state(!m.cur(x))};
  bad_cycle.cycle = {m.pick_state(m.cur(x)), m.pick_state(!m.cur(x)),
                     m.pick_state(m.cur(x))};
  // closing edge x -> x missing
  EXPECT_EQ(first_failure(bad_cycle), "cycle-closed");
}

TEST(WitnessEg, SimpleLassoWithoutFairness) {
  auto m = models::counter({.width = 3});
  Checker ck(*m);
  WitnessGenerator wg(ck);
  const Trace t = wg.eg(m->manager().one(), m->init());
  expect_valid_eg_witness(t, *m, m->manager().one(), {});
  // The counter's only cycle is the full 8-state loop.
  EXPECT_EQ(t.cycle.size(), 8u);
}

TEST(WitnessEg, InvariantRestrictsTheLasso) {
  // Free 2-bit system; EG !x must produce a lasso within !x states.
  ts::TransitionSystem m;
  const auto x = m.add_var("x");
  const auto y = m.add_var("y");
  m.set_init(!m.cur(x) & !m.cur(y));
  m.add_trans(m.manager().one());
  m.finalize();
  Checker ck(m);
  WitnessGenerator wg(ck);
  const Trace t = wg.eg(!m.cur(x), m.init());
  expect_valid_eg_witness(t, m, !m.cur(x), {});
}

TEST(WitnessEg, FairCycleVisitsEveryConstraint) {
  // Fully free 3-bit system with 3 disjoint fairness regions.
  ts::TransitionSystem m;
  const auto vars = m.add_vector("v", 3);
  m.set_init(!m.cur(vars[0]) & !m.cur(vars[1]) & !m.cur(vars[2]));
  m.add_trans(m.manager().one());
  std::vector<bdd::Bdd> constraints{
      m.cur(vars[0]) & !m.cur(vars[1]),
      !m.cur(vars[0]) & m.cur(vars[1]),
      m.cur(vars[2]),
  };
  for (const auto& h : constraints) m.add_fairness(h);
  m.finalize();
  Checker ck(m);
  WitnessGenerator wg(ck);
  const Trace t = wg.eg(m.manager().one(), m.init());
  expect_valid_eg_witness(t, m, m.manager().one(), constraints);
}

TEST(WitnessEg, ThrowsWhenFromCannotSatisfy) {
  auto m = models::counter({.width = 2});
  Checker ck(*m);
  WitnessGenerator wg(ck);
  EXPECT_THROW((void)wg.eg(m->manager().zero(), m->init()),
               std::invalid_argument);
}

TEST(WitnessEg, Figure1SingleSccNoRestarts) {
  auto m = models::scc_chain({.chain_len = 6, .cycle_len = 5,
                              .start_in_cycle = true});
  Checker ck(*m);
  WitnessGenerator wg(ck);
  const Trace t = wg.eg(m->manager().one(), m->init());
  EXPECT_TRUE(test::certified_path(*m, t));
  EXPECT_EQ(wg.stats().restarts, 0u);
  EXPECT_EQ(t.cycle.size(), 5u);
}

TEST(WitnessEg, Figure2DescendsTheSccDag) {
  // Starting at the head of a transient chain, each closure failure
  // restarts one state further down (the paper's Figure 2 descent).
  auto m = models::scc_chain({.chain_len = 6, .cycle_len = 5});
  Checker ck(*m);
  WitnessGenerator wg(ck);
  const Trace t = wg.eg(m->manager().one(), m->init());
  EXPECT_TRUE(test::certified_path(*m, t));
  EXPECT_EQ(wg.stats().restarts, 5u);
  EXPECT_EQ(t.cycle.size(), 5u);
  EXPECT_EQ(t.prefix.size(), 6u);
}

TEST(WitnessEg, RingsSteerPastTheChain) {
  // With the fairness mark inside the terminal cycle, the onion rings lead
  // the segment straight to the mark; at most one restart remains (the
  // first cycle anchor may still be a transient chain state), versus the
  // full chain_len descents without the mark.
  auto m = models::scc_chain({.chain_len = 6, .cycle_len = 5,
                              .fairness_in_cycle = true});
  Checker ck(*m);
  WitnessGenerator wg(ck);
  const Trace t = wg.eg(m->manager().one(), m->init());
  EXPECT_TRUE(test::certified_path(*m, t));
  EXPECT_LE(wg.stats().restarts, 1u);
  EXPECT_TRUE(t.cycle_visits(*m->label("mark")));
}

TEST(WitnessEg, RingsWithMarkAndCycleStartCloseImmediately) {
  auto m = models::scc_chain({.chain_len = 6, .cycle_len = 5,
                              .start_in_cycle = true,
                              .fairness_in_cycle = true});
  Checker ck(*m);
  WitnessGenerator wg(ck);
  const Trace t = wg.eg(m->manager().one(), m->init());
  EXPECT_TRUE(test::certified_path(*m, t));
  EXPECT_EQ(wg.stats().restarts, 0u);
  EXPECT_TRUE(t.cycle_visits(*m->label("mark")));
}

TEST(WitnessEg, EarlyExitStrategyAlsoTerminates) {
  WitnessOptions options;
  options.strategy = CycleCloseStrategy::kEarlyExit;
  for (unsigned seed = 0; seed < 8; ++seed) {
    auto m = test::random_ts(seed, {.num_vars = 4, .num_fairness = 1});
    Checker ck(*m);
    const FairEG info = ck.eg_with_rings(m->manager().one());
    if (!m->init().intersects(info.states)) continue;
    WitnessGenerator wg(ck, options);
    const Trace t = wg.eg(info, m->manager().one(), m->init());
    EXPECT_TRUE(test::certified_path(*m, t)) << "seed " << seed;
    for (const auto& h : m->fairness()) EXPECT_TRUE(t.cycle_visits(h));
  }
}

TEST(WitnessEg, BothStrategiesOnTheChain) {
  for (const auto strategy :
       {CycleCloseStrategy::kRestart, CycleCloseStrategy::kEarlyExit}) {
    auto m = models::scc_chain({.chain_len = 4, .cycle_len = 3});
    Checker ck(*m);
    WitnessOptions options;
    options.strategy = strategy;
    WitnessGenerator wg(ck, options);
    const Trace t = wg.eg(m->manager().one(), m->init());
    EXPECT_TRUE(test::certified_path(*m, t));
    EXPECT_EQ(t.cycle.size(), 3u);
  }
}

TEST(WitnessEg, PaperFaithfulModeWithoutInPlaceMarking) {
  // mark_satisfied_in_place=false reproduces the paper's construction
  // verbatim: every constraint is visited by a ring descent.
  WitnessOptions options;
  options.mark_satisfied_in_place = false;
  for (unsigned seed = 0; seed < 6; ++seed) {
    auto m = test::random_ts(seed + 40, {.num_vars = 4, .num_fairness = 2});
    Checker ck(*m);
    const FairEG info = ck.eg_with_rings(m->manager().one());
    if (!m->init().intersects(info.states)) continue;
    WitnessGenerator wg(ck, options);
    const Trace t = wg.eg(info, m->manager().one(), m->init());
    EXPECT_TRUE(test::certified_path(*m, t)) << "seed " << seed;
    for (const auto& h : m->fairness()) {
      EXPECT_TRUE(t.cycle_visits(h)) << "seed " << seed;
    }
  }
}

TEST(WitnessEg, RestartBoundIsEnforced) {
  // A chain long enough to exceed an artificially tiny restart budget.
  auto m = models::scc_chain({.chain_len = 10, .cycle_len = 3});
  Checker ck(*m);
  WitnessOptions options;
  options.max_restarts = 2;
  WitnessGenerator wg(ck, options);
  EXPECT_THROW((void)wg.eg(m->manager().one(), m->init()), std::logic_error);
}

TEST(WitnessEu, WalksToTargetAndExtendsFairly) {
  auto m = models::counter({.width = 3});
  Checker ck(*m);
  WitnessGenerator wg(ck);
  const bdd::Bdd max = *m->label("max");
  const Trace t = wg.eu(m->manager().one(), max, m->init());
  EXPECT_TRUE(test::certified_path(*m, t));
  ASSERT_TRUE(t.is_lasso());  // extended to an infinite fair path
  // The walk reaches max at step 7 exactly (counter distance), and the
  // fair extension wraps the full 8-state loop behind it.
  EXPECT_EQ(t.prefix.size(), 8u);
  EXPECT_EQ(t.cycle.size(), 8u);
  EXPECT_TRUE(t.at(7).implies(max));
  bool hits_max = false;
  for (const auto& s : t.states()) hits_max |= s.intersects(max);
  EXPECT_TRUE(hits_max);
}

TEST(WitnessEu, WithoutExtensionStopsAtTarget) {
  auto m = models::counter({.width = 3});
  Checker ck(*m);
  WitnessOptions options;
  options.extend_to_fair_path = false;
  WitnessGenerator wg(ck, options);
  const bdd::Bdd max = *m->label("max");
  const Trace t = wg.eu(m->manager().one(), max, m->init());
  EXPECT_FALSE(t.is_lasso());
  ASSERT_EQ(t.prefix.size(), 8u);  // 0 .. 7
  EXPECT_TRUE(t.prefix.back().implies(max));
  EXPECT_TRUE(test::certified_path(*m, t));
}

TEST(WitnessEu, InvariantHoldsUntilTarget) {
  // Free 3-bit system: E[!a U b] with disjoint a/b regions.
  ts::TransitionSystem m;
  const auto v = m.add_vector("v", 3);
  m.set_init(!m.cur(v[0]) & !m.cur(v[1]) & !m.cur(v[2]));
  m.add_trans(m.manager().one());
  m.finalize();
  Checker ck(m);
  WitnessOptions options;
  options.extend_to_fair_path = false;
  WitnessGenerator wg(ck, options);
  const bdd::Bdd a = m.cur(v[0]);
  const bdd::Bdd b = m.cur(v[1]) & m.cur(v[2]);
  const Trace t = wg.eu(!a, b, m.init());
  EXPECT_TRUE(test::certified_path(m, t));
  for (std::size_t i = 0; i + 1 < t.prefix.size(); ++i) {
    EXPECT_TRUE(t.prefix[i].implies(!a));
  }
  EXPECT_TRUE(t.prefix.back().implies(b));
}

TEST(WitnessEu, ZeroLengthWhenAlreadyAtTarget) {
  auto m = models::counter({.width = 2});
  Checker ck(*m);
  WitnessOptions options;
  options.extend_to_fair_path = false;
  WitnessGenerator wg(ck, options);
  const Trace t = wg.eu(m->manager().one(), *m->label("zero"), m->init());
  EXPECT_EQ(t.prefix.size(), 1u);
  EXPECT_TRUE(t.prefix[0].implies(*m->label("zero")));
}

TEST(WitnessEx, OneStepThenFairTail) {
  auto m = models::counter({.width = 2});
  Checker ck(*m);
  WitnessGenerator wg(ck);
  // From 0, EX (b.0) holds: successor is 1.
  const Trace t = wg.ex(m->cur(0 /* b.0 */), m->init());
  EXPECT_TRUE(test::certified_path(*m, t));
  ASSERT_GE(t.length(), 2u);
  EXPECT_TRUE(t.at(1).implies(m->cur(0)));
  EXPECT_THROW((void)wg.ex(m->manager().zero(), m->init()),
               std::invalid_argument);
}

TEST(WitnessWalkRings, ThrowsOutsideTheFixpoint) {
  auto m = models::counter({.width = 2});
  Checker ck(*m);
  WitnessGenerator wg(ck);
  // Rings of E[false U zero] = {zero} only.
  const auto rings = ck.eu_rings(m->manager().zero(), *m->label("zero"));
  EXPECT_THROW((void)wg.walk_rings(rings, *m->label("max")),
               std::invalid_argument);
}

TEST(WitnessWalkRings, NonMonotoneChainFailsAsCertificationError) {
  // The onion rings of an EU fixpoint are an increasing chain; a chain
  // where rings[0] does not imply rings[1] would make the binary search in
  // min_ring_index return a wrong minimal index and silently corrupt the
  // witness.  walk_rings checks the chain on entry and must reject it as a
  // recoverable CertificationError -- in every build type, certification
  // on or off -- and the certificate has to name the broken link.
  for (const bool certifying : {false, true}) {
    const test::ScopedConfig scope(
        [&](config::Config& c) { c.certify = certifying; });
    auto m = models::counter({.width = 2});
    Checker ck(*m);
    WitnessGenerator wg(ck);
    const std::vector<bdd::Bdd> rings = {m->cur(0), !m->cur(0)};
    try {
      (void)wg.walk_rings(rings, m->manager().one());
      FAIL() << "non-monotone ring chain was accepted (certify "
             << certifying << ")";
    } catch (const certify::CertificationError& e) {
      EXPECT_NE(std::string(e.what()).find("walk_rings"), std::string::npos);
      ASSERT_FALSE(e.certificate().obligations.empty());
      EXPECT_EQ(e.certificate().obligations.front().name,
                "ring-chain-monotone");
      EXPECT_FALSE(e.certificate().obligations.front().ok);
    }
  }
}

TEST(WitnessWalkRings, CertifiedWalkChecksTheChainOncePerWalk) {
  // A certified EX b0 witness on a 10-bit counter extends to a fair lasso
  // whose cycle closure walks a 1024-ring chain.  Each implies issues one
  // NOT, so checking the chain once per walk costs about 1024 of them;
  // re-checking it on every step would cost about 1024 * 1024.
  const test::ScopedConfig scope(test::certify_on);
  auto m = models::counter({.width = 10});
  Checker ck(*m);
  WitnessGenerator wg(ck);
  const std::uint64_t nots_before =
      m->manager().stats().apply(bdd::ApplyOp::kNot);
  const Trace t = wg.ex(m->cur(0), m->init());
  const std::uint64_t nots =
      m->manager().stats().apply(bdd::ApplyOp::kNot) - nots_before;
  EXPECT_EQ(t.cycle.size(), 1024u);  // the lasso runs through every state
  EXPECT_LT(nots, 4u * 1024u) << nots << " NOTs for a 1024-ring chain";
}

TEST(WitnessWalkRings, RingChainCheckBuildsNoNode) {
  // A walk that starts in ring 0 takes no step: all it does is check the
  // chain (one implies per link) and find the ring (intersects).  Neither
  // may build a node, so the manager's unique table sees no miss.
  const test::ScopedConfig scope(test::certify_on);
  auto m = models::counter({.width = 8});
  Checker ck(*m);
  const auto rings = ck.eu_rings(m->manager().one(), *m->label("max"));
  ASSERT_GT(rings.size(), 200u);
  WitnessGenerator wg(ck);
  const bdd::Bdd start = m->pick_state(rings[0]);
  const std::size_t misses = m->manager().stats().unique_misses;
  const std::vector<bdd::Bdd> path = wg.walk_rings(rings, start);
  EXPECT_EQ(path.size(), 1u);
  EXPECT_EQ(m->manager().stats().unique_misses, misses);
}

// ---------------------------------------------------------------------------
// Property: on random fair systems, every generated EG witness validates,
// stays within f, and its cycle visits every fairness constraint.
// ---------------------------------------------------------------------------

class RandomWitnessProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomWitnessProperty, EgWitnessContract) {
  const unsigned seed = static_cast<unsigned>(GetParam());
  auto m = test::random_ts(seed, {.num_vars = 4,
                                  .num_fairness = seed % 3});
  Checker ck(*m);
  std::mt19937 rng(seed + 1000);
  for (int round = 0; round < 5; ++round) {
    bdd::Bdd f = test::random_predicate(*m, rng);
    const FairEG info = ck.eg_with_rings(f);
    if (info.states.is_false()) continue;
    WitnessGenerator wg(ck);
    const Trace t = wg.eg(info, f, info.states);
    EXPECT_TRUE(test::certified_path(*m, t)) << "seed " << seed;
    EXPECT_TRUE(t.all_satisfy(f)) << "seed " << seed;
    for (const auto& h : m->fairness()) {
      EXPECT_TRUE(t.cycle_visits(h)) << "seed " << seed;
    }
  }
}

TEST_P(RandomWitnessProperty, EuWitnessContract) {
  const unsigned seed = static_cast<unsigned>(GetParam());
  auto m = test::random_ts(seed + 500, {.num_vars = 4,
                                        .num_fairness = seed % 2});
  Checker ck(*m);
  std::mt19937 rng(seed + 2000);
  for (int round = 0; round < 5; ++round) {
    const bdd::Bdd f = test::random_predicate(*m, rng);
    const bdd::Bdd g = test::random_predicate(*m, rng);
    const bdd::Bdd can = ck.eu(f, g);
    if (!m->init().intersects(can)) continue;
    WitnessGenerator wg(ck);
    const Trace t = wg.eu(f, g, m->init());
    EXPECT_TRUE(test::certified_path(*m, t)) << "seed " << seed;
    // f holds up to (excluding) the first g-state.
    bool seen_g = false;
    for (const auto& s : t.states()) {
      if (s.implies(g)) {
        seen_g = true;
        break;
      }
      EXPECT_TRUE(s.implies(f)) << "seed " << seed;
    }
    EXPECT_TRUE(seen_g) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWitnessProperty,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace symcex::core
