// Tests for the certification layer (src/certify): accept-paths on real
// generated witnesses, mutation tests showing a corrupted trace is
// rejected with the *right* obligation named, the auto-certify hooks, and
// the BDD/TS structural audits.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "certify/certify.hpp"
#include "core/checker.hpp"
#include "core/explain.hpp"
#include "core/invariant.hpp"
#include "core/witness.hpp"
#include "explicit/explicit_graph.hpp"
#include "models/models.hpp"
#include "test_util.hpp"

namespace symcex {
namespace {

/// Restore the process-wide certification toggle on scope exit.
class EnabledGuard {
 public:
  explicit EnabledGuard(bool on) : prev_(certify::enabled()) {
    certify::set_enabled(on);
  }
  ~EnabledGuard() { certify::set_enabled(prev_); }
  EnabledGuard(const EnabledGuard&) = delete;
  EnabledGuard& operator=(const EnabledGuard&) = delete;

 private:
  bool prev_;
};

/// A hand-built 2-bit model: state k is the minterm b1 b0 == k, the
/// relation is exactly `edges`, and the initial state is `init`.  Every
/// concrete state minterm is available for trace surgery.
struct RingModel {
  std::unique_ptr<ts::TransitionSystem> m;
  bdd::Bdd s[4];
};

RingModel make_two_bit_model(
    const std::vector<std::pair<unsigned, unsigned>>& edges, unsigned init) {
  RingModel r;
  r.m = std::make_unique<ts::TransitionSystem>();
  const ts::VarId b0 = r.m->add_var("b0");
  const ts::VarId b1 = r.m->add_var("b1");
  const auto cur_eq = [&](unsigned k) {
    return ((k & 1u) != 0 ? r.m->cur(b0) : !r.m->cur(b0)) &
           ((k & 2u) != 0 ? r.m->cur(b1) : !r.m->cur(b1));
  };
  const auto next_eq = [&](unsigned k) {
    return ((k & 1u) != 0 ? r.m->next(b0) : !r.m->next(b0)) &
           ((k & 2u) != 0 ? r.m->next(b1) : !r.m->next(b1));
  };
  bdd::Bdd rel = r.m->manager().zero();
  for (const auto& [a, b] : edges) rel |= cur_eq(a) & next_eq(b);
  r.m->set_init(cur_eq(init));
  r.m->add_trans(rel);
  r.m->add_fairness(cur_eq(2));
  r.m->finalize();
  for (unsigned k = 0; k < 4; ++k) r.s[k] = cur_eq(k);
  return r;
}

/// The 4-state ring (2-bit counter 0->1->2->3->0 plus the self-loop 0->0)
/// with the single fairness constraint "state == 2".
RingModel make_ring() {
  return make_two_bit_model({{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 0}}, 0);
}

/// A valid fair-EG-true lasso on the ring: 0 then (1 2 3 0)^w.
core::Trace ring_lasso(const RingModel& r) {
  core::Trace t;
  t.prefix = {r.s[0]};
  t.cycle = {r.s[1], r.s[2], r.s[3], r.s[0]};
  return t;
}

void expect_first_failure(const certify::Certificate& cert,
                          const std::string& name) {
  EXPECT_FALSE(cert.ok()) << cert.to_string();
  ASSERT_NE(cert.first_failure(), nullptr);
  EXPECT_EQ(cert.first_failure()->name, name) << cert.to_string();
}

/// Whether the obligation called `name` passed; nullopt if there is none.
std::optional<bool> outcome(const certify::Certificate& cert,
                            const std::string& name) {
  for (const auto& ob : cert.obligations) {
    if (ob.name == name) return ob.ok;
  }
  return std::nullopt;
}

/// Number of obligations whose name starts with `prefix`.
std::size_t count_obligations(const certify::Certificate& cert,
                              const std::string& prefix) {
  std::size_t n = 0;
  for (const auto& ob : cert.obligations) {
    if (ob.name.rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Accept paths
// ---------------------------------------------------------------------------

TEST(TraceCertifier, AcceptsValidEgLasso) {
  const RingModel r = make_ring();
  const certify::TraceCertifier certifier(*r.m);
  const auto cert = certifier.certify_eg(ring_lasso(r), r.m->manager().one(),
                                         r.m->fairness());
  EXPECT_TRUE(cert.ok()) << cert.to_string();
  // The cross-engine pass re-derives every edge, the wrap-around one
  // included, from the image of its source state.
  EXPECT_EQ(count_obligations(cert, "xcheck-edge"), 5u) << cert.to_string();
}

TEST(TraceCertifier, AcceptsValidEuPathAndExStep) {
  const RingModel r = make_ring();
  const certify::TraceCertifier certifier(*r.m);
  core::Trace eu;
  eu.prefix = {r.s[0], r.s[1], r.s[2], r.s[3]};
  EXPECT_TRUE(
      certifier.certify_eu(eu, r.m->manager().one(), r.s[3]).ok());
  core::Trace ex;
  ex.prefix = {r.s[0], r.s[1]};
  EXPECT_TRUE(certifier.certify_ex(ex, r.s[1]).ok());
}

TEST(TraceCertifier, AcceptsGeneratedWitnessesOnRandomModels) {
  for (unsigned seed = 0; seed < 6; ++seed) {
    auto m = test::random_ts(seed, {.num_vars = 3, .num_fairness = seed % 3});
    core::Checker ck(*m);
    core::WitnessGenerator gen(ck);
    const certify::TraceCertifier certifier(*m);
    std::mt19937 rng(seed + 13);
    for (int round = 0; round < 3; ++round) {
      const bdd::Bdd f = test::random_predicate(*m, rng);
      const core::FairEG info = ck.eg_with_rings(f);
      if (!m->init().intersects(info.states)) continue;
      const core::Trace tr = gen.eg(info, f, m->init());
      const auto cert = certifier.certify_eg(tr, f, info.constraints);
      EXPECT_TRUE(cert.ok()) << "seed " << seed << "\n" << cert.to_string();
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-engine pass: the image check agrees with the explicit engine
// ---------------------------------------------------------------------------

/// For every ordered pair (u, v) of enumerated states, the two-state trace
/// {u, v} passes xcheck-edge[0] -- and edge[0] -- iff v is on the explicit
/// engine's successor list of u.
void expect_xcheck_matches_enumeration(const ts::TransitionSystem& m,
                                       const std::string& label) {
  const enumerative::Enumerated e = enumerative::enumerate(m, 2048);
  const certify::TraceCertifier certifier(m);
  for (enumerative::StateId u = 0; u < e.graph.num_states(); ++u) {
    const auto& succ = e.graph.succ[u];
    for (enumerative::StateId v = 0; v < e.graph.num_states(); ++v) {
      core::Trace t;
      t.prefix = {e.concrete[u], e.concrete[v]};
      const auto cert = certifier.certify_path(t);
      const bool explicit_edge =
          std::find(succ.begin(), succ.end(), v) != succ.end();
      EXPECT_EQ(outcome(cert, "xcheck-edge[0]"), explicit_edge)
          << label << " u=" << u << " v=" << v << "\n" << cert.to_string();
      EXPECT_EQ(outcome(cert, "edge[0]"), explicit_edge)
          << label << " u=" << u << " v=" << v << "\n" << cert.to_string();
    }
  }
}

TEST(CrossEngine, ImageCheckMatchesExplicitSuccessorsOnTheRing) {
  const RingModel r = make_ring();
  expect_xcheck_matches_enumeration(*r.m, "ring");
}

TEST(CrossEngine, ImageCheckMatchesExplicitSuccessorsOnRandomModels) {
  for (unsigned seed = 0; seed < 20; ++seed) {
    const auto m = test::random_ts(seed);
    expect_xcheck_matches_enumeration(*m, "seed " + std::to_string(seed));
  }
}

TEST(CrossEngine, CoversEveryEdgeOfAModelBeyondEnumeration) {
  // 8 banks of 4 bits: 2^32 reachable states, far past any explicit bound.
  const auto m = models::counter_bank({.banks = 8, .width = 4});
  core::Checker ck(*m);
  core::Explainer explainer(ck);
  const auto out = explainer.explain("AG (zero0 -> AF max0)");
  ASSERT_FALSE(out.holds);
  ASSERT_TRUE(out.trace.has_value());
  ASSERT_TRUE(out.trace->is_lasso());
  const certify::TraceCertifier certifier(*m);
  const auto cert = certifier.certify_path(*out.trace);
  EXPECT_TRUE(cert.ok()) << cert.to_string();
  // One per consecutive pair plus the wrap-around edge.
  EXPECT_EQ(count_obligations(cert, "xcheck-edge"), out.trace->length())
      << cert.to_string();
  EXPECT_EQ(count_obligations(cert, "cross-engine"), 0u) << cert.to_string();
}

TEST(CrossEngine, ChecksTracesOutsideTheReachableSet) {
  // Reachable: {0, 1}.  The 2 <-> 3 loop is a real part of the relation
  // that no run from init ever enters.
  const RingModel r =
      make_two_bit_model({{0, 1}, {1, 1}, {2, 3}, {3, 2}}, 0);
  ASSERT_FALSE(r.m->reachable().intersects(r.s[2]));
  const certify::TraceCertifier certifier(*r.m);
  core::Trace loop;
  loop.prefix = {r.s[2]};
  loop.cycle = {r.s[3], r.s[2]};
  const auto cert = certifier.certify_path(loop);
  EXPECT_TRUE(cert.ok()) << cert.to_string();
  EXPECT_EQ(count_obligations(cert, "xcheck-edge"), 3u) << cert.to_string();
  for (const auto& ob : cert.obligations) {
    EXPECT_EQ(ob.detail.find("skipped"), std::string::npos) << ob.name;
  }
  core::Trace jump;
  jump.prefix = {r.s[2], r.s[0]};  // 2 -> 0 is not a transition
  const auto bad = certifier.certify_path(jump);
  EXPECT_EQ(outcome(bad, "xcheck-edge[0]"), false) << bad.to_string();
}

TEST(CrossEngine, BrokenStepFailsBothEdgeChecks) {
  const RingModel r = make_ring();
  const certify::TraceCertifier certifier(*r.m);
  core::Trace t;
  t.prefix = {r.s[0], r.s[1], r.s[3], r.s[0]};  // 1 -> 3 is not a transition
  const auto cert = certifier.certify_path(t);
  for (const std::string check : {"edge", "xcheck-edge"}) {
    EXPECT_EQ(outcome(cert, check + "[0]"), true) << cert.to_string();
    EXPECT_EQ(outcome(cert, check + "[1]"), false) << cert.to_string();
    EXPECT_EQ(outcome(cert, check + "[2]"), true) << cert.to_string();
  }
}

// ---------------------------------------------------------------------------
// Mutation tests: each corruption rejected with the right obligation
// ---------------------------------------------------------------------------

TEST(TraceCertifierMutation, BrokenCycleEdgeNamesTheEdge) {
  const RingModel r = make_ring();
  const certify::TraceCertifier certifier(*r.m);
  core::Trace t;
  t.cycle = {r.s[0], r.s[1], r.s[3]};  // 1 -> 3 is not a transition
  expect_first_failure(certifier.certify_path(t), "edge[1]");
}

TEST(TraceCertifierMutation, UnclosedCycleNamesTheWrapEdge) {
  const RingModel r = make_ring();
  const certify::TraceCertifier certifier(*r.m);
  core::Trace t;
  t.cycle = {r.s[0], r.s[1], r.s[2]};  // 2 -> 0 is not a transition
  expect_first_failure(certifier.certify_path(t), "cycle-closed");
}

TEST(TraceCertifierMutation, DroppedFairnessVisitNamesTheConstraint) {
  const RingModel r = make_ring();
  const certify::TraceCertifier certifier(*r.m);
  core::Trace t;
  t.cycle = {r.s[0]};  // valid self-loop, but never visits state 2
  expect_first_failure(
      certifier.certify_eg(t, r.m->manager().one(), r.m->fairness()),
      "fairness[0]");
}

TEST(TraceCertifierMutation, WidenedMintermNamesTheEntry) {
  const RingModel r = make_ring();
  const certify::TraceCertifier certifier(*r.m);
  core::Trace t = ring_lasso(r);
  t.cycle[0] = r.s[1] | r.s[2];  // two states in one entry
  // Entry 1 of the combined list (prefix entry 0 is still a minterm).
  expect_first_failure(
      certifier.certify_eg(t, r.m->manager().one(), r.m->fairness()),
      "single-state[1]");
}

TEST(TraceCertifierMutation, SwappedPrefixAndCycleLosesTheFairVisit) {
  const RingModel r = make_ring();
  const certify::TraceCertifier certifier(*r.m);
  core::Trace good = ring_lasso(r);
  ASSERT_TRUE(certifier
                  .certify_eg(good, r.m->manager().one(), r.m->fairness())
                  .ok());
  core::Trace swapped;
  swapped.prefix = good.cycle;  // 1 2 3 0
  swapped.cycle = good.prefix;  // (0)^w -- edges still fine (self-loop),
                                // but the fair state 2 is now prefix-only
  expect_first_failure(
      certifier.certify_eg(swapped, r.m->manager().one(), r.m->fairness()),
      "fairness[0]");
}

TEST(TraceCertifierMutation, MissingEuTargetAndBrokenEuInvariant) {
  const RingModel r = make_ring();
  const certify::TraceCertifier certifier(*r.m);
  core::Trace t;
  t.prefix = {r.s[0], r.s[1]};
  expect_first_failure(
      certifier.certify_eu(t, r.m->manager().one(), r.s[3]), "eu-target");
  core::Trace u;
  u.prefix = {r.s[0], r.s[1], r.s[2], r.s[3]};
  expect_first_failure(certifier.certify_eu(u, !r.s[1], r.s[3]),
                       "eu-invariant[1]");
}

TEST(TraceCertifierMutation, ExNeedsLengthTwoAndTargetF) {
  const RingModel r = make_ring();
  const certify::TraceCertifier certifier(*r.m);
  core::Trace one_state;
  one_state.prefix = {r.s[0]};
  expect_first_failure(certifier.certify_ex(one_state, r.s[1]), "ex-length");
  core::Trace wrong_target;
  wrong_target.prefix = {r.s[0], r.s[1]};
  expect_first_failure(certifier.certify_ex(wrong_target, r.s[2]),
                       "ex-target");
}

TEST(TraceCertifierMutation, FragmentDutyViolationNamesTheConjunct) {
  const RingModel r = make_ring();
  const certify::TraceCertifier certifier(*r.m);
  const core::Trace t = ring_lasso(r);
  // Duty 0 (GF state-2) is met on the cycle; duty 1 (FG state-0) is not
  // (the cycle leaves state 0), and it has no GF fallback.
  const std::vector<certify::FragmentDuty> duties = {
      {r.s[2], bdd::Bdd()},
      {bdd::Bdd(), r.s[0]},
  };
  const auto cert = certifier.certify_fragment(t, duties);
  expect_first_failure(cert, "fragment[1]");
}

// ---------------------------------------------------------------------------
// require_certified and the auto-certify hooks
// ---------------------------------------------------------------------------

TEST(RequireCertified, ThrowsNamingTheFailedObligation) {
  const RingModel r = make_ring();
  const certify::TraceCertifier certifier(*r.m);
  core::Trace t;
  t.cycle = {r.s[0], r.s[1], r.s[3]};
  const auto cert = certifier.certify_path(t);
  try {
    certify::require_certified(cert, "unit-test");
    FAIL() << "expected CertificationError";
  } catch (const certify::CertificationError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unit-test"), std::string::npos) << what;
    EXPECT_NE(what.find("edge[1]"), std::string::npos) << what;
    EXPECT_FALSE(e.certificate().ok());
  }
}

TEST(AutoCertify, GeneratorsCertifyTheirOwnOutputWhenEnabled) {
  const EnabledGuard guard(true);
  const RingModel r = make_ring();
  core::Checker ck(*r.m);
  core::WitnessGenerator gen(ck);
  // Every generated witness passes its own certification (no throw).
  const core::Trace eg = gen.eg(r.m->manager().one(), r.m->init());
  EXPECT_TRUE(eg.is_lasso());
  const core::Trace eu =
      gen.eu(r.m->manager().one(), r.s[3], r.m->init());
  EXPECT_FALSE(eu.prefix.empty());
  const core::Trace ex = gen.ex(r.s[1], r.m->init());
  EXPECT_GE(ex.length(), 2u);
}

TEST(AutoCertify, InvariantCounterexamplesAreCertified) {
  const EnabledGuard guard(true);
  const RingModel r = make_ring();
  core::Checker ck(*r.m);
  const auto res = core::check_invariant(ck, !r.s[3]);
  EXPECT_FALSE(res.holds);
  ASSERT_TRUE(res.counterexample.has_value());
}

TEST(AutoCertify, ExplainerTracesAreCertified) {
  const EnabledGuard guard(true);
  auto m = models::peterson({.buggy = true});
  core::Checker ck(*m);
  core::Explainer explainer(ck);
  const auto out = explainer.explain("AG (try0 -> AF crit0)");
  EXPECT_FALSE(out.holds);
  ASSERT_TRUE(out.trace.has_value());
}

// ---------------------------------------------------------------------------
// Structural audits
// ---------------------------------------------------------------------------

TEST(ManagerAudit, PassesOnAWorkingManager) {
  bdd::Manager mgr(8);
  std::vector<bdd::Bdd> keep;
  for (std::uint32_t v = 0; v + 1 < 8; ++v) {
    keep.push_back(mgr.var(v) ^ !mgr.var(v + 1));
  }
  EXPECT_EQ(mgr.audit_check(), "");
  EXPECT_NO_THROW(mgr.audit());
  keep.resize(2);
  mgr.gc();  // gc() itself re-audits when audits are enabled
  EXPECT_EQ(mgr.audit_check(), "");
}

TEST(TransitionSystemAudit, PassesOnTheModelZoo) {
  const auto counter = models::counter({.width = 3});
  EXPECT_EQ(counter->audit_check(), "");
  EXPECT_NO_THROW(counter->audit());
  const auto peterson = models::peterson();
  EXPECT_EQ(peterson->audit_check(), "");
  const RingModel r = make_ring();
  EXPECT_EQ(r.m->audit_check(), "");
}

TEST(Audits, ToggleIsRestorable) {
  const bool prev = bdd::audits_enabled();
  bdd::set_audits_enabled(true);
  EXPECT_TRUE(bdd::audits_enabled());
  bdd::set_audits_enabled(false);
  EXPECT_FALSE(bdd::audits_enabled());
  bdd::set_audits_enabled(prev);
}

// ---------------------------------------------------------------------------
// Explicit-engine mutations (the shared-certifier contract)
// ---------------------------------------------------------------------------

TEST(ExplicitCertifier, MutationsAreRejectedWithTheRightObligation) {
  enumerative::Graph g;
  for (int i = 0; i < 4; ++i) g.add_state();
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  g.fairness.push_back({false, false, true, false});

  enumerative::FiniteWitness good;
  good.cycle = {0, 1, 2, 3};
  const enumerative::StateSet all(4, true);
  EXPECT_TRUE(certify::certify_explicit_eg(g, good, all).ok());

  enumerative::FiniteWitness broken = good;
  broken.cycle = {0, 1, 3};  // 1 -> 3 missing
  expect_first_failure(certify::certify_explicit_path(g, broken), "edge[1]");

  enumerative::FiniteWitness unclosed;
  unclosed.cycle = {0, 1, 2};  // 2 -> 0 missing
  expect_first_failure(certify::certify_explicit_path(g, unclosed),
                       "cycle-closed");

  enumerative::FiniteWitness bogus_id;
  bogus_id.prefix = {0, 9};
  expect_first_failure(certify::certify_explicit_path(g, bogus_id),
                       "state-ids");

  enumerative::StateSet target(4, false);
  target[3] = true;
  enumerative::FiniteWitness no_target;
  no_target.prefix = {0, 1};
  expect_first_failure(
      certify::certify_explicit_eu(g, no_target, all, target), "eu-target");
}

}  // namespace
}  // namespace symcex
