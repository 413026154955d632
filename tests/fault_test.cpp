// Deterministic fault-injection tests (src/guard/fault; DESIGN.md
// section 13): the spec grammar, countdown and site-matching semantics,
// probe suspension, and -- the point of the harness -- the kernel's
// recovery paths driven by injected failures: mk's GC-and-retry, the
// computed cache's failed growth, run_apply's recover-and-rethrow, and the
// reorder session teardown
// (abort_reorder_session / recover_after_abort) that PR 8's satellite
// regression pins down.

#include <stdexcept>

#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "guard/fault.hpp"
#include "guard/guard.hpp"
#include "ts/transition_system.hpp"

namespace symcex {
namespace {

using bdd::Bdd;
using bdd::Manager;
using guard::FaultEntry;
using guard::FaultInjector;
using guard::FaultKind;

struct FaultGuard {
  explicit FaultGuard(const std::string& spec) {
    FaultInjector::instance().configure(spec);
  }
  ~FaultGuard() { FaultInjector::instance().clear(); }
};

// ---------------------------------------------------------------------------
// Spec grammar.

TEST(FaultSpec, ParsesKindCountSiteAndLists) {
  const auto one = FaultInjector::parse_spec("alloc@137");
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].kind, FaultKind::kAlloc);
  EXPECT_EQ(one[0].site, "");
  EXPECT_EQ(one[0].countdown, 137u);

  const auto sited = FaultInjector::parse_spec("deadline@apply:500");
  ASSERT_EQ(sited.size(), 1u);
  EXPECT_EQ(sited[0].kind, FaultKind::kDeadline);
  EXPECT_EQ(sited[0].site, "apply");
  EXPECT_EQ(sited[0].countdown, 500u);

  // A bare site means countdown 1 (the first probe there fires).
  const auto bare = FaultInjector::parse_spec("io-short-write@persist-write");
  ASSERT_EQ(bare.size(), 1u);
  EXPECT_EQ(bare[0].kind, FaultKind::kIoShortWrite);
  EXPECT_EQ(bare[0].site, "persist-write");
  EXPECT_EQ(bare[0].countdown, 1u);

  const auto list = FaultInjector::parse_spec("alloc@mk:3,io-fail@2");
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].site, "mk");
  EXPECT_EQ(list[1].kind, FaultKind::kIoFail);
  EXPECT_EQ(list[1].countdown, 2u);

  EXPECT_TRUE(FaultInjector::parse_spec("").empty());
}

TEST(FaultSpec, MalformedEntriesAreRejected) {
  for (const char* bad : {"bogus@1", "alloc", "@3", "alloc@", "alloc@site:",
                          "alloc@site:zero", "alloc@mk:0", ",alloc@1"}) {
    EXPECT_THROW((void)FaultInjector::parse_spec(bad), std::invalid_argument)
        << bad;
  }
}

TEST(FaultSpec, KindNamesAreStable) {
  EXPECT_STREQ(guard::fault_kind_name(FaultKind::kAlloc), "alloc");
  EXPECT_STREQ(guard::fault_kind_name(FaultKind::kDeadline), "deadline");
  EXPECT_STREQ(guard::fault_kind_name(FaultKind::kIoShortWrite),
               "io-short-write");
  EXPECT_STREQ(guard::fault_kind_name(FaultKind::kIoFail), "io-fail");
}

// ---------------------------------------------------------------------------
// Probe semantics.

TEST(FaultProbe, CountdownFiresOnceThenDisarms) {
  FaultGuard fault("alloc@3");
  FaultInjector& inj = FaultInjector::instance();
  EXPECT_EQ(inj.armed_entries(), 1u);
  EXPECT_FALSE(guard::fault_fire(FaultKind::kAlloc, "mk"));
  EXPECT_FALSE(guard::fault_fire(FaultKind::kAlloc, "cache"));
  EXPECT_TRUE(guard::fault_fire(FaultKind::kAlloc, "table"));
  // Consumed: the fourth probe (and all later ones) pass.
  EXPECT_FALSE(guard::fault_fire(FaultKind::kAlloc, "mk"));
  EXPECT_EQ(inj.armed_entries(), 0u);
}

TEST(FaultProbe, SiteKeyedEntryIgnoresOtherSites) {
  FaultGuard fault("deadline@eu:2");
  EXPECT_FALSE(guard::fault_fire(FaultKind::kDeadline, "eu"));
  EXPECT_FALSE(guard::fault_fire(FaultKind::kDeadline, "eg"));
  EXPECT_FALSE(guard::fault_fire(FaultKind::kDeadline, "reachable"));
  EXPECT_TRUE(guard::fault_fire(FaultKind::kDeadline, "eu"));
}

TEST(FaultProbe, KindsDoNotCrossMatch) {
  FaultGuard fault("alloc@1");
  EXPECT_FALSE(guard::fault_fire(FaultKind::kDeadline, "mk"));
  EXPECT_FALSE(guard::fault_fire(FaultKind::kIoFail, "persist-read"));
  EXPECT_TRUE(guard::fault_fire(FaultKind::kAlloc, "mk"));
}

TEST(FaultProbe, SuspendShieldsRecoveryCode) {
  FaultGuard fault("alloc@1");
  {
    FaultInjector::Suspend shield;
    // Probes under suspension neither fire nor consume the countdown.
    EXPECT_FALSE(guard::fault_fire(FaultKind::kAlloc, "mk"));
    EXPECT_FALSE(guard::fault_fire(FaultKind::kAlloc, "mk"));
    {
      FaultInjector::Suspend nested;
      EXPECT_FALSE(guard::fault_fire(FaultKind::kAlloc, "mk"));
    }
    EXPECT_FALSE(guard::fault_fire(FaultKind::kAlloc, "mk"));
  }
  EXPECT_TRUE(guard::fault_fire(FaultKind::kAlloc, "mk"));
}

TEST(FaultProbe, UnarmedProbesAreFree) {
  FaultInjector::instance().clear();
  // No entries armed: the inline fast path never reaches the injector.
  EXPECT_FALSE(guard::fault_fire(FaultKind::kAlloc, "mk"));
  EXPECT_FALSE(guard::fault_fire(FaultKind::kIoShortWrite, "persist-write"));
}

// ---------------------------------------------------------------------------
// Kernel recovery paths under injected faults.

TEST(FaultKernel, MkAllocFaultIsAbsorbedByGcAndRetry) {
  Manager m(6);
  // Materialize the variable nodes first: var() allocates through mk but
  // outside run_apply's retry protocol, and the fault must land inside a
  // kernel where GC-and-retry can absorb it.
  const Bdd a = m.var(0), b = m.var(1), c = m.var(2), d = m.var(3);
  const std::size_t retries_before = m.stats().exhaust_retries;
  FaultGuard fault("alloc@mk:1");
  // The next fresh node allocation fails; run_apply's GC-and-retry-once
  // protocol absorbs it and the operation succeeds.
  const Bdd f = (a & b) | (c & d);
  EXPECT_FALSE(f.is_null());
  EXPECT_GE(m.stats().exhaust_retries, retries_before + 1);
  EXPECT_GE(m.stats().alloc_failures, 1u);
  EXPECT_EQ(m.audit_check(), "");
  // The result is the right function, not a salvaged wrong one.
  EXPECT_EQ(f, (m.var(0) & m.var(1)) | (m.var(2) & m.var(3)));
}

TEST(FaultKernel, CacheGrowthFaultKeepsTheTableAndTheResults) {
  // x_i <-> y_i with every x above every y needs about 3 * 2^13 nodes, so
  // the computed cache doubles four times (2^12 -> 2^16) mid-kernel.
  constexpr std::uint32_t kPairs = 13;
  const auto build = [](Manager& m) {
    // The bad order and all of its nodes, whatever SYMCEX_REORDER or
    // SYMCEX_NODE_LIMIT say.
    m.set_auto_reorder(false);
    m.clear_budget();
    Bdd acc = m.one();
    for (std::uint32_t i = 0; i < kPairs; ++i) {
      acc &= !(m.var(i) ^ m.var(kPairs + i));
    }
    return acc;
  };
  Manager clean(2 * kPairs);
  const Bdd expected = build(clean);
  ASSERT_EQ(clean.stats().cache_growths, 4u);

  Manager m(2 * kPairs);
  Bdd got;
  {
    // The second growth fails: mk keeps the current table and goes on;
    // nothing throws, so run_apply never needs its retry.
    FaultGuard fault("alloc@cache:2");
    got = build(m);
    EXPECT_EQ(FaultInjector::instance().armed_entries(), 0u);
  }
  EXPECT_EQ(m.stats().alloc_failures, 1u);
  EXPECT_EQ(m.stats().exhaust_retries, 0u);
  EXPECT_EQ(m.audit_check(), "");
  EXPECT_EQ(got.dag_size(), expected.dag_size());
  EXPECT_EQ(got.sat_count(2 * kPairs), expected.sat_count(2 * kPairs));
  // Both managers number variables alike: compare on sample assignments.
  for (std::uint32_t bits = 0; bits < (1u << kPairs); bits += 37) {
    std::vector<bool> a(2 * kPairs);
    for (std::uint32_t v = 0; v < kPairs; ++v) {
      a[v] = ((bits >> v) & 1) != 0;
      a[kPairs + v] = v == bits % kPairs ? !a[v] : a[v];
    }
    EXPECT_EQ(got.eval(a), expected.eval(a));
    a[kPairs + bits % kPairs] = a[bits % kPairs];
    EXPECT_EQ(got.eval(a), expected.eval(a));
  }
}

TEST(FaultKernel, ApplyDeadlineFaultRecoversAndRethrows) {
  Manager m(4);
  const Bdd a = m.var(0);
  const Bdd b = m.var(1);
  {
    FaultGuard fault("deadline@apply:1");
    EXPECT_THROW((void)(a & b), guard::DeadlineExceeded);
  }
  // recover_after_abort ran: audit-clean, and the retried op is correct.
  EXPECT_EQ(m.audit_check(), "");
  EXPECT_EQ((a & b), (b & a));
}

TEST(FaultKernel, FixpointSiteInterruptsReachability) {
  ts::TransitionSystem sys;
  for (int v = 0; v < 4; ++v) sys.add_var("x" + std::to_string(v));
  sys.set_init(!sys.cur(0) & !sys.cur(1) & !sys.cur(2) & !sys.cur(3));
  // A 4-bit ripple counter: reachability takes 16 iterations.
  Bdd carry = sys.manager().one();
  for (int v = 0; v < 4; ++v) {
    sys.add_trans(!(sys.next(v) ^ (sys.cur(v) ^ carry)));
    carry &= sys.cur(v);
  }
  sys.finalize();
  {
    FaultGuard fault("deadline@reachable:3");
    EXPECT_THROW((void)sys.reachable(), guard::DeadlineExceeded);
  }
  EXPECT_EQ(sys.manager().audit_check(), "");
  // The interrupted fixpoint left a resumable frontier behind...
  const auto& salvaged = sys.manager().salvaged_frontiers();
  ASSERT_EQ(salvaged.size(), 1u);
  EXPECT_EQ(salvaged[0].loop, "reachable");
  EXPECT_FALSE(salvaged[0].z.is_null());
  EXPECT_EQ(salvaged[0].rings.size(), 1u);
  // ...and the clean rerun still converges to all 16 states.
  const Bdd reached = sys.reachable();
  EXPECT_EQ(reached, sys.manager().one());
}

// ---------------------------------------------------------------------------
// The satellite regression: a fault injected inside a reorder session
// must tear the session down (abort_reorder_session restores the best
// order seen), leave the manager audit-clean, and keep every handle
// pointing at its function.

TEST(FaultReorder, AbortMidSiftRestoresOrderAndStaysAuditClean) {
  Manager m(8);
  // (x0&x4) | (x1&x5) | (x2&x6) | (x3&x7): the classic order-sensitive
  // function -- sifting has both work to do and gains to find.
  Bdd f = m.zero();
  for (std::uint32_t v = 0; v < 4; ++v) {
    f |= m.var(v) & m.var(v + 4);
  }
  const std::size_t live_before = m.stats().live_nodes;

  {
    FaultGuard fault("deadline@swap:2");
    EXPECT_THROW((void)m.reorder(), guard::DeadlineExceeded);
  }
  // The session did not leak: closed, audit-clean, refcounts exact.
  EXPECT_FALSE(m.in_reorder_session());
  EXPECT_EQ(m.audit_check(), "");
  EXPECT_GE(m.stats().budget_aborts, 1u);

  // Handles still denote their functions (indices survive reorders):
  // rebuilding the function lands on the same node.
  Bdd g = m.zero();
  for (std::uint32_t v = 0; v < 4; ++v) {
    g |= m.var(v) & m.var(v + 4);
  }
  EXPECT_EQ(f, g);

  // The manager is fully operational: a clean sift now succeeds and
  // shrinks (or at least does not grow) the table.
  EXPECT_TRUE(m.reorder());
  EXPECT_EQ(m.audit_check(), "");
  EXPECT_LE(m.stats().live_nodes, live_before);
  EXPECT_EQ(f, g);
}

TEST(FaultReorder, AllocAbortMidSiftAlsoTearsDown) {
  Manager m(8);
  Bdd f = m.zero();
  for (std::uint32_t v = 0; v < 4; ++v) {
    f |= m.var(v) & m.var(v + 4);
  }
  {
    FaultGuard fault("alloc@swap:1");
    EXPECT_THROW((void)m.reorder(), guard::AllocationFailed);
  }
  EXPECT_FALSE(m.in_reorder_session());
  EXPECT_EQ(m.audit_check(), "");
  Bdd g = m.zero();
  for (std::uint32_t v = 0; v < 4; ++v) {
    g |= m.var(v) & m.var(v + 4);
  }
  EXPECT_EQ(f, g);
}

TEST(FaultReorder, GroupedPairsSurviveAnAbortedSift) {
  Manager m(8);
  for (std::uint32_t v = 0; v < 8; v += 2) m.group_vars({v, v + 1});
  Bdd f = m.zero();
  for (std::uint32_t v = 0; v < 4; ++v) {
    f |= m.var(v) & m.var(v + 4);
  }
  {
    FaultGuard fault("deadline@swap:3");
    EXPECT_THROW((void)m.reorder(), guard::DeadlineExceeded);
  }
  EXPECT_EQ(m.audit_check(), "");
  // Groups stay adjacent through the abort-and-restore.
  for (std::uint32_t v = 0; v < 8; v += 2) {
    const auto d = static_cast<std::int64_t>(m.level_of_var(v)) -
                   static_cast<std::int64_t>(m.level_of_var(v + 1));
    EXPECT_TRUE(d == 1 || d == -1) << "pair " << v;
  }
}

}  // namespace
}  // namespace symcex
