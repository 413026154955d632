// Tests for the resource-governance layer (src/guard) and its enforcement
// inside the BDD manager: the SYMCEX_* configuration parser, budgets,
// ambient scopes, the exhaustion exception hierarchy, cooperative
// checkpoints, soft-GC, and the audit-clean-after-abort /
// rerun-after-raise guarantees.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "guard/config.hpp"
#include "guard/guard.hpp"

namespace symcex::guard {
namespace {

TEST(ResourceBudget, DefaultsAndPredicates) {
  const ResourceBudget b;
  EXPECT_FALSE(b.limits_nodes());
  EXPECT_FALSE(b.limits_memory());
  EXPECT_FALSE(b.limits_time());
  EXPECT_FALSE(b.limits_iterations());
  // The depth guard is on even in a default budget.
  EXPECT_EQ(b.max_recursion_depth, 100'000u);
  EXPECT_EQ(ResourceBudget::unlimited().max_recursion_depth, 0u);
}

TEST(ResourceBudget, SoftLimitResolution) {
  ResourceBudget b;
  EXPECT_EQ(b.effective_soft_node_limit(), 0u);  // nothing limited
  b.max_live_nodes = 800;
  EXPECT_EQ(b.effective_soft_node_limit(), 700u);  // auto: 7/8 of hard
  b.soft_node_limit = 100;
  EXPECT_EQ(b.effective_soft_node_limit(), 100u);  // explicit soft wins
  b.soft_node_limit = 9000;  // nonsense (above hard): back to auto
  EXPECT_EQ(b.effective_soft_node_limit(), 700u);
  // A lone soft limit (no hard cap) is honoured as-is.
  ResourceBudget soft_only;
  soft_only.soft_node_limit = 64;
  EXPECT_EQ(soft_only.effective_soft_node_limit(), 64u);
}

/// config::parse over a fixed set of variables instead of the environment.
config::Config parse_vars(const std::map<std::string, std::string>& vars) {
  return config::parse([&vars](const char* name) -> const char* {
    const auto it = vars.find(name);
    return it == vars.end() ? nullptr : it->second.c_str();
  });
}

TEST(ResourceBudget, FromEnvReadsTheToggles) {
  const ResourceBudget b = parse_vars({{"SYMCEX_NODE_LIMIT", "1234"},
                                       {"SYMCEX_MEMORY_LIMIT_MB", "2"},
                                       {"SYMCEX_DEADLINE_MS", "5678"},
                                       {"SYMCEX_MAX_ITERATIONS", "9"},
                                       {"SYMCEX_MAX_DEPTH", "4444"}})
                               .budget;
  EXPECT_EQ(b.max_live_nodes, 1234u);
  EXPECT_EQ(b.max_memory_bytes, 2u * 1024 * 1024);
  EXPECT_EQ(b.deadline_ms, 5678u);
  EXPECT_EQ(b.max_fixpoint_iterations, 9u);
  EXPECT_EQ(b.max_recursion_depth, 4444u);
}

TEST(ResourceBudget, FromEnvIgnoresGarbage) {
  testing::internal::CaptureStderr();
  const ResourceBudget b = parse_vars({{"SYMCEX_NODE_LIMIT", "not-a-number"},
                                       {"SYMCEX_MAX_DEPTH", ""}})
                               .budget;
  (void)testing::internal::GetCapturedStderr();
  EXPECT_EQ(b.max_live_nodes, 0u);
  EXPECT_EQ(b.max_recursion_depth, 100'000u);  // default kept
}

/// One SYMCEX_* variable: its Config field as gtest prints it, the
/// field's default, a good value with the field it parses to, and a bad
/// value (kept at the default), or "" where every value is good.
struct VariableCase {
  const char* name;
  std::function<std::string(const config::Config&)> field;
  const char* default_value;
  const char* good;
  const char* good_value;
  const char* bad;
};

#define FIELD(m) \
  [](const config::Config& c) { return testing::PrintToString(c.m); }

const VariableCase kVariables[] = {
    {"SYMCEX_CARE_SET", FIELD(care_set), "false", "on", "true", "maybe"},
    {"SYMCEX_COI", FIELD(coi), "false", "true", "true", "enabled"},
    {"SYMCEX_REORDER", FIELD(reorder), "false", "yes", "true", "-1"},
    {"SYMCEX_FOLD_CONST", FIELD(fold_constants), "false", "1", "true", "2"},
    {"SYMCEX_CLUSTER_THRESHOLD", FIELD(cluster_threshold), "4096", "0", "0",
     "4k"},
    {"SYMCEX_CERTIFY", FIELD(certify), "false", "1", "true", "certify"},
    {"SYMCEX_AUDIT", FIELD(audit), "false", "on", "true", "onn"},
    {"SYMCEX_NODE_LIMIT", FIELD(budget.max_live_nodes), "0", "8192", "8192",
     "-5"},
    {"SYMCEX_MEMORY_LIMIT_MB", FIELD(budget.max_memory_bytes), "0", "2",
     "2097152", "1.5"},
    {"SYMCEX_DEADLINE_MS", FIELD(budget.deadline_ms), "0", "5678", "5678",
     "99999999999999999999999"},
    {"SYMCEX_MAX_ITERATIONS", FIELD(budget.max_fixpoint_iterations), "0", "9",
     "9", "nine"},
    {"SYMCEX_MAX_DEPTH", FIELD(budget.max_recursion_depth), "100000", "0", "0",
     "1e5"},
    {"SYMCEX_CHECKPOINT_MARGIN_MS", FIELD(budget.checkpoint_margin_ms), "0",
     "600000", "600000", "0x10"},
    {"SYMCEX_CHECKPOINT_DIR", FIELD(checkpoint_dir), "\"\"", "ck", "\"ck\"",
     ""},
    {"SYMCEX_EVIDENCE_DIR", FIELD(evidence_dir), "\"\"", "ev", "\"ev\"", ""},
    {"SYMCEX_FAULT_SPEC", FIELD(fault_spec), "\"\"", "alloc@mk:50",
     "\"alloc@mk:50\"", "alloc@0"},
    {"SYMCEX_STATS", FIELD(stats), "false", "yes", "true", "enable"},
};

#undef FIELD

TEST(ConfigTest, EveryVariableHasADefaultAGoodAndABadValue) {
  ASSERT_EQ(std::size(kVariables), 17u);
  for (const VariableCase& v : kVariables) {
    SCOPED_TRACE(v.name);
    EXPECT_EQ(v.field(config::Config{}), v.default_value);
    EXPECT_EQ(v.field(parse_vars({})), v.default_value);
    EXPECT_EQ(v.field(parse_vars({{v.name, ""}})), v.default_value);
    EXPECT_EQ(v.field(parse_vars({{v.name, v.good}})), v.good_value);

    testing::internal::CaptureStderr();
    const config::Config bad = parse_vars({{v.name, v.bad}});
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(v.field(bad), v.default_value);
    // A rejected value costs one stderr line, naming the variable.
    const std::ptrdiff_t lines = *v.bad == '\0' ? 0 : 1;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), lines) << err;
    EXPECT_EQ(err.find(v.name) != std::string::npos, lines == 1) << err;
  }
}

TEST(ConfigTest, FlagsTakeOnlyTheNamedWords) {
  for (const char* on : {"1", "true", "on", "yes"}) {
    EXPECT_TRUE(parse_vars({{"SYMCEX_STATS", on}}).stats) << on;
  }
  for (const char* off : {"0", "false", "off", "no"}) {
    EXPECT_FALSE(parse_vars({{"SYMCEX_COI", off}}).coi) << off;
  }
}

TEST(ConfigTest, MemoryLimitSaturatesInsteadOfWrapping) {
  // 2^44 + 1 MB is 2^64 + 2^20 bytes: the product used to wrap to 1 MiB.
  const ResourceBudget b =
      parse_vars({{"SYMCEX_MEMORY_LIMIT_MB", "17592186044417"}}).budget;
  EXPECT_EQ(b.max_memory_bytes, std::numeric_limits<std::size_t>::max());
}

TEST(ConfigTest, InstallIsWhatCurrentReturns) {
  const config::Config saved = config::current();
  config::Config edited = saved;
  edited.cluster_threshold = 17;
  edited.budget.max_live_nodes = 4321;
  config::install(edited);
  EXPECT_EQ(config::current().cluster_threshold, 17u);
  EXPECT_EQ(ScopedBudget::current().max_live_nodes, 4321u);
  config::install(saved);
  EXPECT_EQ(config::current().cluster_threshold, saved.cluster_threshold);
}

TEST(Exceptions, HierarchyCarriesResourceAndSpent) {
  BudgetSpent spent;
  spent.live_nodes = 42;
  spent.iterations = 7;
  try {
    throw NodeLimitExceeded("out of nodes", spent);
  } catch (const ResourceExhausted& e) {  // catchable via the base
    EXPECT_EQ(e.resource(), Resource::kNodes);
    EXPECT_EQ(e.spent().live_nodes, 42u);
    EXPECT_EQ(e.spent().iterations, 7u);
    EXPECT_STREQ(e.what(), "out of nodes");
  }
  EXPECT_EQ(MemoryLimitExceeded("", {}).resource(), Resource::kMemory);
  EXPECT_EQ(DeadlineExceeded("", {}).resource(), Resource::kTime);
  EXPECT_EQ(IterationLimitExceeded("", {}).resource(), Resource::kIterations);
  EXPECT_EQ(DepthLimitExceeded("", {}).resource(), Resource::kDepth);
  EXPECT_EQ(AllocationFailed("", {}).resource(), Resource::kAllocation);
  // And it is a std::runtime_error, so generic handlers still see it.
  EXPECT_THROW(throw DeadlineExceeded("late", {}), std::runtime_error);
}

TEST(Exceptions, ResourceNamesAreStable) {
  EXPECT_STREQ(resource_name(Resource::kNodes), "nodes");
  EXPECT_STREQ(resource_name(Resource::kMemory), "memory");
  EXPECT_STREQ(resource_name(Resource::kTime), "time");
  EXPECT_STREQ(resource_name(Resource::kIterations), "iterations");
  EXPECT_STREQ(resource_name(Resource::kDepth), "depth");
  EXPECT_STREQ(resource_name(Resource::kAllocation), "allocation");
}

TEST(BudgetSpentTest, ToStringMentionsEveryField) {
  BudgetSpent spent;
  spent.live_nodes = 5;
  spent.elapsed_ms = 17;
  const std::string s = spent.to_string();
  EXPECT_NE(s.find("live_nodes=5"), std::string::npos);
  EXPECT_NE(s.find("elapsed_ms=17"), std::string::npos);
  EXPECT_NE(s.find("soft_gc_runs"), std::string::npos);
}

TEST(ScopedBudgetTest, InnermostScopeWins) {
  ResourceBudget outer;
  outer.max_live_nodes = 100;
  const ScopedBudget a(outer);
  EXPECT_EQ(ScopedBudget::current().max_live_nodes, 100u);
  {
    ResourceBudget inner;
    inner.max_live_nodes = 50;
    const ScopedBudget b(inner);
    EXPECT_EQ(ScopedBudget::current().max_live_nodes, 50u);
  }
  EXPECT_EQ(ScopedBudget::current().max_live_nodes, 100u);
}

TEST(ScopedBudgetTest, NewManagersPickUpTheAmbientBudget) {
  ResourceBudget ambient;
  ambient.max_live_nodes = 512;
  ambient.max_fixpoint_iterations = 3;
  const ScopedBudget scope(ambient);
  const bdd::Manager m{4};
  EXPECT_EQ(m.budget().max_live_nodes, 512u);
  EXPECT_EQ(m.budget().max_fixpoint_iterations, 3u);
}

// ---------------------------------------------------------------------------
// Enforcement inside the BDD manager
// ---------------------------------------------------------------------------

TEST(ManagerBudget, DepthLimitThrowsRecoverablyAndUnwindsClean) {
  bdd::Manager m{16};
  bdd::Bdd cube = m.one();
  for (std::uint32_t v = 0; v < 16; ++v) cube &= m.var(v);

  ResourceBudget tight;
  tight.max_recursion_depth = 4;  // the 16-deep NOT recursion must trip it
  m.install_budget(tight);
  EXPECT_THROW((void)(!cube), DepthLimitExceeded);
  EXPECT_GE(m.stats().budget_aborts, 1u);
  // The defining guarantee: the refcount census balances right after the
  // mid-kernel throw.
  EXPECT_EQ(m.audit_check(), "");

  // Raising the budget on the same manager makes the same query succeed.
  m.clear_budget();
  const bdd::Bdd n = !cube;
  EXPECT_EQ(!n, cube);
  EXPECT_EQ(m.audit_check(), "");
}

TEST(ManagerBudget, NodeLimitThrowsThenRaisedBudgetRerunSucceeds) {
  bdd::Manager m{20};
  ResourceBudget tight;
  // The 20-variable parity function needs ~2 nodes per level; a ceiling
  // a hair above the baseline cannot fit it even after GC retries.
  tight.max_live_nodes = m.stats().live_nodes + 8;
  m.install_budget(tight);
  EXPECT_THROW(
      {
        bdd::Bdd parity = m.zero();
        for (std::uint32_t v = 0; v < 20; ++v) parity ^= m.var(v);
      },
      NodeLimitExceeded);
  EXPECT_GE(m.stats().node_limit_hits, 1u);
  EXPECT_EQ(m.audit_check(), "");

  m.clear_budget();
  bdd::Bdd parity = m.zero();
  for (std::uint32_t v = 0; v < 20; ++v) parity ^= m.var(v);
  // Odd-weight assignments: half of 2^20.
  EXPECT_EQ(parity.sat_count(20), static_cast<double>(1u << 19));
  EXPECT_EQ(m.audit_check(), "");
}

TEST(ManagerBudget, SoftLimitForcesGcInsteadOfFailing) {
  bdd::Manager m{12};
  ResourceBudget soft;
  soft.soft_node_limit = m.stats().live_nodes + 8;  // no hard ceiling
  m.install_budget(soft);
  // Garbage-heavy workload: every iteration drops its intermediates.
  for (int round = 0; round < 16; ++round) {
    bdd::Bdd f = m.zero();
    for (std::uint32_t v = 0; v + 1 < 12; ++v) {
      f |= m.var(v) & !m.var(v + 1);
    }
    EXPECT_FALSE(f.is_false());
  }
  EXPECT_GE(m.stats().soft_gc_runs, 1u);  // degraded gracefully, no throw
  EXPECT_EQ(m.audit_check(), "");
}

TEST(ManagerBudget, DeadlineAbortsApplyAndCheckpoint) {
  bdd::Manager m{8};
  ResourceBudget b;
  b.deadline_ms = 1;
  m.install_budget(b);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // Top-level applies poll the deadline on entry, so even a tiny op trips.
  EXPECT_THROW((void)(m.var(0) & m.var(1)), DeadlineExceeded);
  EXPECT_THROW(m.checkpoint("test-caller"), DeadlineExceeded);
  EXPECT_EQ(m.audit_check(), "");
  // Installing a fresh budget restarts the clock.
  m.clear_budget();
  EXPECT_NO_THROW(m.checkpoint("test-caller"));
  EXPECT_EQ((m.var(0) & m.var(1)).sat_count(2), 1.0);
}

TEST(ManagerBudget, HugeDeadlineSaturatesInsteadOfExpiring) {
  // 18446744073709 ms is just above 2^64 ns: the nanosecond deadline used
  // to wrap to a moment already past, so the first poll threw.
  for (const std::uint64_t ms :
       {std::uint64_t{18446744073709}, std::numeric_limits<std::uint64_t>::max()}) {
    bdd::Manager m{8};
    ResourceBudget b;
    b.deadline_ms = ms;
    m.install_budget(b);
    EXPECT_NO_THROW(m.checkpoint("test-caller")) << ms;
    EXPECT_EQ((m.var(0) & m.var(1)).sat_count(2), 1.0) << ms;
  }
}

TEST(ManagerBudget, HugeCheckpointMarginSaturatesAndFires) {
  ResourceBudget b;
  b.deadline_ms = 600000;
  EXPECT_EQ(b.effective_checkpoint_margin_ms(), 75000u);  // auto: 1/8
  // A margin of 2^64 / 10^6 + 1 ms used to wrap to a tiny margin that
  // never fired; saturated, it covers the whole deadline.
  b.checkpoint_margin_ms = 18446744073710;
  EXPECT_EQ(b.effective_checkpoint_margin_ms(), 18446744073710u);
  bdd::Manager m{4};
  m.install_budget(b);
  int fired = 0;
  const ScopedCheckpointHook hook([&fired] { ++fired; });
  m.checkpoint("test-caller");
  EXPECT_EQ(fired, 1);
}

TEST(ManagerBudget, MemoryCeilingFiresAtCheckpoints) {
  bdd::Manager m{8};
  ResourceBudget b;
  b.max_memory_bytes = 1;  // below any real manager footprint
  m.install_budget(b);
  EXPECT_GT(m.memory_bytes(), 1u);
  try {
    m.checkpoint("mem-test");
    FAIL() << "expected MemoryLimitExceeded";
  } catch (const MemoryLimitExceeded& e) {
    EXPECT_EQ(e.resource(), Resource::kMemory);
    EXPECT_NE(std::string(e.what()).find("mem-test"), std::string::npos);
    EXPECT_GT(e.spent().memory_bytes, 1u);
  }
  m.clear_budget();
  EXPECT_NO_THROW(m.checkpoint("mem-test"));
}

TEST(ManagerBudget, BudgetSpentSnapshotsTheManager) {
  bdd::Manager m{6};
  const BudgetSpent spent = m.budget_spent();
  EXPECT_EQ(spent.live_nodes, m.stats().live_nodes);
  EXPECT_EQ(spent.peak_nodes, m.stats().peak_nodes);
  EXPECT_EQ(spent.memory_bytes, m.memory_bytes());
  EXPECT_EQ(spent.depth, 0u);  // no kernel is running
}

TEST(FixpointGuardTest, TicksUpToTheCapThenThrowsWithCount) {
  bdd::Manager m{4};
  ResourceBudget b;
  b.max_fixpoint_iterations = 3;
  m.install_budget(b);
  bdd::FixpointGuard fixpoint_guard(m, "test-loop");
  EXPECT_NO_THROW(fixpoint_guard.tick());
  EXPECT_NO_THROW(fixpoint_guard.tick());
  EXPECT_NO_THROW(fixpoint_guard.tick());
  EXPECT_EQ(fixpoint_guard.iterations(), 3u);
  try {
    fixpoint_guard.tick();
    FAIL() << "expected IterationLimitExceeded";
  } catch (const IterationLimitExceeded& e) {
    EXPECT_EQ(e.resource(), Resource::kIterations);
    EXPECT_EQ(e.spent().iterations, 4u);
    EXPECT_NE(std::string(e.what()).find("test-loop"), std::string::npos);
  }
}

TEST(FixpointGuardTest, UnlimitedBudgetNeverTrips) {
  bdd::Manager m{4};
  bdd::FixpointGuard fixpoint_guard(m, "free-loop");
  for (int i = 0; i < 1000; ++i) EXPECT_NO_THROW(fixpoint_guard.tick());
  EXPECT_EQ(fixpoint_guard.iterations(), 1000u);
}

// A resumable guard's record: live while the loop runs, salvaged when it
// unwinds, and taken back by the next guard with the same name and
// operands, which continues the iteration numbering.
TEST(FixpointGuardTest, ResumableRecordIsLiveThenSalvagedThenResumed) {
  bdd::Manager m{4};
  const bdd::Bdd op = m.var(0);
  const bdd::Bdd z1 = m.var(1);
  const bdd::Bdd z2 = m.var(2);
  std::vector<bdd::Bdd> rings{z1};
  try {
    bdd::FixpointGuard loop(m, "loop", {op}, &rings);
    EXPECT_EQ(loop.resumed(), nullptr);
    EXPECT_TRUE(m.live_frontiers().empty());  // nothing completed yet
    loop.tick(z1);
    rings.push_back(z2);
    loop.tick(z2);
    const std::vector<bdd::Frontier> live = m.live_frontiers();
    EXPECT_EQ(live.size(), 1u);
    EXPECT_EQ(live[0].loop, "loop");
    EXPECT_EQ(live[0].z, z2);
    EXPECT_EQ(live[0].iteration, 1u);
    EXPECT_EQ(live[0].rings, rings);
    throw std::runtime_error("abort");
  } catch (const std::runtime_error&) {
  }
  EXPECT_TRUE(m.live_frontiers().empty());
  ASSERT_EQ(m.salvaged_frontiers().size(), 1u);
  const bdd::Frontier salvaged = m.salvaged_frontiers()[0];
  EXPECT_EQ(salvaged.z, z2);
  EXPECT_EQ(salvaged.rings, rings);

  // A loop that completes normally leaves nothing behind.
  {
    bdd::FixpointGuard done(m, "loop", {op});
    done.tick(z1);
  }
  EXPECT_EQ(m.salvaged_frontiers().size(), 1u);

  m.clear_salvaged_frontiers();
  m.stage_frontiers({salvaged});
  {
    // Different operands: no match.
    bdd::FixpointGuard other(m, "loop", {z1});
    EXPECT_EQ(other.resumed(), nullptr);
  }
  bdd::FixpointGuard again(m, "loop", {op});
  ASSERT_NE(again.resumed(), nullptr);
  EXPECT_EQ(again.resumed()->z, z2);
  again.tick(z2);
  EXPECT_EQ(m.live_frontiers().at(0).iteration, 1u);
  again.tick(z2);
  EXPECT_EQ(m.live_frontiers().at(0).iteration, 2u);
}

}  // namespace
}  // namespace symcex::guard
