// SymCeX -- resource governance.
//
// A production checker cannot crash or hang when a query blows up: BDD
// state explosion is the paper's central adversary, and an unbounded run
// ends in OOM or a wall-clock timeout imposed from outside, both of which
// lose the work and (worse) the manager.  This layer gives every run an
// explicit ResourceBudget -- live-node ceiling, peak-memory ceiling,
// wall-clock deadline, fixpoint-iteration cap, recursion-depth cap -- and
// a recoverable ResourceExhausted exception hierarchy the BDD kernels and
// fixpoint loops raise at cooperative checkpoints.
//
// Design rules:
//
//   * guard sits BELOW the bdd package (no bdd dependency), so budgets and
//     exceptions can thread through every layer without cycles;
//   * exhaustion is graceful: a soft node limit triggers GC + computed
//     cache flush and a retry before the hard limit throws, and a throw
//     unwinds exception-safely (Manager::audit() passes immediately after);
//   * exhaustion is recoverable: rerunning the same query on the same
//     manager with a raised budget must succeed.
//
// Budgets install on a bdd::Manager directly (install_budget) or
// ambiently via ScopedBudget, which newly constructed managers -- e.g.
// the private product manager inside automata::check_containment --
// pick up automatically.  With no ambient budget, the configured one
// applies (config::current().budget: SYMCEX_NODE_LIMIT, ...).

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

namespace symcex::guard {

/// a * b, or UINT64_MAX when the product does not fit.
[[nodiscard]] inline std::uint64_t saturating_mul(std::uint64_t a,
                                                  std::uint64_t b) {
  std::uint64_t product = 0;
  return __builtin_mul_overflow(a, b, &product) ? UINT64_MAX : product;
}

/// a + b, or UINT64_MAX when the sum does not fit.
[[nodiscard]] inline std::uint64_t saturating_add(std::uint64_t a,
                                                  std::uint64_t b) {
  std::uint64_t sum = 0;
  return __builtin_add_overflow(a, b, &sum) ? UINT64_MAX : sum;
}

/// Which budgeted resource ran out.
enum class Resource {
  kNodes,       ///< live BDD node ceiling
  kMemory,      ///< manager heap-byte ceiling
  kTime,        ///< wall-clock deadline
  kIterations,  ///< fixpoint iteration cap
  kDepth,       ///< recursion depth cap
  kAllocation,  ///< the allocator itself failed (std::bad_alloc)
};

/// Short stable name of a resource ("nodes", "time", ...).
[[nodiscard]] const char* resource_name(Resource r);

/// Snapshot of consumption at the moment a budget check fired.  Carried
/// by every ResourceExhausted and surfaced in core::CheckOutcome so a
/// caller can decide how much to raise the budget by.
struct BudgetSpent {
  std::size_t live_nodes = 0;    ///< live BDD nodes at the abort
  std::size_t peak_nodes = 0;    ///< high-water mark of live nodes
  std::size_t memory_bytes = 0;  ///< manager heap bytes at the abort
  std::uint64_t elapsed_ms = 0;  ///< wall time since the budget installed
  std::size_t iterations = 0;    ///< iterations of the aborted loop (0 if
                                 ///< the abort was not inside a loop)
  std::size_t depth = 0;         ///< kernel recursion depth at the abort
  std::size_t soft_gc_runs = 0;  ///< GCs the soft node limit forced
  std::size_t reorder_swaps = 0;  ///< adjacent-level swaps by dynamic
                                  ///< variable reordering (src/order)

  [[nodiscard]] std::string to_string() const;
};

/// A resource budget.  Zero means "unlimited" for every field except
/// max_recursion_depth, whose default guards the stack even when nothing
/// else is budgeted (adversarial variable orders must raise
/// ResourceExhausted, not smash the stack).
struct ResourceBudget {
  /// Hard ceiling on live BDD nodes; mk() throws NodeLimitExceeded when a
  /// new node would be created at or beyond it (after the soft-GC retry).
  std::size_t max_live_nodes = 0;
  /// Live-node level at which top-level operations force a GC + computed
  /// cache flush before proceeding.  0 = auto: 7/8 of max_live_nodes.
  std::size_t soft_node_limit = 0;
  /// Ceiling on the manager's owned heap bytes (node table + unique table
  /// + computed cache + free list).
  std::size_t max_memory_bytes = 0;
  /// Wall-clock deadline in milliseconds, measured from install_budget.
  std::uint64_t deadline_ms = 0;
  /// Wall-clock margin before the deadline at which the checkpoint hook
  /// fires (ScopedCheckpointHook).  0 = auto: one eighth of deadline_ms.
  std::uint64_t checkpoint_margin_ms = 0;
  /// Cap on the iterations of any single guarded fixpoint loop.
  std::size_t max_fixpoint_iterations = 0;
  /// Cap on BDD kernel recursion depth (always enforced; ~100k default).
  std::size_t max_recursion_depth = 100'000;

  [[nodiscard]] bool limits_nodes() const { return max_live_nodes != 0; }
  [[nodiscard]] bool limits_memory() const { return max_memory_bytes != 0; }
  [[nodiscard]] bool limits_time() const { return deadline_ms != 0; }
  [[nodiscard]] bool limits_iterations() const {
    return max_fixpoint_iterations != 0;
  }
  /// The soft node limit actually in force (resolves the 0 = auto rule).
  [[nodiscard]] std::size_t effective_soft_node_limit() const {
    if (!limits_nodes()) return soft_node_limit;
    if (soft_node_limit != 0 && soft_node_limit < max_live_nodes)
      return soft_node_limit;
    return max_live_nodes - max_live_nodes / 8;
  }
  /// The checkpoint margin actually in force (resolves the 0 = auto rule).
  [[nodiscard]] std::uint64_t effective_checkpoint_margin_ms() const {
    return checkpoint_margin_ms != 0 ? checkpoint_margin_ms : deadline_ms / 8;
  }

  /// No limits at all, not even the default depth guard.
  [[nodiscard]] static ResourceBudget unlimited();
};

/// Base of the recoverable exhaustion hierarchy.  Catching this (or a
/// subclass) and then raising the budget and rerunning the query on the
/// same manager is the supported recovery path: the throwing layers
/// guarantee the manager unwinds to an audit-clean state.
class ResourceExhausted : public std::runtime_error {
 public:
  ResourceExhausted(Resource resource, const std::string& what,
                    BudgetSpent spent)
      : std::runtime_error(what), resource_(resource), spent_(spent) {}

  [[nodiscard]] Resource resource() const { return resource_; }
  [[nodiscard]] const BudgetSpent& spent() const { return spent_; }

 private:
  Resource resource_;
  BudgetSpent spent_;
};

/// The hard live-node ceiling was hit even after the soft-GC retry.
class NodeLimitExceeded : public ResourceExhausted {
 public:
  NodeLimitExceeded(const std::string& what, BudgetSpent spent)
      : ResourceExhausted(Resource::kNodes, what, spent) {}
};

/// The manager's owned heap bytes exceeded max_memory_bytes.
class MemoryLimitExceeded : public ResourceExhausted {
 public:
  MemoryLimitExceeded(const std::string& what, BudgetSpent spent)
      : ResourceExhausted(Resource::kMemory, what, spent) {}
};

/// The wall-clock deadline passed.
class DeadlineExceeded : public ResourceExhausted {
 public:
  DeadlineExceeded(const std::string& what, BudgetSpent spent)
      : ResourceExhausted(Resource::kTime, what, spent) {}
};

/// A guarded fixpoint loop exceeded max_fixpoint_iterations.
class IterationLimitExceeded : public ResourceExhausted {
 public:
  IterationLimitExceeded(const std::string& what, BudgetSpent spent)
      : ResourceExhausted(Resource::kIterations, what, spent) {}
};

/// A BDD kernel recursed past max_recursion_depth.
class DepthLimitExceeded : public ResourceExhausted {
 public:
  DepthLimitExceeded(const std::string& what, BudgetSpent spent)
      : ResourceExhausted(Resource::kDepth, what, spent) {}
};

/// std::bad_alloc surfaced during node-table / unique-table growth and a
/// GC-and-retry attempt did not help.
class AllocationFailed : public ResourceExhausted {
 public:
  AllocationFailed(const std::string& what, BudgetSpent spent)
      : ResourceExhausted(Resource::kAllocation, what, spent) {}
};

/// Ambient budget for managers constructed inside the scope (thread-local,
/// nestable; the innermost scope wins).  This is how a budget reaches
/// managers a library creates privately -- e.g. the product-automaton
/// manager inside automata::check_containment:
///
///   guard::ScopedBudget scope(budget);
///   auto result = automata::check_containment(sys, spec);  // budgeted
///
/// Outside any scope, current() is config::current().budget (the
/// SYMCEX_* budget variables; see guard/config.hpp).
class ScopedBudget {
 public:
  explicit ScopedBudget(const ResourceBudget& budget);
  ~ScopedBudget();

  ScopedBudget(const ScopedBudget&) = delete;
  ScopedBudget& operator=(const ScopedBudget&) = delete;

  /// The innermost ambient budget, or the configured default.
  [[nodiscard]] static const ResourceBudget& current();

 private:
  ResourceBudget budget_;
  const ResourceBudget* prev_;
};

/// Deadline-margin checkpoint hook (thread-local, nestable; the innermost
/// scope wins).  While one is installed, a deadline-budgeted
/// bdd::Manager's cooperative checkpoints fire it once when the remaining
/// wall-clock budget first drops below the checkpoint margin -- i.e.
/// "this run will probably not finish; persist what we have while there
/// is still time".  src/core installs one around each check when
/// checkpointing is configured; the hook body writes the snapshot
/// (src/persist) from the live fixpoint frontiers.
///
/// The hook runs synchronously on the probing thread, between fixpoint
/// iterations (FixpointGuard::tick), so the state it reads is a
/// consistent completed iterate.  It fires at most once per installation.
class ScopedCheckpointHook {
 public:
  explicit ScopedCheckpointHook(std::function<void()> hook);
  ~ScopedCheckpointHook();

  ScopedCheckpointHook(const ScopedCheckpointHook&) = delete;
  ScopedCheckpointHook& operator=(const ScopedCheckpointHook&) = delete;

  /// Is a not-yet-fired hook installed on this thread?
  [[nodiscard]] static bool armed();
  /// Fire the innermost armed hook (then disarm it).  Exceptions from the
  /// hook are swallowed: a failed periodic checkpoint must not abort the
  /// run it was trying to insure.
  static void fire();

 private:
  std::function<void()> hook_;
  bool fired_ = false;
  ScopedCheckpointHook* prev_;
};

}  // namespace symcex::guard
