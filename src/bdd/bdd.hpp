// SymCeX -- BDD package.
//
// A from-scratch reduced ordered binary decision diagram (ROBDD) manager in
// the style of [Bryant 86], providing the representation layer the paper's
// symbolic model checking algorithms are built on (Section 2 of the paper):
//
//   * canonical ROBDD nodes kept in a unique table (hash-consing), so
//     equivalence of two functions is a pointer comparison;
//   * an ITE-based apply with a computed cache, giving all 16 binary
//     connectives in time linear in the argument sizes;
//   * existential/universal quantification and the fused relational product
//     (AndExists);
//   * the image and preimage kernels over interleaved current/next rails
//     (rel_next / rel_prev), which quantify and move between the rails in
//     one cached recursion;
//   * minterm extraction (PickOneMinterm), the primitive that witness
//     generation uses to pull one concrete state out of a symbolic set;
//   * reference-counted garbage collection driven by RAII handles.
//
// Variable *index* and *level* are separate: a node stores its variable
// index (stable for the node's lifetime), while the position of that
// variable in the order is given by the var->level / level->var
// permutations the manager maintains (inverse bijections; initially the
// identity, i.e. creation order).  Dynamic reordering (src/order) permutes
// levels via the adjacent-level swap_levels() primitive; external Bdd
// handles stay valid across reorders because node indices never move.
// The transition-system layer interleaves current/next variables and
// declares each pair a group (group_vars), so sifting moves the pair as a
// block and rel_next / rel_prev can emit a variable at its twin's level.
//
// Thread safety: a Manager and all Bdd handles attached to it are confined
// to one thread at a time.  Distinct managers are independent, which is how
// checks run concurrently: one manager per check (DESIGN.md sections 14
// and 15).

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "guard/guard.hpp"

namespace symcex::diag {
class Registry;
}  // namespace symcex::diag

namespace symcex::persist {
struct ManagerAccess;  // snapshot plumbing (src/persist)
}  // namespace symcex::persist

namespace symcex::bdd {

class FixpointGuard;
class Manager;

/// One literal of a cover cube: variable `var` takes `value`.
struct CubeLiteral {
  std::uint32_t var = 0;
  bool value = false;
};

/// Receives one cube of Bdd::for_each_cube; returns false to stop the walk.
using CubeVisitor = std::function<bool(const std::vector<CubeLiteral>&)>;

/// RAII handle to a BDD node.  Copying a handle bumps the node's external
/// reference count; destruction releases it.  A default-constructed handle
/// is "null" (attached to no manager) and may only be assigned to or
/// compared.  Handles compare by node identity, which -- because ROBDDs are
/// canonical -- is function equality.
class Bdd {
 public:
  Bdd() = default;
  Bdd(const Bdd& other);
  Bdd(Bdd&& other) noexcept;
  Bdd& operator=(const Bdd& other);
  Bdd& operator=(Bdd&& other) noexcept;
  ~Bdd();

  [[nodiscard]] bool is_null() const { return mgr_ == nullptr; }
  [[nodiscard]] bool is_true() const;
  [[nodiscard]] bool is_false() const;
  [[nodiscard]] bool is_constant() const { return is_true() || is_false(); }

  /// The manager this handle is attached to (nullptr for a null handle).
  [[nodiscard]] Manager* manager() const { return mgr_; }

  /// Identity comparison == function equality (canonicity).
  friend bool operator==(const Bdd& a, const Bdd& b) {
    return a.mgr_ == b.mgr_ && a.idx_ == b.idx_;
  }
  friend bool operator!=(const Bdd& a, const Bdd& b) { return !(a == b); }
  /// Arbitrary strict order for use in ordered containers.  Handles of
  /// distinct managers order by std::less<Manager*> (a raw `<` on
  /// unrelated pointers is unspecified behavior; std::less guarantees a
  /// total order).
  friend bool operator<(const Bdd& a, const Bdd& b) {
    if (a.mgr_ != b.mgr_) return std::less<Manager*>{}(a.mgr_, b.mgr_);
    return a.idx_ < b.idx_;
  }

  // Boolean connectives.  All operands must share a manager.
  [[nodiscard]] Bdd operator!() const;
  [[nodiscard]] Bdd operator&(const Bdd& g) const;
  [[nodiscard]] Bdd operator|(const Bdd& g) const;
  [[nodiscard]] Bdd operator^(const Bdd& g) const;
  Bdd& operator&=(const Bdd& g) { return *this = *this & g; }
  Bdd& operator|=(const Bdd& g) { return *this = *this | g; }
  Bdd& operator^=(const Bdd& g) { return *this = *this ^ g; }

  /// f - g, i.e. f AND NOT g (set difference).
  [[nodiscard]] Bdd operator-(const Bdd& g) const { return *this & !g; }
  Bdd& operator-=(const Bdd& g) { return *this = *this - g; }

  /// Logical implication test: does this function imply g everywhere?
  /// Decided as (f - g).is_false() by one cached recursion that builds no
  /// node and stops at the first assignment that separates the two.
  [[nodiscard]] bool implies(const Bdd& g) const;
  /// Set view: is this set (of satisfying assignments) a subset of g's?
  [[nodiscard]] bool is_subset_of(const Bdd& g) const { return implies(g); }
  /// Do this function and g share a satisfying assignment?  Decided as
  /// !(f & g).is_false(), like implies() without building the conjunction.
  [[nodiscard]] bool intersects(const Bdd& g) const;

  /// Existentially quantify all variables of `cube` (a positive-literal
  /// conjunction) out of this function.
  [[nodiscard]] Bdd exists(const Bdd& cube) const;
  /// Universally quantify all variables of `cube` out of this function.
  [[nodiscard]] Bdd forall(const Bdd& cube) const;
  /// Cofactor: this function with variable `var` fixed to `value`.
  [[nodiscard]] Bdd restrict_var(std::uint32_t var, bool value) const;

  /// Coudert-Madre generalized cofactor ("constrain"): a function agreeing
  /// with this one on every assignment satisfying `care` (which must be
  /// satisfiable); off the care set the value is chosen to shrink the DAG.
  /// Satisfies  f.constrain(c) & c == f & c.
  [[nodiscard]] Bdd constrain(const Bdd& care) const;
  /// Coudert-Madre "restrict": like constrain but never enlarges the
  /// support; the standard don't-care minimizer for state sets
  /// (e.g. reduce a set modulo the reachable states).
  [[nodiscard]] Bdd minimize(const Bdd& care) const;

  /// Functional composition: substitute `g` for variable `var`.
  [[nodiscard]] Bdd compose(std::uint32_t var, const Bdd& g) const;

  /// Number of DAG nodes reachable from this root (including terminals).
  [[nodiscard]] std::size_t dag_size() const;
  /// The set of variables this function depends on, ascending.
  [[nodiscard]] std::vector<std::uint32_t> support() const;
  /// Number of satisfying assignments over `num_vars` variables.  The
  /// result is always finite: values that a double cannot represent
  /// saturate at std::numeric_limits<double>::max() instead of
  /// overflowing to infinity (relevant from ~1024 free variables up).
  /// Below the saturation point powers of two are exact.
  [[nodiscard]] double sat_count(std::uint32_t num_vars) const;
  /// Evaluate under a total assignment (indexed by variable).
  [[nodiscard]] bool eval(const std::vector<bool>& assignment) const;

  /// Walk this function's canonical disjoint cover: the Shannon expansion
  /// on the lowest-index support variable, false branch first, so the
  /// cubes and their order depend only on the function and the variable
  /// numbering, never on the current level order.  `visit` sees each cube's
  /// literals in ascending variable order and returns false to end the
  /// walk.  Under the identity order the walk follows child edges and
  /// builds no node; otherwise it cofactors with restrict_var.  Returns the
  /// number of cubes visited.
  std::size_t for_each_cube(const CubeVisitor& visit) const;

  /// Internal node index (stable until the node is garbage collected, which
  /// cannot happen while this handle lives).  Exposed for diagnostics.
  [[nodiscard]] std::uint32_t raw_index() const { return idx_; }

 private:
  friend class Manager;
  friend struct symcex::persist::ManagerAccess;
  Bdd(Manager* mgr, std::uint32_t idx);

  Manager* mgr_ = nullptr;
  std::uint32_t idx_ = 0;
};

/// Top-level apply-style operations a Manager counts per call (not per
/// recursive step) in ManagerStats::apply_calls.
enum class ApplyOp : std::size_t {
  kNot,
  kAnd,
  kOr,
  kXor,
  kIte,
  kExists,
  kAndExists,
  kConstrain,
  kRestrictMin,
  kRestrictVar,
  kCompose,
  kRelNext,
  kRelPrev,
  kImplies,
  kIntersects,
  kCount,  // number of entries, not an operation
};
inline constexpr std::size_t kNumApplyOps =
    static_cast<std::size_t>(ApplyOp::kCount);

/// Short stable name of an apply operation ("and", "ite", ...).
[[nodiscard]] const char* apply_op_name(ApplyOp op);

/// Escape `s` for interpolation into a double-quoted Graphviz DOT string:
/// `"` and `\` are backslash-escaped and newlines become the DOT line-break
/// escape "\n".  Mangled SMV identifiers may legally contain both, so every
/// DOT emitter (Manager::dump_dot, ts::TransitionSystem::dump_state_graph,
/// the evidence renderers) must route labels through this.
[[nodiscard]] std::string dot_escape(std::string_view s);

/// Aggregate statistics a Manager keeps about itself.  These are plain
/// always-on counters (no measurable overhead); the diag layer folds them
/// into its JSON export under the "bdd" phase.
struct ManagerStats {
  std::size_t live_nodes = 0;      ///< allocated and not freed
  std::size_t peak_nodes = 0;      ///< high-water mark of live_nodes
  std::size_t gc_runs = 0;         ///< completed garbage collections
  std::size_t gc_reclaimed = 0;    ///< total nodes reclaimed by GC
  std::uint64_t gc_pause_ns = 0;   ///< total wall time spent inside gc()
  std::size_t cache_clears = 0;    ///< computed-cache invalidations (by GC)
  std::size_t table_growths = 0;   ///< unique-table rehash/grow events
  std::size_t cache_growths = 0;   ///< computed-cache doublings
  std::size_t unique_hits = 0;     ///< mk() found an existing node
  std::size_t unique_misses = 0;   ///< mk() created a node
  std::size_t cache_hits = 0;      ///< computed-cache hits
  std::size_t cache_lookups = 0;   ///< computed-cache probes
  // Resource-governance counters (see guard::ResourceBudget).
  std::size_t soft_gc_runs = 0;     ///< GCs forced by the soft node limit
  std::size_t budget_aborts = 0;    ///< top-level ops aborted by exhaustion
  std::size_t exhaust_retries = 0;  ///< ops retried after a recovery GC
  std::size_t node_limit_hits = 0;  ///< hard node-limit violations in mk()
  std::size_t alloc_failures = 0;   ///< bad_alloc during table growth
  // Dynamic variable ordering (src/order; DESIGN.md §10).
  std::size_t reorder_runs = 0;    ///< completed Manager::reorder() passes
  std::size_t reorder_swaps = 0;   ///< adjacent-level swaps performed
  std::size_t reorder_aborts = 0;  ///< sift passes cut short by the budget
  std::size_t reorder_nodes_before = 0;  ///< live nodes entering last reorder
  std::size_t reorder_nodes_after = 0;   ///< live nodes leaving last reorder
  std::uint64_t reorder_time_ns = 0;     ///< total wall time inside reorder()
  /// Top-level calls per apply-style operation, indexed by ApplyOp.
  std::array<std::uint64_t, kNumApplyOps> apply_calls{};

  [[nodiscard]] std::uint64_t apply(ApplyOp op) const {
    return apply_calls[static_cast<std::size_t>(op)];
  }
};

/// One resumable fixpoint loop's frontier, keyed by its FixpointGuard
/// loop name ("reachable", "eu", "eu_rings", "eg", "fair_eg_rings") and
/// its operands.  `z` is the last completed iterate and `iteration` its
/// number; ring loops also carry their whole approximation sequence (for
/// "reachable": the one BFS frontier).  A loop staged with a matching
/// record continues from it instead of its base case; because the record
/// holds one of the loop's own iterates, the continued computation is
/// identical to the uninterrupted one (DESIGN.md section 13).
struct Frontier {
  std::string loop;
  std::vector<Bdd> operands;
  Bdd z;
  std::vector<Bdd> rings;
  std::uint64_t iteration = 0;
};

/// Tuning knobs for a Manager.
struct ManagerOptions {
  /// log2 of the computed cache's largest slot count.  The cache starts at
  /// 2^12 slots (or this ceiling, if smaller) and mk() doubles it whenever
  /// live nodes exceed the slot count, until it reaches the ceiling.  A
  /// growth frees the old table before allocating the new one (the cache
  /// forgets its entries); after a failed growth the cache keeps its
  /// current size.
  std::uint32_t cache_log2_size = 18;
  /// Run GC when this many nodes are live; doubles when a collection
  /// leaves more than half of it live.  Small on purpose: the node table
  /// and the computed cache grow with the live nodes and never shrink, so
  /// dead nodes left standing would size both for good.
  std::size_t gc_threshold = 1u << 14;
  /// Disable automatic garbage collection (explicit gc() still works).
  bool disable_auto_gc = false;
};

/// The BDD manager: owns all nodes, the unique table and the computed cache.
/// Create variables with new_var()/var(), combine with the Bdd operators.
class Manager {
 public:
  explicit Manager(std::uint32_t num_vars = 0,
                   const ManagerOptions& options = {});
  ~Manager();

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  /// The constant true / false functions.
  [[nodiscard]] Bdd one();
  [[nodiscard]] Bdd zero();

  /// Allocate a fresh variable at the bottom of the order; returns its index.
  std::uint32_t new_var();
  /// Current number of variables.
  [[nodiscard]] std::uint32_t num_vars() const {
    return static_cast<std::uint32_t>(num_vars_);
  }

  /// The projection function of variable v (must be < num_vars()).
  [[nodiscard]] Bdd var(std::uint32_t v);
  /// The negated projection function of variable v.
  [[nodiscard]] Bdd nvar(std::uint32_t v);
  /// Variable v if `positive`, else its negation.
  [[nodiscard]] Bdd literal(std::uint32_t v, bool positive) {
    return positive ? var(v) : nvar(v);
  }

  /// Conjunction of the positive literals of `vars` (a quantification cube).
  [[nodiscard]] Bdd cube(const std::vector<std::uint32_t>& vars);
  /// The minterm selecting exactly the given values of `vars`.
  [[nodiscard]] Bdd minterm(const std::vector<std::uint32_t>& vars,
                            const std::vector<bool>& values);

  /// If-then-else: (f AND g) OR (NOT f AND h).
  [[nodiscard]] Bdd ite(const Bdd& f, const Bdd& g, const Bdd& h);

  /// Fused relational product: Exists cube . (f AND g); never builds the
  /// full conjunction.  Partitioned image/preimage sweeps use it between
  /// their first and last clusters (rel_next / rel_prev do the ends).
  [[nodiscard]] Bdd and_exists(const Bdd& f, const Bdd& g, const Bdd& cube);

  // -- relational products over interleaved rails ----------------------------
  // Variables 2v and 2v+1 form a pair (the transition-system layer's current
  // and next rail of state variable v).  Both kernels emit a variable at the
  // level of its pair twin, which is order-correct whenever every pair the
  // operands mention sits at two adjacent levels (in either internal order)
  // -- what a pair reorder group guarantees.  A step that would emit a node
  // above a child of its own pair throws std::invalid_argument instead of
  // building a misordered DAG.

  /// Image kernel: Exists cube . (f AND g) with every surviving variable
  /// 2v+1 emitted as 2v, in one recursion (no renaming pass).  The
  /// quantified product must not depend on both variables of a pair.
  /// unprime(f) is rel_next(f, 1, 1).
  [[nodiscard]] Bdd rel_next(const Bdd& f, const Bdd& g, const Bdd& cube);
  /// Preimage kernel: Exists cube . (s' AND t), where s' is `s` with every
  /// variable x read as x^1 (its pair twin).  `s` must not depend on both
  /// variables of a pair; `cube` and `t` name real variables.  prime(s) is
  /// rel_prev(s, 1, 1).
  [[nodiscard]] Bdd rel_prev(const Bdd& s, const Bdd& t, const Bdd& cube);

  /// Pick one satisfying assignment of f, as a full cube over `vars`
  /// (every variable in `vars` appears as a positive or negative literal).
  /// `vars` must be ascending and cover f's support.  f must be satisfiable.
  [[nodiscard]] Bdd pick_one_minterm(const Bdd& f,
                                     const std::vector<std::uint32_t>& vars);
  /// As above but returns the assignment as value bits parallel to `vars`.
  [[nodiscard]] std::vector<bool> pick_one_assignment(
      const Bdd& f, const std::vector<std::uint32_t>& vars);

  /// Force a garbage collection now.  All nodes unreachable from live Bdd
  /// handles are reclaimed; the computed cache is cleared.  When the audit
  /// toggle is on (see audits_enabled) the collection is followed by audit().
  void gc();

  /// Structural audit in the style of CUDD's Cudd_DebugCheck.  Verifies:
  ///
  ///   * unique-table canonicality: every live non-terminal is threaded in
  ///     exactly its own bucket chain, and no (var, lo, hi) triple occurs
  ///     twice (hash-consing never duplicated a node);
  ///   * ordering: every node's level is strictly above both children's
  ///     under the current variable order;
  ///   * level maps: var2level / level2var are inverse bijections, every
  ///     live node's variable has a level, and each reorder group occupies
  ///     a contiguous run of levels;
  ///   * reduction: no redundant lo == hi node survived mk();
  ///   * refcount census: every node's count covers its internal parents,
  ///     and the surplus over all nodes is covered by the live external
  ///     Bdd handles attached to this manager;
  ///   * free-list consistency: freed slots and the free list agree, and
  ///     live_nodes_ matches a fresh count;
  ///   * computed-cache validity: every valid entry references in-bounds,
  ///     live nodes, and a sample of not/and/or/xor entries is semantically
  ///     revalidated by evaluating operands and result on fixed
  ///     assignments.
  ///
  /// Returns "" when consistent, else a diagnostic naming the first
  /// violated invariant.
  [[nodiscard]] std::string audit_check() const;
  /// audit_check(), throwing std::logic_error on any violation.
  void audit() const;

  /// Number of live external Bdd handles attached to this manager.
  [[nodiscard]] std::size_t external_handles() const {
    return external_handles_;
  }

  /// Write the DAG rooted at the given functions in Graphviz DOT syntax.
  /// `names[v]` labels variable v (empty / short vector -> "v<i>").
  void dump_dot(std::ostream& os, const std::vector<Bdd>& roots,
                const std::vector<std::string>& names = {}) const;

  [[nodiscard]] const ManagerStats& stats() const { return stats_; }

  // -- resource governance ---------------------------------------------------
  // A Manager always carries a budget: the constructor installs the ambient
  // guard::ScopedBudget::current() (the configured budget when no scope is
  // active), and install_budget replaces it.  Kernels and fixpoint loops
  // check it at cooperative checkpoints and throw guard::ResourceExhausted
  // subclasses; the manager unwinds to an audit-clean state, so raising the
  // budget and rerunning the same query is always legal.

  /// Install `budget`, replacing the previous one and restarting the
  /// wall-clock deadline.
  void install_budget(const guard::ResourceBudget& budget);
  /// Remove every limit (including the configured ones); the
  /// default recursion-depth guard stays in force.
  void clear_budget();
  /// The installed budget.
  [[nodiscard]] const guard::ResourceBudget& budget() const { return budget_; }
  /// Snapshot of consumption against the installed budget.
  [[nodiscard]] guard::BudgetSpent budget_spent() const;
  /// Approximate heap bytes owned by this manager (node table, unique
  /// table, computed cache, free list).
  [[nodiscard]] std::size_t memory_bytes() const;
  /// Cooperative checkpoint for long-running callers: throws
  /// guard::DeadlineExceeded / guard::MemoryLimitExceeded when the budget
  /// is exhausted.  `what` names the caller in the exception message.
  void checkpoint(const char* what);

  // -- fixpoint frontiers (DESIGN.md section 13) -----------------------------
  // Every resumable loop's FixpointGuard keeps its Frontier record here
  // while it runs; a loop that unwinds on an exception leaves its record
  // in the salvaged list, and staged records seed the next matching loop.

  /// Records of the resumable loops running now, outermost first; loops
  /// that have not completed an iterate yet are skipped.
  [[nodiscard]] std::vector<Frontier> live_frontiers() const;
  /// Records of resumable loops that unwound on an exception since the
  /// last clear_salvaged_frontiers(), innermost first.
  [[nodiscard]] const std::vector<Frontier>& salvaged_frontiers() const {
    return salvaged_;
  }
  void clear_salvaged_frontiers() { salvaged_.clear(); }
  /// Stage records for resume: the next resumable loop whose name and
  /// operands match a record takes it and continues from its iterate.
  void stage_frontiers(std::vector<Frontier> frontiers) {
    staged_ = std::move(frontiers);
  }

  // -- dynamic variable ordering ---------------------------------------------
  // The manager keeps two inverse permutations over [0, num_vars):
  // var2level_ maps a variable index to its position in the order and
  // level2var_ maps a position back to the variable.  Invariants (audited):
  //
  //   * level2var_[var2level_[v]] == v for every v (inverse bijections);
  //   * every interior node's level is strictly above both children's
  //     (terminals sit below every variable);
  //   * each group (see group_vars) occupies a contiguous run of levels in
  //     its declared internal order.
  //
  // The unique table hashes on (var, lo, hi) -- variable indices, not
  // levels -- so buckets are stable under permutation and swap_levels only
  // touches the nodes of the one variable it moves.

  /// Current level (position in the order) of variable v.
  [[nodiscard]] std::uint32_t level_of_var(std::uint32_t v) const;
  /// The whole order, top to bottom: element l is the variable at level l.
  [[nodiscard]] const std::vector<std::uint32_t>& current_order() const {
    return level2var_;
  }
  /// True while var2level is the identity (the fast paths stay exact).
  [[nodiscard]] bool identity_order() const { return displaced_vars_ == 0; }

  /// Swap the variables at levels `lvl` and `lvl + 1` (Rudell's adjacent
  /// swap).  Only nodes of the upper variable are rewritten, in place, so
  /// every external Bdd handle keeps denoting the same function.  Outside a
  /// reorder session this flushes the computed cache and (when audits are
  /// enabled) re-audits; inside a session the flush is deferred to
  /// reorder_session_end().  Must not be called from inside a kernel.
  void swap_levels(std::uint32_t lvl);

  /// Declare `vars` a reorder group: they must sit at adjacent levels (in
  /// the given order) and from now on sift as one block, preserving their
  /// relative order.  Used by the transition-system layer to pin each
  /// current/next rail pair together.
  void group_vars(const std::vector<std::uint32_t>& vars);
  /// The group id of variable v (== v for ungrouped variables).
  [[nodiscard]] std::uint32_t var_group(std::uint32_t v) const;

  /// Live interior nodes per variable index (diagnostics / sift ordering).
  [[nodiscard]] std::vector<std::size_t> var_node_counts() const;

  /// Run one full sifting pass now (order::sift with default options,
  /// honouring the installed budget: exhaustion aborts between block moves
  /// and rolls the in-flight block back to the best position seen).
  /// Returns false when there is nothing to do (fewer than two variables,
  /// a kernel or another reorder is active).  Defined in src/order.
  bool reorder();
  /// Enable/disable the automatic growth trigger: when live nodes have at
  /// least doubled since the last reorder (and exceed a small floor),
  /// maybe_collect() runs reorder() before the next top-level operation.
  void set_auto_reorder(bool on);
  [[nodiscard]] bool auto_reorder() const { return auto_reorder_; }

  /// Bracket a sequence of swap_levels calls: begin garbage-collects (so
  /// refcounts are exact) and suspends the hard node limit (sifting must
  /// never throw out of mk); end flushes the computed cache and re-audits.
  /// Used by the sifter; standalone swap_levels calls self-bracket.
  void reorder_session_begin();
  void reorder_session_end(bool audit_after = true);
  [[nodiscard]] bool in_reorder_session() const { return order_session_; }

  /// Tear down an in-progress reorder session after an abort (exhaustion
  /// escaping mid-sift): restore the best order seen this session (the
  /// sifter's own cooperative rollback never ran) and close the session,
  /// running the deferred cache flush and audit.  No-op outside a session.
  /// recover_after_abort() calls this first, so any exhaustion that
  /// unwinds through run_apply or Manager::reorder leaves no session
  /// dangling.  Fault-injection probes are suspended during the rollback.
  void abort_reorder_session();

  // -- snapshots (src/persist; DESIGN.md section 13) -------------------------
  // The shared DAG reachable from a set of roots can be written to a
  // versioned, checksummed binary snapshot and decoded into another (or a
  // later) manager.  Node indices are not preserved -- the encoding names
  // nodes by a deterministic traversal numbering -- but canonicity
  // guarantees the decoded roots denote the same functions.  Both members
  // are defined in src/persist (the format layer), like Manager::reorder()
  // in src/order.

  /// Decoded snapshot: roots[i] is the function saved under names[i].
  struct LoadedSnapshot {
    std::vector<Bdd> roots;
    std::vector<std::string> names;
  };

  /// Write a self-contained snapshot of the DAG reachable from `roots`
  /// (with the level map and pair-group metadata) to `os`.  `names[i]`
  /// labels roots[i]; missing names default to "root:<i>".  Throws
  /// persist::SnapshotError on I/O failure.
  void save_snapshot(std::ostream& os, const std::vector<Bdd>& roots,
                     const std::vector<std::string>& names = {}) const;

  /// Load a snapshot written by save_snapshot into this manager.  The
  /// manager must be freshly constructed (same variable count as the
  /// snapshot, no interior nodes): the saved order installs wholesale and
  /// the DAG decodes through mk(), then audit() gates the result.  Throws
  /// persist::SnapshotError (typed, recoverable) on any corruption.
  LoadedSnapshot load_snapshot(std::istream& is);

 private:
  friend class Bdd;
  friend class FixpointGuard;
  friend struct symcex::persist::ManagerAccess;

  static constexpr std::uint32_t kFalse = 0;
  static constexpr std::uint32_t kTrue = 1;
  static constexpr std::uint32_t kTermVar = 0xFFFFFFFFu;  // terminal "level"
  static constexpr std::uint32_t kFreeVar = 0xFFFFFFFEu;  // freed slot marker
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;      // chain terminator
  // `next` of a node swap_levels has taken off its chain for a rewrite.
  static constexpr std::uint32_t kUnlinked = 0xFFFFFFFEu;

  struct Node {
    std::uint32_t var;   // variable index (level via var2level_);
                         // kTermVar for terminals, kFreeVar when freed
    std::uint32_t lo;    // else-child
    std::uint32_t hi;    // then-child
    std::uint32_t next;  // unique-table chain
    std::uint32_t refs;  // parents + external handles (saturating)
  };

  struct CacheEntry {
    std::uint32_t op = 0;
    std::uint32_t f = 0, g = 0, h = 0;
    std::uint32_t result = 0;
    bool valid = false;
  };

  /// Allocates the manager's tables (nodes, unique table, computed cache)
  /// straight from the OS and returns the pages on deallocate.  A table
  /// that grows by doubling would otherwise leave its freed predecessors,
  /// and a destroyed manager all of its tables, resident in the malloc heap.
  template <typename T>
  struct PageAllocator {
    using value_type = T;
    PageAllocator() = default;
    template <typename U>
    explicit PageAllocator(const PageAllocator<U>&) {}
    [[nodiscard]] T* allocate(std::size_t n) {
      return static_cast<T*>(map_pages(n * sizeof(T)));
    }
    void deallocate(T* p, std::size_t n) noexcept {
      unmap_pages(p, n * sizeof(T));
    }
    friend bool operator==(const PageAllocator&, const PageAllocator&) {
      return true;
    }
  };
  template <typename T>
  using Table = std::vector<T, PageAllocator<T>>;
  [[nodiscard]] static void* map_pages(std::size_t bytes);
  static void unmap_pages(void* p, std::size_t bytes) noexcept;

  enum Op : std::uint32_t {
    kOpNot = 1,
    kOpAnd,
    kOpOr,
    kOpXor,
    kOpIte,
    kOpExists,
    kOpAndExists,
    kOpConstrain,
    kOpRestrictMin,
    kOpCompose,
    kOpRelNext,
    kOpRelPrev,
    kOpImplies,
    kOpIntersects,
  };

  // -- node plumbing -------------------------------------------------------
  std::uint32_t mk(std::uint32_t var, std::uint32_t lo, std::uint32_t hi);
  void ref(std::uint32_t idx);
  void deref(std::uint32_t idx);
  /// ref/deref from the Bdd handle lifecycle: additionally maintain the
  /// external-handle census that audit_check() verifies against.
  void handle_ref(std::uint32_t idx);
  void handle_deref(std::uint32_t idx);
  /// Level of the node at `idx`: the position of its variable in the
  /// current order.  Terminals (kTermVar) and freed slots (kFreeVar)
  /// compare above every variable, as before.
  [[nodiscard]] std::uint32_t level(std::uint32_t idx) const {
    const std::uint32_t v = nodes_[idx].var;
    return v >= num_vars_ ? v : var2level_[v];
  }
  void grow_table();
  /// Double the computed cache (see ManagerOptions::cache_log2_size).
  void grow_cache();
  [[nodiscard]] std::size_t bucket_of(std::uint32_t var, std::uint32_t lo,
                                      std::uint32_t hi) const;
  void maybe_collect();
  void maybe_auto_reorder();

  // -- reordering plumbing --------------------------------------------------
  /// Remove node `n` from its unique-table bucket chain.
  void unlink_node(std::uint32_t n);
  /// Thread node `n` at the head of its unique-table bucket chain.
  void link_node(std::uint32_t n);
  /// Drop one reference from `idx` and eagerly reclaim it (and any children
  /// that become unreferenced) when the count hits zero.  Only used by
  /// swap_levels, where refcounts are exact (session begin GCed).
  void deref_reclaim(std::uint32_t idx);
  /// Invalidate every computed-cache entry.
  void flush_cache();

  // -- computed cache ------------------------------------------------------
  [[nodiscard]] bool cache_get(std::uint32_t op, std::uint32_t f,
                               std::uint32_t g, std::uint32_t h,
                               std::uint32_t& out);
  void cache_put(std::uint32_t op, std::uint32_t f, std::uint32_t g,
                 std::uint32_t h, std::uint32_t result);

  // -- resource governance (internals) -------------------------------------
  /// One guarded kernel recursion frame: counts the recursion depth
  /// against the budget and polls the wall-clock deadline every few
  /// thousand frames.  Cost is two increments per recursive call.
  struct [[nodiscard]] Frame {
    explicit Frame(Manager& m) : m_(m) {
      // Poll first: if it throws, depth is untouched.  The depth throw
      // fires after the increment, so throw_depth_exceeded compensates
      // for the destructor that will never run.
      if ((++m_.poll_ & 0xFFFu) == 0 && m_.deadline_ns_ != 0) {
        m_.check_deadline("bdd kernel");
      }
      if (++m_.depth_ > m_.depth_limit_) m_.throw_depth_exceeded();
    }
    ~Frame() { --m_.depth_; }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;
    Manager& m_;
  };

  /// Run a kernel under the exhaustion-recovery protocol: on a node-limit
  /// or allocation failure, GC (reclaiming the aborted kernel's orphans
  /// and flushing the computed cache) and retry once; if the limit recurs
  /// -- or on any other exhaustion -- recover and rethrow.  Defined in
  /// bdd.cpp (every use is in that translation unit).
  template <typename Kernel>
  Bdd run_apply(ApplyOp op, Kernel&& kernel);
  /// GC after a mid-flight abort so the manager is audit-clean: the
  /// aborted kernel's orphan nodes are reclaimed and the computed cache
  /// (which may reference them) is flushed.
  void recover_after_abort();
  /// Bubble every variable to its level in `target` (a level -> variable
  /// permutation) via adjacent swaps.  Caller brackets with a session.
  void restore_order(const std::vector<std::uint32_t>& target);
  /// Does every reorder group currently occupy contiguous levels?  Used
  /// to keep mid-block-move layouts out of the session-best order (an
  /// abort restores that order, and the audit rejects split groups).
  [[nodiscard]] bool groups_contiguous() const;
  [[noreturn]] void throw_depth_exceeded();
  void check_deadline(const char* what);
  [[nodiscard]] std::uint64_t elapsed_ms() const;

  // -- recursive kernels (raw indices; GC never runs inside them) ----------
  std::uint32_t not_rec(std::uint32_t f);
  std::uint32_t and_rec(std::uint32_t f, std::uint32_t g);
  std::uint32_t or_rec(std::uint32_t f, std::uint32_t g);
  std::uint32_t xor_rec(std::uint32_t f, std::uint32_t g);
  std::uint32_t ite_rec(std::uint32_t f, std::uint32_t g, std::uint32_t h);
  std::uint32_t exists_rec(std::uint32_t f, std::uint32_t cube);
  std::uint32_t and_exists_rec(std::uint32_t f, std::uint32_t g,
                               std::uint32_t cube);
  std::uint32_t constrain_rec(std::uint32_t f, std::uint32_t c);
  std::uint32_t restrict_min_rec(std::uint32_t f, std::uint32_t c);
  std::uint32_t compose_rec(std::uint32_t f, std::uint32_t var,
                            std::uint32_t g);
  std::uint32_t rel_next_rec(std::uint32_t f, std::uint32_t g,
                             std::uint32_t cube);
  std::uint32_t rel_prev_rec(std::uint32_t s, std::uint32_t t,
                             std::uint32_t cube);
  /// Decision kernels: they only read nodes, and cache kTrue / kFalse.
  bool implies_rec(std::uint32_t f, std::uint32_t g);
  bool intersects_rec(std::uint32_t f, std::uint32_t g);
  /// mk(var, lo, hi) for the rel kernels: throws std::invalid_argument when
  /// a child sits at or above var's level (see rel_next).
  std::uint32_t mk_rel(std::uint32_t var, std::uint32_t lo, std::uint32_t hi,
                       const char* what);

  [[nodiscard]] Bdd wrap(std::uint32_t idx) { return Bdd(this, idx); }
  void check_mine(const Bdd& b, const char* what) const;
  void count_apply(ApplyOp op) {
    ++stats_.apply_calls[static_cast<std::size_t>(op)];
  }
  /// Fold this manager's stats into a diag registry (phase "bdd").
  void fold_stats_into_diag(diag::Registry& registry) const;

  // Helpers used by Bdd methods.
  std::size_t walk_cover(const Bdd& f, const CubeVisitor& visit);
  std::uint32_t restrict_rec(std::uint32_t f, std::uint32_t var, bool value,
                             std::unordered_map<std::uint32_t, std::uint32_t>& memo);

  Table<Node> nodes_;
  Table<std::uint32_t> buckets_;         // unique table, power-of-two size
  std::vector<std::uint32_t> free_list_;
  std::size_t num_vars_ = 0;
  std::size_t live_nodes_ = 0;
  std::size_t external_handles_ = 0;
  std::size_t gc_threshold_ = 0;
  bool auto_gc_ = true;
  ManagerStats stats_;
  int diag_source_id_ = -1;  // registration with diag::Registry::global()

  // Computed cache and kernel recursion state.
  Table<CacheEntry> cache_;
  std::size_t cache_max_slots_ = 0;  // growth ceiling (ManagerOptions)
  std::size_t depth_ = 0;   // live guarded kernel frames
  std::uint32_t poll_ = 0;  // deadline poll tick (see Frame)

  // Variable-order state (see the public ordering section).
  std::vector<std::uint32_t> var2level_;  // variable index -> level
  std::vector<std::uint32_t> level2var_;  // level -> variable index
  std::vector<std::uint32_t> group_of_;   // variable index -> group id
  std::size_t displaced_vars_ = 0;  // #vars with var2level_[v] != v
  bool order_session_ = false;      // inside reorder_session brackets
  bool in_reorder_ = false;         // inside Manager::reorder()
  bool restoring_order_ = false;    // inside restore_order (no best-tracking)
  // Best order seen inside the current reorder session and its live-node
  // count, maintained by swap_levels; abort_reorder_session restores it.
  std::vector<std::uint32_t> session_best_order_;
  std::size_t session_best_nodes_ = 0;
  bool auto_reorder_ = false;       // growth-triggered sifting enabled
  std::size_t reorder_baseline_ = 2;  // live nodes after the last reorder
  static constexpr std::size_t kReorderFloor = 4096;  // min live to trigger

  // Resource governance state.  The limit fields cache the installed
  // budget's limits in checkpoint-friendly form (max() / 0 = "off") so the
  // hot paths test a single member.
  guard::ResourceBudget budget_;
  std::size_t depth_limit_ = std::numeric_limits<std::size_t>::max();
  std::size_t node_hard_limit_ = 0;   // 0 = unlimited
  std::size_t node_soft_limit_ = 0;   // 0 = none
  std::size_t memory_limit_ = 0;      // 0 = unlimited
  std::uint64_t deadline_ns_ = 0;     // absolute steady-clock ns; 0 = none
  std::uint64_t budget_epoch_ns_ = 0;  // steady-clock ns at install
  std::uint64_t margin_ns_ = 0;  // checkpoint-hook margin before deadline
  std::size_t last_soft_gc_live_ = 0;  // thrash guard for soft GCs

  // Fixpoint frontier records (see the public section).
  std::vector<const FixpointGuard*> live_loops_;  // innermost last
  std::vector<Frontier> salvaged_;
  std::vector<Frontier> staged_;
};

/// Cooperative guard for fixpoint loops (reachability, EU/EG, the
/// Emerson-Lei loop, invariant BFS): call tick() once per iteration.
/// Counts iterations against the manager's budget and polls the deadline
/// and memory ceiling; throws guard::IterationLimitExceeded /
/// DeadlineExceeded / MemoryLimitExceeded with the iteration count in the
/// carried BudgetSpent.
///
/// A resumable loop also passes its operands.  Its guard is then the one
/// place the loop's frontier lives: it takes the staged record that
/// matches (name, operands) at construction (resumed()), tick(z) publishes
/// each completed iterate into the record, the manager's live_frontiers()
/// reads it while the loop runs, and a loop that unwinds on an exception
/// leaves it in the manager's salvaged list.
///
/// Like its manager, a guard is confined to one thread.
class FixpointGuard {
 public:
  /// A loop that is never resumed: counts and polls, publishes nothing.
  FixpointGuard(Manager& mgr, const char* loop_name)
      : mgr_(mgr), name_(loop_name) {}
  /// A resumable loop keyed by `operands`.  `rings`, when given, is the
  /// loop's whole ring sequence, recorded alongside each iterate.
  FixpointGuard(Manager& mgr, const char* loop_name,
                std::vector<Bdd> operands,
                const std::vector<Bdd>* rings = nullptr);
  ~FixpointGuard();

  FixpointGuard(const FixpointGuard&) = delete;
  FixpointGuard& operator=(const FixpointGuard&) = delete;

  /// The staged record this loop continues from, or nullptr.  The loop
  /// reads its iterate (and may move the rings out) before the first tick.
  [[nodiscard]] Frontier* resumed() {
    return resumed_ ? &record_ : nullptr;
  }

  void tick();
  /// Publish `z` as the last completed iterate (one handle assign), then
  /// tick().
  void tick(const Bdd& z) {
    record_.z = z;
    record_.iteration = base_ + iterations_;
    tick();
  }
  [[nodiscard]] std::size_t iterations() const { return iterations_; }

 private:
  friend class Manager;

  /// The record with the current ring sequence copied in.
  [[nodiscard]] Frontier frontier() const;

  Manager& mgr_;
  const char* name_;
  std::size_t iterations_ = 0;
  // Resumable loops only.
  bool resumable_ = false;
  bool resumed_ = false;
  int uncaught_ = 0;            // std::uncaught_exceptions() at entry
  std::uint64_t base_ = 0;      // iteration number of the resumed record
  const std::vector<Bdd>* rings_ = nullptr;
  Frontier record_;
};

/// Should gc() follow each collection with Manager::audit()?  Defaults to
/// on in debug builds (NDEBUG not defined) and to config::current().audit
/// (SYMCEX_AUDIT) otherwise; override with set_audits_enabled().
[[nodiscard]] bool audits_enabled();
void set_audits_enabled(bool on);

}  // namespace symcex::bdd
