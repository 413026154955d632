// SymCeX -- symbolic transition systems.
//
// A labeled state-transition graph M = (AP, S, L, N, S0) in the sense of
// Section 3 of the paper, represented symbolically: the behaviour is
// determined by n boolean state variables, the transition relation
// R(v, v') is a BDD over two rails of variables (current and next), and
// state sets are BDDs over the current rail.
//
// Variable layout: state variable i occupies BDD variables 2i (current)
// and 2i+1 (next).  Interleaving keeps R small for the common case of
// per-variable next-state functions and lets image and preimage move
// between the rails inside the relational product itself
// (Manager::rel_next / rel_prev), with no separate renaming pass.
// Each pair is registered as a reorder group (Manager::group_vars), so
// dynamic variable reordering (src/order, DESIGN.md §10) moves pairs as
// blocks: levels may be permuted freely across pairs, but within a pair
// the current variable always sits directly above its next twin --
// audit() checks exactly this discipline.  With SYMCEX_REORDER (or
// core::CheckOptions::reorder) set, finalize() runs one sifting pass
// after cluster merging and the manager re-sifts on 2x live-node growth.
//
// The transition relation may be kept as a conjunctive partition
// (one conjunct per assignment/gate); image and preimage then use a fused
// AndExists sweep with an early-quantification schedule, or the monolithic
// product, selectable per call (benched as an ablation).

#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.hpp"

namespace symcex::ts {

/// Index of a state variable (not a raw BDD variable).
using VarId = std::uint32_t;

/// How image/preimage combine a partitioned transition relation.
enum class ImageMethod {
  kMonolithic,   ///< conjoin all parts once, one fused AndExists
  kPartitioned,  ///< sweep over size-thresholded clusters, early quantification
};

/// Don't-care bundle for care-set-simplified sweeps (built lazily by
/// core::EvalContext from the reachable states; see DESIGN.md §9).
///
/// `set` is a satisfiable state predicate over the current rail that is
/// closed under the transition relation (successors of care states are
/// care states -- true of the reachable set by construction).  The
/// relation copies are the monolithic relation / the clusters minimized
/// against `set`: they agree with the exact relation on every row whose
/// current-rail assignment satisfies `set`, which makes
///
///   * image(S, care)     exact whenever S implies `set`, and
///   * preimage(Z, care)  equal to  (EX Z) & set  for arbitrary Z.
///
/// Only the copy matching the sweep method in use needs to be populated.
struct DontCare {
  bdd::Bdd set;     ///< care set over the current rail (satisfiable)
  bdd::Bdd trans;   ///< trans().minimize(set); null unless monolithic sweeps
  std::vector<bdd::Bdd> clusters;  ///< per-cluster minimize; empty unless
                                   ///< partitioned sweeps
};

/// A symbolic Kripke structure.  Typical construction:
///
///   TransitionSystem ts;
///   VarId x = ts.add_var("x");
///   ts.set_init(!ts.cur(x));
///   ts.add_trans(ts.next(x) ^ !ts.cur(x));   // x' = !x
///   ts.add_label("high", ts.cur(x));
///   ts.finalize();
///
/// After finalize() the structure is immutable and image/preimage/
/// reachability and the model checker may be used.
class TransitionSystem {
 public:
  TransitionSystem();
  explicit TransitionSystem(const bdd::ManagerOptions& options);

  TransitionSystem(const TransitionSystem&) = delete;
  TransitionSystem& operator=(const TransitionSystem&) = delete;

  /// The BDD manager all sets/relations of this system live in.
  [[nodiscard]] bdd::Manager& manager() { return *mgr_; }
  [[nodiscard]] const bdd::Manager& manager() const { return *mgr_; }

  // -- construction --------------------------------------------------------

  /// Declare a boolean state variable.  Names must be unique and non-empty.
  VarId add_var(const std::string& name);
  /// Declare `width` variables "<name>.0" ... "<name>.<width-1>"
  /// (bit 0 is the least significant).
  std::vector<VarId> add_vector(const std::string& name, std::uint32_t width);

  /// Set the initial-state predicate (over current variables).
  void set_init(const bdd::Bdd& init);
  /// Add one conjunct of the transition relation (over both rails).
  void add_trans(const bdd::Bdd& part);
  /// Cap (in DAG nodes) under which finalize() greedily merges adjacent
  /// partition conjuncts into one cluster; 0 disables merging (one cluster
  /// per part).  Defaults to the SYMCEX_CLUSTER_THRESHOLD environment
  /// variable, or 4096 when unset.  Must be called before finalize().
  void set_cluster_threshold(std::size_t max_dag_nodes);
  [[nodiscard]] std::size_t cluster_threshold() const {
    return cluster_threshold_;
  }
  /// Add a fairness constraint: a state set that must recur infinitely
  /// often along fair paths (Section 5 of the paper).
  void add_fairness(const bdd::Bdd& constraint);
  /// Bind an atomic-proposition name to a state predicate.
  void add_label(const std::string& name, const bdd::Bdd& states);

  /// Freeze the structure; computes quantification cubes and schedules.
  /// Idempotent.  Construction calls after finalize() throw.
  void finalize();
  [[nodiscard]] bool finalized() const { return finalized_; }

  // -- variables and literals ----------------------------------------------

  [[nodiscard]] std::size_t num_state_vars() const { return names_.size(); }
  [[nodiscard]] const std::string& var_name(VarId v) const;
  /// All state variable names in declaration (VarId) order -- the variable
  /// table the evidence bundles export as model metadata.
  [[nodiscard]] const std::vector<std::string>& var_names() const {
    return names_;
  }
  [[nodiscard]] std::optional<VarId> find_var(const std::string& name) const;

  /// Current-state literal of state variable v (BDD variable 2v).
  [[nodiscard]] bdd::Bdd cur(VarId v) const;
  /// Next-state literal of state variable v (BDD variable 2v+1).
  [[nodiscard]] bdd::Bdd next(VarId v) const;

  /// Rewrite a predicate over current variables to next variables
  /// (std::invalid_argument if it depends on any other variable).
  [[nodiscard]] bdd::Bdd prime(const bdd::Bdd& f) const;
  /// Rewrite a predicate over next variables to current variables
  /// (std::invalid_argument if it depends on any other variable).
  [[nodiscard]] bdd::Bdd unprime(const bdd::Bdd& f) const;

  /// Cube of all current-rail (resp. next-rail) BDD variables.
  [[nodiscard]] const bdd::Bdd& cur_cube() const;
  [[nodiscard]] const bdd::Bdd& next_cube() const;

  // -- components ------------------------------------------------------------

  [[nodiscard]] const bdd::Bdd& init() const { return init_; }
  /// The monolithic transition relation (conjoined lazily and cached).
  [[nodiscard]] const bdd::Bdd& trans() const;
  /// The conjunctive partition as supplied by add_trans.  This is the
  /// ground truth the certifier and the structural audit check against;
  /// clustering and care-set simplification never rewrite it.
  [[nodiscard]] const std::vector<bdd::Bdd>& trans_parts() const {
    return parts_;
  }
  /// The size-thresholded clusters finalize() merged the parts into (in
  /// part order); the partitioned sweeps iterate over these.
  [[nodiscard]] const std::vector<bdd::Bdd>& trans_clusters() const {
    return clusters_;
  }
  /// The early-quantification schedules finalize() derived for the
  /// partitioned image / preimage sweeps (cube per cluster).  Exposed for
  /// diagnostics and for snapshot verification (src/persist re-derives
  /// them on load and insists on equality).
  [[nodiscard]] const std::vector<bdd::Bdd>& image_schedule() const {
    return img_sched_;
  }
  [[nodiscard]] const std::vector<bdd::Bdd>& preimage_schedule() const {
    return pre_sched_;
  }
  [[nodiscard]] const std::vector<bdd::Bdd>& fairness() const {
    return fairness_;
  }
  [[nodiscard]] std::optional<bdd::Bdd> label(const std::string& name) const;
  [[nodiscard]] const std::unordered_map<std::string, bdd::Bdd>& labels()
      const {
    return labels_;
  }

  // -- symbolic stepping -----------------------------------------------------

  /// Successors of `states`:  { t | exists s in states. R(s, t) }.
  /// With `care`, the sweep runs over the care-restricted relation; the
  /// result is exact provided `states` implies the care set (see DontCare).
  [[nodiscard]] bdd::Bdd image(const bdd::Bdd& states,
                               ImageMethod method = ImageMethod::kMonolithic,
                               const DontCare* care = nullptr) const;
  /// Predecessors of `states` -- the EX operator:
  /// { s | exists t in states. R(s, t) }.
  /// With `care`, the operand and the intermediate sweep results are
  /// minimized against the care set and the result is intersected with it,
  /// so the returned set is exactly  (EX states) & care->set.
  [[nodiscard]] bdd::Bdd preimage(
      const bdd::Bdd& states, ImageMethod method = ImageMethod::kMonolithic,
      const DontCare* care = nullptr) const;

  /// All states reachable from init (least fixpoint; cached).  The loop
  /// runs under the resumable FixpointGuard "reachable": its record is
  /// {reached, [frontier]}, and a matching record staged on the manager
  /// makes the fixpoint continue from a snapshot instead of init.
  [[nodiscard]] const bdd::Bdd& reachable() const;
  /// Number of states in a set (over the current rail).
  [[nodiscard]] double count_states(const bdd::Bdd& set) const;

  /// Has reachable() completed (the cached set exists)?
  [[nodiscard]] bool reachable_computed() const {
    return !reachable_.is_null();
  }
  /// Install a completed reachable set (snapshot resume).  Validated
  /// cheaply: init must be contained in it.
  void install_reachable(const bdd::Bdd& reached);

  // -- concrete states --------------------------------------------------------

  /// Pick one concrete state out of a nonempty set, as a full minterm
  /// over the current rail.
  [[nodiscard]] bdd::Bdd pick_state(const bdd::Bdd& set) const;
  /// Values of all state variables in a (full-minterm) state.
  [[nodiscard]] std::vector<bool> state_values(const bdd::Bdd& state) const;
  /// Human-readable rendering, e.g. "x=1 y=0"; with `diff_from`, only
  /// variables whose value changed are printed (SMV-style trace output).
  [[nodiscard]] std::string state_string(
      const bdd::Bdd& state, const bdd::Bdd& diff_from = bdd::Bdd()) const;

  /// Does the relation admit at least one successor for every state in
  /// `states`?  (Useful to validate models: CTL semantics expect a total
  /// relation on reachable states.)
  [[nodiscard]] bool is_total_on(const bdd::Bdd& states) const;

  /// Stable FNV-1a structural fingerprint of the finalized system: the
  /// variable table (count + names), the cluster threshold, and the
  /// support sets of init, every transition conjunct, every fairness
  /// constraint and every label (names sorted).  Identical systems
  /// fingerprint identically across runs; systems that differ in any of
  /// those structural ingredients differ.  Used to disambiguate
  /// checkpoint filenames (persist::checkpoint_basename) and as one
  /// ingredient of the serving layer's cache key -- it is deliberately
  /// support-level, not function-level, so it is cheap; the serving layer
  /// layers a semantic (canonical-cover) hash on top (src/serve).
  [[nodiscard]] std::uint64_t fingerprint() const;

  // -- auditing --------------------------------------------------------------

  /// Structural audit of the finalized system:
  ///
  ///   * rail discipline: the current/next quantification cubes are exactly
  ///     the even/odd BDD variables and are disjoint;
  ///   * support containment: init, labels and fairness constraints live on
  ///     the current rail only, transition parts within the two rails;
  ///   * rail moves: prime/unprime round-trip on the initial states;
  ///   * partitioned/monolithic agreement: the cached monolithic relation
  ///     equals a freshly conjoined partition, and image/preimage give the
  ///     same result under both methods (exercising the early-quantification
  ///     schedules).
  ///
  /// Returns "" when consistent, else a diagnostic naming the violated
  /// invariant.
  [[nodiscard]] std::string audit_check() const;
  /// audit_check(), throwing std::logic_error on any violation.  Also runs
  /// automatically at the end of finalize() when bdd::audits_enabled().
  void audit() const;

  /// Write the reachable state graph in Graphviz DOT syntax (each node
  /// labelled with its state_string, initial states doubly circled,
  /// highlighted sets drawn filled).  Throws std::length_error when more
  /// than `max_states` states are reachable -- intended for small models.
  void dump_state_graph(std::ostream& os, std::size_t max_states = 256,
                        const std::vector<bdd::Bdd>& highlight = {}) const;

 private:
  void require_open(const char* what) const;
  void require_finalized(const char* what) const;
  void build_schedules();
  /// Does f depend only on rail `parity` (0 current, 1 next)?
  [[nodiscard]] bool on_rail(const bdd::Bdd& f, std::uint32_t parity) const;

  std::unique_ptr<bdd::Manager> mgr_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, VarId> by_name_;
  bdd::Bdd init_;
  std::vector<bdd::Bdd> parts_;
  std::vector<bdd::Bdd> clusters_;  // parts_ greedily merged by finalize()
  std::size_t cluster_threshold_;
  std::vector<bdd::Bdd> fairness_;
  std::unordered_map<std::string, bdd::Bdd> labels_;
  bool finalized_ = false;

  // Built by finalize():
  bdd::Bdd cur_cube_;
  bdd::Bdd next_cube_;
  // Early-quantification schedule over clusters_: for the image sweep,
  // cube of current variables that may be quantified when conjoining
  // cluster i (they appear in no later cluster); symmetrically for the
  // preimage sweep on next vars.
  std::vector<bdd::Bdd> img_sched_;
  std::vector<bdd::Bdd> pre_sched_;

  mutable bdd::Bdd trans_;        // cached monolithic relation
  mutable bdd::Bdd reachable_;    // cached reachable set
};

}  // namespace symcex::ts
