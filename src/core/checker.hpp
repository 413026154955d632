// SymCeX -- the symbolic CTL model checker (Sections 4 and 5 of the paper).
//
// Check / CheckEX / CheckEU / CheckEG over BDDs, based on the fixpoint
// characterisations
//
//   E[f U g] = lfp Z. [ g | (f & EX Z) ]
//   EG f     = gfp Z. [ f & EX Z ]
//
// plus the fairness-constrained variants of Section 5:
//
//   CheckFairEG(f) = gfp Z. [ f & AND_k EX( E[f U (Z & h_k)] ) ]
//   CheckFairEX(f) = CheckEX(f & fair)
//   CheckFairEU(f,g) = CheckEU(f, g & fair)       with fair = CheckFairEG(true)
//
// The checker also exposes the bookkeeping Section 6 needs for witness
// generation: the increasing approximation sequences ("onion rings")
// Q_0^h <= Q_1^h <= ... of each inner E[f U (Z & h_k)] computation, saved
// during the final iteration of the outer fixpoint.

#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analyze/analyze.hpp"
#include "bdd/bdd.hpp"
#include "ctl/formula.hpp"
#include "guard/guard.hpp"
#include "core/eval_context.hpp"
#include "core/trace.hpp"
#include "persist/persist.hpp"
#include "ts/transition_system.hpp"

namespace symcex::core {

/// Knobs for the checker.
struct CheckOptions {
  /// How preimages are computed (ablation: monolithic vs partitioned).
  ts::ImageMethod image_method = ts::ImageMethod::kMonolithic;
  /// Simplify fixpoint operands and sweeps against the reachable care set
  /// (see EvalContext / DESIGN.md §9).  Unset reads SYMCEX_CARE_SET.
  std::optional<bool> use_care_set;
  /// Enable growth-triggered dynamic variable reordering (pair-grouped
  /// sifting; see src/order and DESIGN.md §10).  Unset reads
  /// SYMCEX_REORDER, which the manager sampled at construction.
  std::optional<bool> reorder;
  /// Restrict every fixpoint to the cone of influence of the property
  /// under check (src/analyze; DESIGN.md §12): transition conjuncts whose
  /// support is disjoint from the cone are dropped before any sweep runs.
  /// Witness traces are re-inflated to full-model traces before
  /// certification, which always replays against the raw unreduced
  /// relation.  Unset reads SYMCEX_COI.
  std::optional<bool> coi;
  /// Directory crash-safe checkpoints (src/persist; DESIGN.md §13) are
  /// written to when a budgeted check exhausts its budget, and -- when a
  /// deadline budget is installed -- once shortly before the deadline
  /// expires (the margin hook; SYMCEX_CHECKPOINT_MARGIN_MS).  Empty means
  /// "use the configured SYMCEX_CHECKPOINT_DIR"; both empty
  /// disables checkpointing.
  std::string checkpoint_dir;
  /// Model name stored in checkpoints and used in their filenames.
  std::string model_name = "model";
};

/// Counters the checker accumulates (reset with reset_stats()).
struct CheckStats {
  std::size_t preimage_calls = 0;   ///< EX evaluations
  std::size_t eu_iterations = 0;    ///< least-fixpoint steps
  std::size_t eg_iterations = 0;    ///< greatest-fixpoint steps (outer, for fair EG)
  std::size_t faireg_reuse_hits = 0;  ///< FairEG results served from the memo
};

/// Result of CheckFairEG with the approximation sequences saved
/// (Section 6: "in the last iteration of the outer fixpoint when
/// Z = EG f, we save the sequence of approximations Q_i^h for each h").
struct FairEG {
  bdd::Bdd states;                          ///< the fair EG f set
  std::vector<bdd::Bdd> constraints;        ///< effective constraint sets H
  /// rings[k][i] = Q_i^{h_k}: states with an f-path of length <= i to
  /// (EG f) & h_k.  rings[k][0] = (EG f) & h_k.
  std::vector<std::vector<bdd::Bdd>> rings;
};

/// Three-valued verdict for budgeted runs.
enum class Verdict {
  kTrue,     ///< the property holds on every initial state
  kFalse,    ///< the property fails on some initial state
  kUnknown,  ///< the budget ran out before a verdict (see CheckOutcome)
};

/// Short stable name of a verdict ("true", "false", "unknown").
[[nodiscard]] const char* verdict_name(Verdict v);

/// The result of a budgeted check.  Exhaustion does not propagate out of
/// the outcome-returning entry points (Checker::check, Explainer::check,
/// StarChecker::check, check_containment): a run the budget kills comes
/// back as kUnknown with the reason, the resource that ran out, the budget
/// spent at the abort, and -- when the witness generator got far enough --
/// the partial trace prefix it had built.  The manager is left audit-clean,
/// so raising the budget and rerunning the same query is always legal.
struct CheckOutcome {
  Verdict verdict = Verdict::kUnknown;
  /// Which resource ran out (set only when verdict == kUnknown).
  std::optional<guard::Resource> exhausted;
  /// Human-readable exhaustion reason (empty on a known verdict).
  std::string reason;
  /// Consumption snapshot at the abort (the manager's diag-folded budget
  /// counters; meaningful only when verdict == kUnknown).
  guard::BudgetSpent spent;
  /// A witness/counterexample when one was produced; on kUnknown this may
  /// carry the partial prefix the witness generator had accumulated.
  std::optional<Trace> trace;
  /// True when `trace` is an incomplete prefix salvaged from an abort.
  bool trace_is_partial = false;
  /// The states `trace` visits to demonstrate the formula and their labels
  /// (Explanation::obligations / obligation_labels; empty without a
  /// complete trace).
  std::vector<bdd::Bdd> obligations;
  std::vector<std::string> obligation_labels;
  /// Path of the crash-safe checkpoint written for this check (set when
  /// checkpointing is enabled and the run was interrupted; see
  /// core::resume_check).  Empty on a known verdict.
  std::string checkpoint_path;

  [[nodiscard]] bool known() const { return verdict != Verdict::kUnknown; }
};

/// The symbolic model checker.  Binds to one finalized TransitionSystem;
/// fairness constraints registered on the system are honoured by the
/// formula-level API and by ex()/eu()/eg().
class Checker {
 public:
  explicit Checker(ts::TransitionSystem& ts, const CheckOptions& options = {});

  [[nodiscard]] ts::TransitionSystem& system() { return ts_; }
  [[nodiscard]] const CheckOptions& options() const { return options_; }
  /// The evaluation context every image/preimage of this checker (and of
  /// the witness/explain/CTL* layers on top of it) goes through.
  [[nodiscard]] EvalContext& context() { return context_; }

  // -- formula level ---------------------------------------------------------

  /// The set of states satisfying the CTL formula f (under the system's
  /// fairness constraints).  Atoms resolve to labels first, then to state
  /// variable names.  Throws on non-CTL formulas and unknown atoms.
  [[nodiscard]] bdd::Bdd states(const ctl::Formula::Ptr& f);
  /// Does every initial state satisfy f?
  [[nodiscard]] bool holds(const ctl::Formula::Ptr& f);
  /// Parse + holds.
  [[nodiscard]] bool holds(const std::string& formula_text);

  /// Budgeted holds() under run_checkpointed(): guard::ResourceExhausted
  /// becomes a three-valued outcome instead of propagating the crash.  Only
  /// completed subformula results are memoized, so rerunning the same
  /// query after install_budget with a larger budget gives the correct
  /// verdict on this same checker and manager.
  [[nodiscard]] CheckOutcome check(const ctl::Formula::Ptr& f);
  /// Parse + check.
  [[nodiscard]] CheckOutcome check(const std::string& formula_text);

  /// Resolve an atomic proposition to a state set (label or variable).
  [[nodiscard]] bdd::Bdd resolve_atom(const std::string& name) const;

  // -- cone of influence (DESIGN.md §12) -------------------------------------

  /// Grow the cone of influence to cover the atoms of `f` and (re)install
  /// the reduction before its fixpoints run.  No-op unless COI is enabled
  /// (CheckOptions::coi / SYMCEX_COI).  The seed set only ever grows, so
  /// checking several properties on one Checker stays sound: each check
  /// runs under a cone covering every property seen so far.  Called
  /// automatically by states()/holds()/check(), Explainer::explain and
  /// check_invariant; exposed for drivers that want the cone staged up
  /// front.  Installing or replacing a reduction clears the memo caches.
  void prepare(const ctl::Formula::Ptr& f);
  /// As above, seeding from explicit state predicates (their supports).
  void prepare(const std::vector<bdd::Bdd>& seeds);
  /// The installed reduction; nullptr when COI is off or nothing drops.
  [[nodiscard]] const analyze::Reduction* reduction() const {
    return reduction_.get();
  }

  /// As states(), but the formula must already be in existential normal
  /// form (only !, &, |, xor, EX, EU, EG over atoms); skips the rewrite.
  /// Used by the explainers, which work on ENF subformulas directly.
  [[nodiscard]] bdd::Bdd states_enf(const ctl::Formula::Ptr& f);

  // -- set level: plain CTL (no fairness) -------------------------------------

  /// EX f: predecessors of f.
  [[nodiscard]] bdd::Bdd ex_raw(const bdd::Bdd& f);
  /// E[f U g] by the least-fixpoint iteration.
  [[nodiscard]] bdd::Bdd eu_raw(const bdd::Bdd& f, const bdd::Bdd& g);
  /// EG f by the greatest-fixpoint iteration.
  [[nodiscard]] bdd::Bdd eg_raw(const bdd::Bdd& f);
  /// The approximation sequence of E[f U g]: result[i] = states with an
  /// f-path of length <= i to g; result.back() is the fixpoint.
  [[nodiscard]] std::vector<bdd::Bdd> eu_rings(const bdd::Bdd& f,
                                               const bdd::Bdd& g);

  // -- set level: fairness-aware ----------------------------------------------

  /// EX f under fairness: EX(f & fair).
  [[nodiscard]] bdd::Bdd ex(const bdd::Bdd& f);
  /// E[f U g] under fairness: E[f U (g & fair)].
  [[nodiscard]] bdd::Bdd eu(const bdd::Bdd& f, const bdd::Bdd& g);
  /// EG f under fairness (CheckFairEG).
  [[nodiscard]] bdd::Bdd eg(const bdd::Bdd& f);
  /// EG f under fairness with the onion rings saved for witness generation.
  /// If the system has no fairness constraints, the single constraint
  /// "true" is used so that the lasso construction of Section 6 still
  /// applies verbatim.
  [[nodiscard]] FairEG eg_with_rings(const bdd::Bdd& f);
  /// EG f under an explicit constraint set (used by the CTL* engine, which
  /// synthesises constraints from GF subformulas).
  [[nodiscard]] FairEG eg_with_rings(const bdd::Bdd& f,
                                     std::vector<bdd::Bdd> constraints);

  /// fair = CheckFairEG(true): states at the start of some fair path.
  /// With no fairness constraints this is EG true (states with some
  /// infinite path).  Cached.
  [[nodiscard]] const bdd::Bdd& fair_states();

  [[nodiscard]] const CheckStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CheckStats{}; }

  // -- crash-safe checkpoint/resume (src/persist; DESIGN.md §13) -------------

  /// Run `body` -- one check of `spec`, which fills in the verdict (and,
  /// for a witness-producing body, the trace and note) -- under the
  /// checkpoint protocol.  With a checkpoint directory configured
  /// (CheckOptions::checkpoint_dir, else SYMCEX_CHECKPOINT_DIR) a margin
  /// hook snapshots the live fixpoint frontiers once, shortly before an
  /// installed deadline expires.  guard::ResourceExhausted from `body`
  /// becomes a kUnknown outcome with a checkpoint of the salvaged
  /// frontiers (falling back to the margin snapshot when that write
  /// fails; a failed write never masks the outcome); a completed run
  /// deletes its margin snapshot.  The manager's salvaged frontiers are
  /// cleared on entry and exit.
  CheckOutcome run_checkpointed(
      const ctl::Formula::Ptr& spec,
      const std::function<void(CheckOutcome&)>& body);

  /// Install the completed fair-states set from a snapshot (resume path;
  /// skips recomputing CheckFairEG(true)).
  void seed_fair(const bdd::Bdd& fair);

 private:
  ts::TransitionSystem& ts_;
  CheckOptions options_;
  EvalContext context_;
  CheckStats stats_;
  // Cone-of-influence state.  The dependency graph is model-fixed and
  // built lazily; seeds accumulate across prepare() calls (one Checker may
  // serve several properties) and the reduction is rebuilt only when the
  // cone actually changes.
  bool coi_requested_;
  std::unique_ptr<analyze::DepGraph> depgraph_;
  std::vector<bdd::Bdd> coi_seeds_;
  std::vector<bool> coi_seed_vars_;  // union of seed supports, by VarId
  bool coi_prepared_ = false;        // prepare() ran at least once
  std::unique_ptr<analyze::Reduction> reduction_;
  bdd::Bdd fair_;  // cache of fair_states()
  // Keyed on structure, not identity: check and explain each build their
  // own existential-normal-form tree, and a resident session parses every
  // job's spec afresh, so an identity key would never hit across them.
  struct FormulaHash {
    std::size_t operator()(const ctl::Formula::Ptr& f) const {
      return static_cast<std::size_t>(ctl::formula_hash(f));
    }
  };
  struct FormulaEqual {
    bool operator()(const ctl::Formula::Ptr& a,
                    const ctl::Formula::Ptr& b) const {
      return ctl::equal(a, b);
    }
  };
  std::unordered_map<ctl::Formula::Ptr, bdd::Bdd, FormulaHash, FormulaEqual>
      memo_;
  // FairEG memo keyed on (formula BDD, constraint set): check-then-explain
  // and fair_states()/fair-true witnesses share one fair-EG computation.
  struct FairEGEntry {
    bdd::Bdd f;
    std::vector<bdd::Bdd> constraints;
    FairEG result;
  };
  std::vector<FairEGEntry> faireg_memo_;

  /// Write a checkpoint for `spec` into `dir`: the transition system, the
  /// effective options, completed results (reachable set, fair states),
  /// and the manager's salvaged frontiers plus, when `include_live` is
  /// set, the running loops' ones.  Returns the path, or "" when the write
  /// fails.
  std::string write_checkpoint(const std::string& dir,
                               const ctl::Formula::Ptr& spec,
                               const guard::BudgetSpent& spent,
                               bool include_live);
};

/// A check rehydrated from a crash-safe checkpoint: the rebuilt, verified
/// transition system (completed sets installed, interrupted frontiers
/// staged on its manager), a checker with the snapshot's options, and the
/// specification to re-run.  `checker->check(spec)` continues the
/// interrupted fixpoints from their saved iterates and produces a verdict,
/// trace, and evidence bundle byte-identical to an uninterrupted run's.
struct ResumedCheck {
  std::unique_ptr<ts::TransitionSystem> system;
  std::unique_ptr<Checker> checker;
  ctl::Formula::Ptr spec;
  std::string formula;             ///< display text of spec
  std::string model_name;
  guard::BudgetSpent prior_spent;  ///< consumption of the interrupted run
};

/// Load a checkpoint written by Checker/Explainer and stage the resume.
/// `extra` supplies the options a snapshot does not store (checkpoint_dir
/// for re-checkpointing); the snapshot's own
/// image method, care-set, COI, and reorder flags always win, so the
/// resumed run replays the interrupted configuration.  Throws
/// persist::SnapshotError on a corrupt or incompatible snapshot.
[[nodiscard]] ResumedCheck resume_check(const std::string& path,
                                        const CheckOptions& extra = {});

}  // namespace symcex::core
