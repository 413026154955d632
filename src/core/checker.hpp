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
  /// Memoise states() results per formula node (identity-based).
  bool memoize = true;
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
  /// Directory evidence bundles for checked results are written to.  The
  /// checker core never writes files itself; this field is plumbing for
  /// the drivers (examples/smv_check, tests) which pass it to
  /// evidence::emit_files after each check.  Empty means "use the
  /// SYMCEX_EVIDENCE_DIR environment variable" (evidence::default_dir());
  /// both empty disables emission.
  std::string evidence_dir;
  /// Directory crash-safe checkpoints (src/persist; DESIGN.md §13) are
  /// written to when a budgeted check exhausts its budget, and -- when a
  /// deadline budget is installed -- once shortly before the deadline
  /// expires (the margin hook; SYMCEX_CHECKPOINT_MARGIN_MS).  Empty means
  /// "use the SYMCEX_CHECKPOINT_DIR environment variable"; both empty
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
  /// Path of the crash-safe checkpoint written for this check (set when
  /// checkpointing is enabled and the run was interrupted; see
  /// core::resume_check).  Empty on a known verdict.
  std::string checkpoint_path;

  [[nodiscard]] bool known() const { return verdict != Verdict::kUnknown; }
};

class LoopScope;  // RAII frontier publisher (checker.cpp)

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

  /// Budgeted holds(): catches guard::ResourceExhausted and returns a
  /// three-valued outcome instead of propagating the crash.  Only
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

  /// The effective checkpoint directory: CheckOptions::checkpoint_dir, or
  /// SYMCEX_CHECKPOINT_DIR when that is empty.  Empty = disabled.
  [[nodiscard]] std::string checkpoint_dir() const;

  /// Write a checkpoint for `spec` right now: the transition system, the
  /// effective options, completed results (reachable set, fair states),
  /// and the fixpoint frontiers -- salvaged ones after an abort, plus the
  /// currently running loops when `include_live` is set (the deadline-
  /// margin hook fires mid-fixpoint).  Returns the path, or "" when
  /// checkpointing is disabled.  A checkpoint failure never masks the
  /// check verdict: I/O errors are swallowed and "" is returned.
  std::string write_checkpoint(const ctl::Formula::Ptr& spec,
                               const guard::BudgetSpent& spent,
                               bool include_live);

  /// Install the completed fair-states set from a snapshot (resume path;
  /// skips recomputing CheckFairEG(true)).
  void seed_fair(const bdd::Bdd& fair);

  /// Install interrupted fixpoint frontiers from a snapshot.  Each loop
  /// (eu / eu_rings / eg / fair_eg_rings) consumes the frontier whose
  /// operands match its own (canonicity makes that exact handle equality)
  /// and continues from the saved iterate instead of its base case; a
  /// monotone fixpoint continued from one of its own iterates converges
  /// to the identical result, so the resumed verdict, trace, and evidence
  /// bundle are byte-identical to an uninterrupted run's.
  void seed_frontiers(std::vector<persist::Frontier> frontiers);

  /// Clear the per-check crash-safe state (salvaged frontiers, margin
  /// checkpoint path).  check() and Explainer::check call this on entry.
  void reset_checkpoint_state();
  /// Path the deadline-margin hook wrote during the current check, "" if
  /// it never fired.  An aborted run falls back to this when the
  /// abort-time checkpoint write itself fails.
  [[nodiscard]] const std::string& pending_checkpoint() const {
    return pending_checkpoint_;
  }
  /// Remove the margin checkpoint after a completed run (a known verdict
  /// needs no resume point).
  void discard_pending_checkpoint();

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
  // Keyed on shared_ptr (not raw pointer): holding the node alive keeps
  // its address from being recycled by a later formula's allocation.
  std::unordered_map<ctl::Formula::Ptr, bdd::Bdd> memo_;
  // FairEG memo keyed on (formula BDD, constraint set): check-then-explain
  // and fair_states()/fair-true witnesses share one fair-EG computation.
  struct FairEGEntry {
    bdd::Bdd f;
    std::vector<bdd::Bdd> constraints;
    FairEG result;
  };
  std::vector<FairEGEntry> faireg_memo_;

  // Crash-safe checkpoint state.  Every fixpoint loop keeps one LiveLoop
  // entry on this stack, refreshed each iteration (two handle assigns);
  // on exception unwind LoopScope moves the entry to salvaged_, and the
  // deadline-margin hook reads the stack directly while the loops run.
  struct LiveLoop {
    const char* loop;                      // guard loop name ("eu", ...)
    std::vector<bdd::Bdd> operands;        // the loop's inputs, for matching
    bdd::Bdd z;                            // last completed iterate
    const std::vector<bdd::Bdd>* rings;    // ring loops: the whole sequence
    std::uint64_t iteration = 0;
  };
  std::vector<LiveLoop> live_loops_;
  std::vector<persist::Frontier> salvaged_;
  std::vector<persist::Frontier> resume_frontiers_;
  std::string pending_checkpoint_;  // written by the margin hook this check

  /// Pop and return the resume frontier matching (loop, operands), if any.
  std::optional<persist::Frontier> take_frontier(
      const char* loop, const std::vector<bdd::Bdd>& operands);
  /// Collect the frontiers a checkpoint should carry (salvaged + reach
  /// progress + optionally the live stack).
  std::vector<persist::Frontier> collect_frontiers(bool include_live);

  friend class LoopScope;
};

/// A check rehydrated from a crash-safe checkpoint: the rebuilt, verified
/// transition system, a checker with the snapshot's options and seeds
/// (completed sets installed, interrupted frontiers staged), and the
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
/// `extra` supplies the options a snapshot does not store (memoize,
/// evidence_dir, checkpoint_dir for re-checkpointing); the snapshot's own
/// image method, care-set, COI, and reorder flags always win, so the
/// resumed run replays the interrupted configuration.  Throws
/// persist::SnapshotError on a corrupt or incompatible snapshot.
[[nodiscard]] ResumedCheck resume_check(const std::string& path,
                                        const CheckOptions& extra = {});

}  // namespace symcex::core
