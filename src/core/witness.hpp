// SymCeX -- witness and counterexample generation (Section 6 of the paper).
//
// The central algorithm: given a state s satisfying EG f under fairness
// constraints H = {h_1..h_n}, build a finite witness (prefix + repeating
// cycle) such that every state satisfies f and every h in H is visited on
// the cycle.  The construction uses the "onion ring" approximation
// sequences Q_i^h saved by the model checker during the final iteration of
// the CheckFairEG fixpoint:
//
//   1. From the current state, choose the fairness constraint whose ring
//      family is hit soonest by a successor (test Q_i^h for increasing i),
//      then descend Q_i -> Q_{i-1} -> ... -> Q_0 picking one concrete
//      successor per step; this lands on a state in (EG f) & h.  Eliminate
//      h and repeat until every constraint has been visited.  Let t be the
//      first state of this segment (the chosen successor of s) and s' the
//      last.
//   2. Close the cycle with a non-trivial path from s' back to t: a witness
//      for {s'} & EX E[f U {t}].  If no such path exists, restart the
//      procedure from s'; each restart strictly descends the DAG of
//      strongly connected components (Figure 2), so a terminal SCC -- where
//      closure must succeed -- is eventually reached.
//
// Two cycle-closure strategies are provided (both from the paper):
// plain restart, and the "slightly more sophisticated" variant that
// precomputes E[(EG f) U {t}] and restarts the moment the segment leaves
// that set.
//
// Witnesses for E[f U g] and EX f walk the EU rings / one image step and
// are extended to infinite fair paths with an EG-true lasso.

#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "bdd/bdd.hpp"
#include "certify/certify.hpp"
#include "core/checker.hpp"
#include "core/trace.hpp"

namespace symcex::core {

/// How the fair-EG cycle is closed (Section 6, both described in the paper).
enum class CycleCloseStrategy {
  /// Try to close; on failure restart the whole construction from s'.
  kRestart,
  /// Precompute E[(EG f) U {t}] and restart as soon as the segment first
  /// leaves that set (the cycle can then never be completed through t).
  kEarlyExit,
};

struct WitnessOptions {
  CycleCloseStrategy strategy = CycleCloseStrategy::kRestart;
  /// Extend EX/EU witnesses to infinite fair paths with an EG-true lasso.
  bool extend_to_fair_path = true;
  /// Mark a pending fairness constraint as visited when the walk lands on
  /// a state already satisfying it (shortens witnesses; the paper's
  /// construction only counts ring descents).
  bool mark_satisfied_in_place = true;
  /// Defensive bound on restarts (the SCC-DAG argument guarantees
  /// termination; this catches internal errors).  0 = #states bound.
  std::size_t max_restarts = 0;
};

struct WitnessStats {
  std::size_t restarts = 0;     ///< SCC-DAG descents during cycle closure
  std::size_t ring_steps = 0;   ///< concrete states picked from rings
  std::size_t early_exits = 0;  ///< restarts triggered by the early-exit set
};

/// Generates witnesses for the three basic CTL operators under fairness.
/// Counterexamples for universal formulas are witnesses for the dual
/// existential formulas (handled by core::Explainer on top of this).
class WitnessGenerator {
 public:
  explicit WitnessGenerator(Checker& checker, const WitnessOptions& options = {});

  /// Witness for EG f (under the system's fairness constraints) starting
  /// at some state of `from` that satisfies EG f.  Throws if none does.
  [[nodiscard]] Trace eg(const bdd::Bdd& f, const bdd::Bdd& from);

  /// As above, reusing a precomputed FairEG (with rings) for `f_states`;
  /// `f_states` is the invariant set f itself (not the EG result).
  [[nodiscard]] Trace eg(const FairEG& info, const bdd::Bdd& f_states,
                         const bdd::Bdd& from);

  /// Witness for E[f U g] under fairness from a state of `from`:
  /// a finite f-path to a (g & fair)-state, extended (by option) to an
  /// infinite fair path.
  [[nodiscard]] Trace eu(const bdd::Bdd& f, const bdd::Bdd& g,
                         const bdd::Bdd& from);

  /// Witness for EX f under fairness from a state of `from`.
  [[nodiscard]] Trace ex(const bdd::Bdd& f, const bdd::Bdd& from);

  /// Finite f-path from a state of `from` to a state of `g`, following
  /// precomputed EU rings (no fair extension).  Building block used by eu()
  /// and by the explainers.  Checks once, on entry, that the rings form an
  /// increasing chain; a broken link throws certify::CertificationError
  /// ("ring-chain-monotone").
  [[nodiscard]] std::vector<bdd::Bdd> walk_rings(
      const std::vector<bdd::Bdd>& rings, const bdd::Bdd& from);

  [[nodiscard]] const WitnessStats& stats() const { return stats_; }
  void reset_stats() { stats_ = WitnessStats{}; }

  /// The partial path prefix salvaged from the most recent construction a
  /// guard::ResourceExhausted aborted, if any (consumed on read).  Every
  /// consecutive pair is a real transition and every state satisfies the
  /// invariant of the aborted EG -- certifiable with
  /// certify::TraceCertifier::certify_prefix.  Explainer::check attaches
  /// it to the kUnknown outcome automatically.
  [[nodiscard]] std::optional<Trace> take_partial();

  /// Extend a finite trace ending in a fair state to an infinite fair path
  /// by appending an EG-true lasso (the paper's "extend witnesses for
  /// E[f U g] and EX f to infinite fair paths").
  void extend_to_fair(Trace& trace);

 private:
  /// One attempt-loop of the Section 6 construction from concrete state s.
  [[nodiscard]] Trace eg_lasso(const FairEG& info, const bdd::Bdd& f_states,
                               bdd::Bdd s);
  /// Cached CheckFairEG(true) with rings (reused by every extension).
  [[nodiscard]] const FairEG& fair_true();
  /// Lazily constructed certifier used when certify::enabled(): every
  /// emitted trace is re-checked through the independent semantic checker
  /// and a failed obligation aborts with certify::CertificationError.
  [[nodiscard]] certify::TraceCertifier& certifier();

  Checker& checker_;
  WitnessOptions options_;
  WitnessStats stats_;
  FairEG fair_true_info_;
  bool have_fair_true_ = false;
  std::unique_ptr<certify::TraceCertifier> certifier_;
  std::optional<Trace> partial_;  // salvage from an exhaustion abort
};

/// Re-simulate the variables a COI reduction dropped from `trace` against
/// the RAW relation of `ts`, in place, so certification and every
/// downstream consumer see a genuine full-model execution (DESIGN.md §12).
/// A step that cannot be inflated is a soundness escape of the reduction
/// (a deadlocked dropped component); it throws certify::CertificationError
/// with the obligation "coi-trace-inflation", raised from `where`.
void inflate_reduced_trace(const ts::TransitionSystem& ts,
                           const analyze::Reduction& reduction, Trace& trace,
                           const std::string& where);

}  // namespace symcex::core
