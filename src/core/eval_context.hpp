// SymCeX -- the shared evaluation context (DESIGN.md §9).
//
// Every fixpoint the checker, witness generator, explainer, CTL* engine
// and containment product run is a chain of image/preimage calls.  The
// EvalContext is the single seam those calls go through: it picks the
// ts::Relation they sweep (the system's or an installed reduction's, under
// the configured ImageMethod) and, when care-set simplification is on
// (SYMCEX_CARE_SET=1 or CheckOptions::use_care_set), owns the
// reachable-state care set and the relation restricted to it.
//
// Soundness contract (proved in DESIGN.md §9):
//
//   * the care set C is the reachable states, which are closed under the
//     transition relation, so restricting the relation's current-rail rows
//     to C keeps image() exact for any operand inside C;
//   * preimage() returns exactly (EX Z) & C for arbitrary Z -- a canonical
//     BDD determined by Z's values on C -- so fixpoints terminate and all
//     checker-level identities hold as BDD equalities, not just on C;
//   * verdicts compare init against result sets; init is inside C and the
//     results agree with the exact semantics on C, so verdicts are
//     unchanged.
//
// The care set is computed lazily on the first image/preimage and is
// budget-aware: if the reachability fixpoint exhausts the installed
// guard::ResourceBudget, the context falls back to exact sweeps (care is
// an optimisation; losing the budget race must not fail the query).
// certify::TraceCertifier is deliberately NOT routed through this class:
// it re-checks traces against the raw per-conjunct relation, so a bug in
// the simplification machinery can never certify its own output.

#pragma once

#include <optional>

#include "analyze/analyze.hpp"
#include "bdd/bdd.hpp"
#include "ts/transition_system.hpp"

namespace symcex::core {

/// Context-mediated image/preimage.  One per Checker; shared by reference
/// with everything layered on that checker.
class EvalContext {
 public:
  /// `use_care_set`: nullopt reads config::current().care_set.
  EvalContext(ts::TransitionSystem& ts, ts::ImageMethod method,
              std::optional<bool> use_care_set);

  EvalContext(const EvalContext&) = delete;
  EvalContext& operator=(const EvalContext&) = delete;

  [[nodiscard]] ts::TransitionSystem& system() { return ts_; }
  [[nodiscard]] ts::ImageMethod method() const { return method_; }
  /// Route every sweep through a cone-of-influence reduction (nullptr to
  /// uninstall; DESIGN.md §12).  Resets the lazy relation and care-set
  /// state: under a reduction the care set is the reduced reachable states
  /// and the restricted relation is built from the reduced one.  The
  /// pointer is owned by the installing Checker and must outlive its use.
  void set_reduction(const analyze::Reduction* reduction);
  /// The active reduction, or nullptr when sweeps are exact.
  [[nodiscard]] const analyze::Reduction* reduction() const {
    return reduction_;
  }

  /// Was simplification requested (option or configuration)?
  [[nodiscard]] bool care_requested() const { return care_requested_; }
  /// Forces the lazy setup; true when simplified sweeps are in use (false
  /// when not requested, the care set is trivial, or the budget ran out).
  [[nodiscard]] bool care_active();
  /// The care set; the constant one while care is inactive.
  [[nodiscard]] const bdd::Bdd& care_set();

  /// Successors of `states`.  Exact: every caller feeds reachable states
  /// (path states, frontiers, picked minterms), which is asserted in debug
  /// builds when care is active.
  [[nodiscard]] bdd::Bdd image(const bdd::Bdd& states);
  /// Predecessors of `states`; with care active this is (EX states) & C.
  [[nodiscard]] bdd::Bdd preimage(const bdd::Bdd& states);

 private:
  void ensure_care();
  /// The relation sweeps run on: the restricted copy while care is active,
  /// else the exact one.
  const ts::Relation& relation();
  /// The exact relation of the installed view under method_ (resolved on
  /// first use: the one-cluster relation is conjoined lazily).
  const ts::Relation& exact();

  ts::TransitionSystem& ts_;
  ts::ImageMethod method_;
  const analyze::Reduction* reduction_ = nullptr;
  const ts::Relation* exact_ = nullptr;
  bool care_requested_;
  bool care_ready_ = false;  ///< lazy setup ran (activated or fell back)
  std::optional<ts::Relation> restricted_;  ///< set while care is active
  bdd::Bdd trivial_care_;    ///< constant one, returned while inactive
};

}  // namespace symcex::core
