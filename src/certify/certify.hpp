// SymCeX -- independent certification of counterexamples and witnesses.
//
// The paper's contribution is that a symbolic model checker should hand the
// user *checkable evidence*: a finite witness (prefix + repeating cycle)
// demonstrating the verdict.  This module closes the loop by re-checking
// every emitted trace end-to-end through deliberately independent code, in
// the spirit of self-certifying model checkers (iSMC) and proof-generating
// BDD engines (Bryant-Heule):
//
//   * states are decoded to concrete assignments and re-encoded, so
//     "this entry is exactly one state" is a canonicity comparison, not a
//     sat count;
//   * transition membership is decided by evaluating every conjunct of the
//     transition relation on the concrete (current, next) assignment pair
//     with Bdd::eval -- a plain top-down walk that shares nothing with the
//     AndExists/image machinery the generator used;
//   * semantic obligations (EG invariance, fairness visits, EU prefixes,
//     the CTL* fragment's GF/FG duties) are checked pointwise on the
//     decoded states;
//   * every edge is re-derived a second way (cross-engine check): the
//     image of the source state, computed by the rel_next image sweep
//     the explicit engine builds its successor lists from, must meet the
//     target.  The check is local to the trace, so it costs one image per
//     edge and runs on every model, whatever its size.
//
// The result is a Certificate: a structured per-obligation pass/fail list,
// not a bool, so a failure names exactly which duty the trace violated.
//
// Set SYMCEX_CERTIFY=1 (config::Config::certify) and the generators in
// core/, ctlstar/ and automata/ certify every trace they emit, throwing
// CertificationError naming the failed obligation.

#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/trace.hpp"
#include "explicit/explicit_checker.hpp"
#include "explicit/explicit_graph.hpp"
#include "ts/transition_system.hpp"

namespace symcex::certify {

/// Is auto-certification on?  config::current().certify (SYMCEX_CERTIFY),
/// read on every call, so it follows each config::install.  When on,
/// WitnessGenerator / Explainer / StarChecker / check_containment certify
/// every trace they emit.
[[nodiscard]] bool enabled();

/// One named proof obligation of a certificate.
struct Obligation {
  std::string name;    ///< e.g. "edge[3]", "cycle-closed", "fairness[1]"
  bool ok = false;
  std::string detail;  ///< diagnostic on failure, annotation otherwise
};

/// The outcome of certifying one artifact: a pass/fail list per obligation.
struct Certificate {
  std::vector<Obligation> obligations;

  [[nodiscard]] bool ok() const;
  /// The first failed obligation, or nullptr if all passed.
  [[nodiscard]] const Obligation* first_failure() const;
  /// Multi-line rendering, one obligation per line ("PASS name" / "FAIL
  /// name: detail").
  [[nodiscard]] std::string to_string() const;

  /// JSON rendering of the obligation list (deterministic, strictly valid;
  /// shared writer from diag/json.hpp):
  ///   [{"name": ..., "ok": true|false, "detail": ...}, ...]
  /// This is the form the evidence bundle embeds, so a third party can see
  /// -- and symcex-verify can re-check -- exactly which duties the engine
  /// claims to have discharged.
  void write_json(std::ostream& os) const;

  /// Append an obligation (also feeds the diag "certify" counters).
  void require(std::string name, bool ok, std::string detail = "");
};

/// Thrown by the auto-certification hooks when a certificate fails.
class CertificationError : public std::logic_error {
 public:
  CertificationError(const std::string& context, Certificate certificate);
  [[nodiscard]] const Certificate& certificate() const { return cert_; }

 private:
  Certificate cert_;
};

/// Throw CertificationError (and count the failure in diag) unless the
/// certificate passed.  `context` names the emitting call site.
void require_certified(const Certificate& certificate,
                       const std::string& context);

/// One conjunct of the restricted CTL* fragment E AND_j (GF p_j | FG q_j)
/// at the state-set level; a false/null side means that disjunct is absent.
struct FragmentDuty {
  bdd::Bdd gf;  ///< the GF side
  bdd::Bdd fg;  ///< the FG side
};

/// Semantic trace certifier bound to one finalized TransitionSystem.  It
/// holds no state besides the system, so constructing one is free and its
/// cost is proportional to the trace, not to the model.
///
/// Independence note: the certifier binds to the raw TransitionSystem and
/// decides transition membership by evaluating every trans_parts()
/// conjunct on concrete assignments; the cross-engine pass re-derives each
/// edge from the image of its source state.  Neither is routed
/// through core::EvalContext, so the care-set-restricted relation copies
/// and merged clusters used by the generators (SYMCEX_CARE_SET=1,
/// SYMCEX_CLUSTER_THRESHOLD) can never leak into certification: a trace
/// produced from a simplified sweep is always re-checked against the
/// unsimplified relation.
class TraceCertifier {
 public:
  explicit TraceCertifier(const ts::TransitionSystem& ts);

  /// Structural obligations only: every entry denotes exactly one state,
  /// every consecutive pair (and the cycle wrap-around) is a transition.
  [[nodiscard]] Certificate certify_path(const core::Trace& trace) const;

  /// EG f under fairness constraints: structure, a non-empty cycle, every
  /// state satisfies f, and every constraint is visited on the cycle.
  [[nodiscard]] Certificate certify_eg(
      const core::Trace& trace, const bdd::Bdd& f,
      const std::vector<bdd::Bdd>& constraints) const;

  /// E[f U g]: structure, some state satisfies g, f holds strictly before
  /// it.  (A fair extension beyond the g-state is allowed and only checked
  /// structurally.)
  [[nodiscard]] Certificate certify_eu(const core::Trace& trace,
                                       const bdd::Bdd& f,
                                       const bdd::Bdd& g) const;

  /// EX f: structure and a second state satisfying f.
  [[nodiscard]] Certificate certify_ex(const core::Trace& trace,
                                       const bdd::Bdd& f) const;

  /// The restricted CTL* fragment E AND_j (GF p_j | FG q_j): structure, a
  /// non-empty cycle, and per conjunct either the GF target is hit on the
  /// cycle or the FG predicate is invariant on it.
  [[nodiscard]] Certificate certify_fragment(
      const core::Trace& trace, const std::vector<FragmentDuty>& duties) const;

  /// Partial evidence salvaged from a budget-aborted construction
  /// (WitnessGenerator::take_partial): a finite path -- no cycle -- whose
  /// every state satisfies f and whose every step is a real transition.
  /// Weaker than certify_eg (nothing is promised about what the full lasso
  /// would have been), but enough to make a kUnknown outcome's partial
  /// trace trustworthy.
  [[nodiscard]] Certificate certify_prefix(const core::Trace& trace,
                                           const bdd::Bdd& f) const;

 private:
  void check_structure(const core::Trace& trace, Certificate& cert,
                       std::vector<std::vector<bool>>& decoded) const;
  /// Decode a (claimed) single-state minterm; returns false on failure.
  bool decode_state(const bdd::Bdd& state, std::vector<bool>& values,
                    std::string& why) const;
  [[nodiscard]] bool eval_on_state(const bdd::Bdd& predicate,
                                   const std::vector<bool>& state) const;
  [[nodiscard]] bool has_transition(const std::vector<bool>& from,
                                    const std::vector<bool>& to) const;

  const ts::TransitionSystem& ts_;
};

// -- order independence ------------------------------------------------------

/// Certify that a trace's validity and rendering survive a variable
/// reorder: certify_path before, snapshot the SMV-style rendering, force a
/// sifting pass on the system's manager (ts is non-const for exactly this
/// reason), certify_path again, and require the rendering unchanged
/// bit-for-bit.  Passing this means the trace's meaning is a property of
/// the functions, not of the level permutation they happen to be stored
/// under.  The reorder is a real, persistent reorder of the manager --
/// callers that care about the order must re-reorder themselves.
[[nodiscard]] Certificate certify_order_independence(ts::TransitionSystem& ts,
                                                     const core::Trace& trace);

// -- explicit-engine witnesses ----------------------------------------------
//
// The same notion of "valid trace" for the enumerative engine: both engines
// route their artifacts through this module (satisfying the shared-certifier
// contract of the tests).

/// Structure only: consecutive (and wrap-around) pairs are graph edges.
[[nodiscard]] Certificate certify_explicit_path(
    const enumerative::Graph& graph, const enumerative::FiniteWitness& w);

/// Fair EG over a graph: structure, non-empty cycle, every state in f,
/// every fairness set of the graph visited on the cycle.
[[nodiscard]] Certificate certify_explicit_eg(
    const enumerative::Graph& graph, const enumerative::FiniteWitness& w,
    const enumerative::StateSet& f);

/// E[f U g] over a graph: structure, a g-state is reached, f holds strictly
/// before it.
[[nodiscard]] Certificate certify_explicit_eu(
    const enumerative::Graph& graph, const enumerative::FiniteWitness& w,
    const enumerative::StateSet& f, const enumerative::StateSet& g);

}  // namespace symcex::certify
