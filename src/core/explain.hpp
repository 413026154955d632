// SymCeX -- top-level counterexample / witness driver.
//
// Section 6: "when the model checker determines that a formula with a
// universal path quantifier is false, it will find a computation path which
// demonstrates that the negation of the formula is true.  Likewise, when
// the model checker determines that a formula with an existential path
// quantifier is true, it will find a computation path that demonstrates why
// the formula is true.  Note that the counterexample for a universally
// quantified formula is the witness for the dual existentially quantified
// formula."
//
// The Explainer implements that duality by rewriting the specification into
// existential normal form and recursing over its structure at concrete
// states, stitching the EX / EU / EG witness primitives into one linear
// trace.  The classic example: AG (req -> AF ack) false yields a fair path
// from an initial state to a state where req holds, followed by a fair
// lasso along which ack never holds.

#pragma once

#include <optional>
#include <string>

#include "core/checker.hpp"
#include "core/trace.hpp"
#include "core/witness.hpp"
#include "ctl/formula.hpp"

namespace symcex::core {

/// Verdict plus the demonstrating trace (when one exists).
struct Explanation {
  bool holds = false;                ///< does every initial state satisfy it?
  std::optional<Trace> trace;        ///< counterexample (false) / witness (true)
  std::string note;                  ///< one-line description of the trace
  /// State predicates the trace visits to demonstrate the formula (EU
  /// targets, EX successors).  Pass these to core::shorten() so loop
  /// cutting never removes the demonstrating states.
  std::vector<bdd::Bdd> obligations;
  /// Human-readable label per obligation, parallel to `obligations`
  /// (e.g. "reaches: ack" for an EU target).  The evidence renderers use
  /// these to annotate the demonstrating states in the DOT/HTML views, and
  /// the bundle exports them as named "visits" duties.
  std::vector<std::string> obligation_labels;
};

/// Checks a CTL specification and produces the demonstrating execution.
/// For a false universal formula the trace is a counterexample; for a true
/// existential formula it is a witness; when neither direction admits
/// single-path evidence (e.g. a true AG, a false EX) `trace` is empty and
/// `note` says why.
class Explainer {
 public:
  explicit Explainer(Checker& checker, const WitnessOptions& options = {});

  [[nodiscard]] Explanation explain(const ctl::Formula::Ptr& spec);
  [[nodiscard]] Explanation explain(const std::string& spec_text);

  /// Budgeted explain() under Checker::run_checkpointed(): exhaustion
  /// comes back as CheckOutcome::kUnknown (with reason, budget spent and
  /// checkpoint) instead of a thrown guard::ResourceExhausted, and any
  /// partial trace prefix the witness generator salvaged rides along with
  /// trace_is_partial set.
  [[nodiscard]] CheckOutcome check(const ctl::Formula::Ptr& spec);
  [[nodiscard]] CheckOutcome check(const std::string& spec_text);

  /// The witness generator used underneath (for its stats).
  [[nodiscard]] WitnessGenerator& witnesses() { return generator_; }

 private:
  /// Extend `trace` (ending at a state satisfying ENF formula f) with
  /// evidence that f holds there.  Returns false when evidence stops being
  /// a single path (then the trace so far is still valid).
  bool show_true(const ctl::Formula::Ptr& f, Trace& trace);
  /// Extend `trace` (ending at a state violating ENF formula f) with
  /// evidence that f fails there.
  bool show_false(const ctl::Formula::Ptr& f, Trace& trace);

  [[nodiscard]] bdd::Bdd last_state(const Trace& trace) const;

  Checker& checker_;
  WitnessGenerator generator_;
  bool walked_temporal_ = false;
  /// Trace step (prefix, then cycle) of each obligation.
  std::vector<std::size_t> obligation_steps_;
  std::vector<std::string> obligation_labels_;  // parallel to the steps
};

}  // namespace symcex::core
