#include "core/explain.hpp"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analyze/analyze.hpp"
#include "certify/certify.hpp"

namespace symcex::core {

using ctl::Formula;
using ctl::Kind;

Explainer::Explainer(Checker& checker, const WitnessOptions& options)
    : checker_(checker), generator_(checker, options) {}

bdd::Bdd Explainer::last_state(const Trace& trace) const {
  if (trace.is_lasso() || trace.prefix.empty()) {
    throw std::logic_error("Explainer: trace has no extendable end state");
  }
  return trace.prefix.back();
}

Explanation Explainer::explain(const std::string& spec_text) {
  return explain(ctl::parse(spec_text));
}

CheckOutcome Explainer::check(const std::string& spec_text) {
  return check(ctl::parse(spec_text));
}

CheckOutcome Explainer::check(const Formula::Ptr& spec) {
  CheckOutcome out = checker_.run_checkpointed(spec, [&](CheckOutcome& o) {
    Explanation explanation = explain(spec);
    o.verdict = explanation.holds ? Verdict::kTrue : Verdict::kFalse;
    o.trace = std::move(explanation.trace);
    o.reason = std::move(explanation.note);
    o.obligations = std::move(explanation.obligations);
    o.obligation_labels = std::move(explanation.obligation_labels);
  });
  // The witness generator may have salvaged a path prefix before the
  // abort; surface it (it is certifiable as a prefix).
  if (!out.known()) {
    if (auto partial = generator_.take_partial()) {
      out.trace = std::move(partial);
      out.trace_is_partial = true;
    }
  }
  return out;
}

Explanation Explainer::explain(const Formula::Ptr& spec) {
  auto& ts = checker_.system();
  checker_.prepare(spec);
  const Formula::Ptr enf = ctl::to_existential_normal_form(spec);
  const bdd::Bdd sat = checker_.states_enf(enf);
  Explanation out;
  out.holds = ts.init().implies(sat);
  walked_temporal_ = false;
  obligation_steps_.clear();
  obligation_labels_.clear();

  Trace trace;
  if (out.holds) {
    if (ts.init().is_false()) {
      out.note = "vacuously true: no initial states";
      return out;
    }
    trace.prefix.push_back(ts.pick_state(ts.init()));
    show_true(enf, trace);
    out.note = walked_temporal_
                   ? "witness: execution demonstrating the formula"
                   : "formula holds; universal properties have no "
                     "single-path witness";
  } else {
    trace.prefix.push_back(ts.pick_state(ts.init() - sat));
    show_false(enf, trace);
    out.note = walked_temporal_
                   ? "counterexample: execution violating the formula"
                   : "counterexample: initial state violating the formula";
  }

  // Extend finite temporal evidence to an infinite fair execution, as the
  // paper prescribes for EU/EX witnesses.
  if (walked_temporal_ && !trace.is_lasso()) {
    if (trace.prefix.back().intersects(checker_.fair_states())) {
      generator_.extend_to_fair(trace);
    }
  }

  const bool informative =
      walked_temporal_ || trace.is_lasso() || trace.length() > 1 || !out.holds;
  if (informative) {
    if (const analyze::Reduction* reduction = checker_.context().reduction()) {
      // The trace was built in the reduced model, where the dropped
      // variables carry arbitrary values.
      inflate_reduced_trace(ts, *reduction, trace, "Explainer::explain");
    }
    // An obligation is the trace's state at its step.  Re-inflation keeps
    // every step in place, so a reduced run records the full states an
    // unreduced run of the same trace records.
    for (const std::size_t step : obligation_steps_) {
      out.obligations.push_back(step < trace.prefix.size()
                                    ? trace.prefix[step]
                                    : trace.cycle[step - trace.prefix.size()]);
    }
    // The stitched trace mixes sub-formula semantics, so the certifier
    // re-checks the structural duties: every state a single concrete
    // minterm, every step a transition, the lasso (if any) closed.
    if (certify::enabled()) {
      certify::TraceCertifier certifier(ts);
      certify::require_certified(certifier.certify_path(trace),
                                 "Explainer::explain");
    }
    out.trace = std::move(trace);
    out.obligation_labels = obligation_labels_;
  }
  return out;
}

bool Explainer::show_true(const Formula::Ptr& f, Trace& trace) {
  if (trace.is_lasso()) return true;  // an EG lasso already closed the path
  const bdd::Bdd here = last_state(trace);
  switch (f->kind()) {
    case Kind::kTrue:
    case Kind::kAtom:
      return true;
    case Kind::kFalse:
      throw std::logic_error("show_true: false cannot hold");
    case Kind::kNot:
      return show_false(f->lhs(), trace);
    case Kind::kAnd: {
      // Both hold; a single path can demonstrate only one temporal
      // conjunct, so prefer the one with temporal content.
      if (ctl::is_propositional(f->lhs())) return show_true(f->rhs(), trace);
      return show_true(f->lhs(), trace);
    }
    case Kind::kOr: {
      const bool lhs_holds = here.implies(checker_.states_enf(f->lhs()));
      const bool rhs_holds = here.implies(checker_.states_enf(f->rhs()));
      // Demonstrate a true propositional disjunct for the shortest trace,
      // otherwise whichever temporal disjunct holds.
      if (lhs_holds && ctl::is_propositional(f->lhs())) return true;
      if (rhs_holds && ctl::is_propositional(f->rhs())) return true;
      return show_true(lhs_holds ? f->lhs() : f->rhs(), trace);
    }
    case Kind::kXor: {
      const bool lhs_holds = here.implies(checker_.states_enf(f->lhs()));
      return lhs_holds ? show_true(f->lhs(), trace)
                       : show_true(f->rhs(), trace);
    }
    case Kind::kEX: {
      walked_temporal_ = true;
      const bdd::Bdd good =
          checker_.states_enf(f->lhs()) & checker_.fair_states();
      auto& ts = checker_.system();
      const bdd::Bdd t =
          ts.pick_state(checker_.context().image(here) & good);
      trace.prefix.push_back(t);
      // The chosen successor must survive cuts.
      obligation_steps_.push_back(trace.prefix.size() - 1);
      obligation_labels_.push_back("EX successor: " + ctl::to_string(f->lhs()));
      return show_true(f->lhs(), trace);
    }
    case Kind::kEU: {
      walked_temporal_ = true;
      const bdd::Bdd inv = checker_.states_enf(f->lhs());
      const bdd::Bdd target =
          checker_.states_enf(f->rhs()) & checker_.fair_states();
      const std::vector<bdd::Bdd> rings = checker_.eu_rings(inv, target);
      std::vector<bdd::Bdd> path = generator_.walk_rings(rings, here);
      trace.prefix.insert(trace.prefix.end(), path.begin() + 1, path.end());
      // The reached target state.
      obligation_steps_.push_back(trace.prefix.size() - 1);
      obligation_labels_.push_back("reaches: " + ctl::to_string(f->rhs()));
      return show_true(f->rhs(), trace);
    }
    case Kind::kEG: {
      walked_temporal_ = true;
      const bdd::Bdd inv = checker_.states_enf(f->lhs());
      const Trace lasso = generator_.eg(inv, here);
      trace.prefix.pop_back();
      trace.prefix.insert(trace.prefix.end(), lasso.prefix.begin(),
                          lasso.prefix.end());
      trace.cycle = lasso.cycle;
      return true;
    }
    default:
      throw std::logic_error("show_true: formula not in ENF");
  }
}

bool Explainer::show_false(const Formula::Ptr& f, Trace& trace) {
  if (trace.is_lasso()) return true;
  const bdd::Bdd here = last_state(trace);
  switch (f->kind()) {
    case Kind::kFalse:
    case Kind::kAtom:
      return true;
    case Kind::kTrue:
      throw std::logic_error("show_false: true cannot fail");
    case Kind::kNot:
      return show_true(f->lhs(), trace);
    case Kind::kAnd: {
      const bool lhs_fails = !here.implies(checker_.states_enf(f->lhs()));
      const bool rhs_fails = !here.implies(checker_.states_enf(f->rhs()));
      // Prefer explaining a failing temporal conjunct -- that is where a
      // path adds information.
      if (lhs_fails && rhs_fails) {
        if (ctl::is_propositional(f->lhs())) return show_false(f->rhs(), trace);
        return show_false(f->lhs(), trace);
      }
      return show_false(lhs_fails ? f->lhs() : f->rhs(), trace);
    }
    case Kind::kOr: {
      // Both disjuncts fail; explain the temporal one.
      if (ctl::is_propositional(f->lhs())) return show_false(f->rhs(), trace);
      return show_false(f->lhs(), trace);
    }
    case Kind::kXor: {
      // Either both hold or both fail; show the lhs side's actual value.
      const bool lhs_holds = here.implies(checker_.states_enf(f->lhs()));
      return lhs_holds ? show_true(f->lhs(), trace)
                       : show_false(f->lhs(), trace);
    }
    case Kind::kEX:
    case Kind::kEU:
    case Kind::kEG:
      // The negation of an existential formula is universal: no single
      // path demonstrates it.  The trace so far already points at the
      // state where it fails.
      return false;
    default:
      throw std::logic_error("show_false: formula not in ENF");
  }
}

}  // namespace symcex::core
