#include "core/eval_context.hpp"

#include <cassert>

#include "diag/metrics.hpp"
#include "guard/config.hpp"
#include "guard/guard.hpp"

namespace symcex::core {

EvalContext::EvalContext(ts::TransitionSystem& ts, ts::ImageMethod method,
                         std::optional<bool> use_care_set)
    : ts_(ts),
      method_(method),
      care_requested_(use_care_set.value_or(config::current().care_set)) {}

void EvalContext::set_reduction(const analyze::Reduction* reduction) {
  if (reduction_ == reduction) return;
  reduction_ = reduction;
  // The relation, the care set and its restricted copy belong to the
  // previous view; resolve them again lazily on the next sweep.
  exact_ = nullptr;
  care_ready_ = false;
  restricted_.reset();
}

bool EvalContext::care_active() {
  ensure_care();
  return restricted_.has_value();
}

const bdd::Bdd& EvalContext::care_set() {
  ensure_care();
  if (restricted_) return restricted_->care_set();
  if (trivial_care_.is_null()) trivial_care_ = ts_.manager().one();
  return trivial_care_;
}

const ts::Relation& EvalContext::exact() {
  if (exact_ == nullptr) {
    exact_ = reduction_ != nullptr ? &reduction_->relation(method_)
                                   : &ts_.relation(method_);
  }
  return *exact_;
}

const ts::Relation& EvalContext::relation() {
  ensure_care();
  return restricted_ ? *restricted_ : exact();
}

void EvalContext::ensure_care() {
  if (care_ready_) return;
  if (!care_requested_) {
    care_ready_ = true;
    return;
  }
  const bool diag_on = diag::enabled();
  auto& r = diag::Registry::global();
  try {
    const diag::PhaseScope phase("care");
    // Under a COI reduction the care set is the reduced reachable states:
    // they are closed under the reduced relation, which is what every
    // sweep below consumes.
    const bdd::Bdd& reach =
        reduction_ != nullptr ? reduction_->reachable() : ts_.reachable();
    if (reach.is_false() || reach == ts_.manager().one()) {
      // Empty: no state is reachable, nothing to evaluate on (and minimize
      // requires a satisfiable care set).  Full: restriction is the
      // identity; skip the per-sweep overhead entirely.
      care_ready_ = true;
      if (diag_on) r.add("care.trivial");
      return;
    }
    restricted_ = exact().restricted(reach);
    care_ready_ = true;
    if (diag_on) {
      const auto total_dag = [](const ts::Relation& rel) {
        std::size_t nodes = 0;
        for (const bdd::Bdd& c : rel.clusters()) nodes += c.dag_size();
        return static_cast<double>(nodes);
      };
      r.add("care.activated");
      r.gauge_set("care.set_dag", static_cast<double>(reach.dag_size()));
      r.gauge_set("care.rel_dag_exact", total_dag(exact()));
      r.gauge_set("care.rel_dag_restricted", total_dag(*restricted_));
    }
  } catch (const guard::ResourceExhausted&) {
    // The reachability fixpoint lost the budget race.  Care is purely an
    // optimisation, so swallow the abort and run exact sweeps; the
    // manager already unwound audit-clean, and ts_.reachable() left its
    // cache empty, so a later retry under a raised budget still works.
    care_ready_ = true;
    if (diag_on) r.add("care.fallback_exhausted");
  }
}

bdd::Bdd EvalContext::image(const bdd::Bdd& states) {
  const ts::Relation& rel = relation();
#ifndef NDEBUG
  // The exactness of the restricted image rests on the operand being
  // reachable (see ts::Relation::restricted); every core call site
  // satisfies this.
  assert((!restricted_ || states.implies(restricted_->care_set())) &&
         "EvalContext::image: operand leaves the care set");
#endif
  return rel.image(states);
}

bdd::Bdd EvalContext::preimage(const bdd::Bdd& states) {
  return relation().preimage(states);
}

}  // namespace symcex::core
