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
  // The care set and the restricted relation copies were derived from the
  // previous relation view; rebuild lazily on the next sweep.
  care_ready_ = false;
  care_on_ = false;
  care_ = ts::DontCare{};
}

bool EvalContext::care_active() {
  ensure_care();
  return care_on_;
}

const bdd::Bdd& EvalContext::care_set() {
  ensure_care();
  if (care_on_) return care_.set;
  if (trivial_care_.is_null()) trivial_care_ = ts_.manager().one();
  return trivial_care_;
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
    ts::DontCare dc;
    dc.set = reach;
    std::size_t before = 0;
    std::size_t after = 0;
    // Build only the relation copy the configured sweep method reads.
    // minimize() agrees with the exact conjunct on every current-rail
    // assignment inside the care set; each restricted copy is kept only
    // when it is actually smaller.  Support never grows, so the
    // early-quantification schedules stay valid for the restricted copies.
    if (method_ == ts::ImageMethod::kMonolithic) {
      const bdd::Bdd& exact =
          reduction_ != nullptr ? reduction_->trans() : ts_.trans();
      before = exact.dag_size();
      const bdd::Bdd reduced = exact.minimize(reach);
      dc.trans = reduced.dag_size() <= before ? reduced : exact;
      after = dc.trans.dag_size();
    } else {
      const std::vector<bdd::Bdd>& clusters =
          reduction_ != nullptr ? reduction_->clusters() : ts_.trans_clusters();
      for (const auto& c : clusters) {
        const bdd::Bdd reduced = c.minimize(reach);
        before += c.dag_size();
        dc.clusters.push_back(reduced.dag_size() <= c.dag_size() ? reduced
                                                                 : c);
        after += dc.clusters.back().dag_size();
      }
    }
    care_ = std::move(dc);
    care_on_ = true;
    care_ready_ = true;
    if (diag_on) {
      r.add("care.activated");
      r.gauge_set("care.set_dag", static_cast<double>(reach.dag_size()));
      r.gauge_set("care.rel_dag_exact", static_cast<double>(before));
      r.gauge_set("care.rel_dag_restricted", static_cast<double>(after));
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
  ensure_care();
#ifndef NDEBUG
  // The exactness of the restricted image rests on the operand being
  // reachable (see ts::DontCare); every core call site satisfies this.
  assert((!care_on_ || states.implies(care_.set)) &&
         "EvalContext::image: operand leaves the care set");
#endif
  const ts::DontCare* care = care_on_ ? &care_ : nullptr;
  if (reduction_ != nullptr) return reduction_->image(states, method_, care);
  return ts_.image(states, method_, care);
}

bdd::Bdd EvalContext::preimage(const bdd::Bdd& states) {
  ensure_care();
  const ts::DontCare* care = care_on_ ? &care_ : nullptr;
  if (reduction_ != nullptr) return reduction_->preimage(states, method_, care);
  return ts_.preimage(states, method_, care);
}

}  // namespace symcex::core
