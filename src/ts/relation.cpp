#include "ts/relation.hpp"

#include <algorithm>
#include <cstdint>

#include "diag/metrics.hpp"

namespace symcex::ts {

Relation::Relation(bdd::Manager& mgr, const std::vector<bdd::Bdd>& parts,
                   std::size_t threshold, std::size_t num_state_vars)
    : mgr_(&mgr) {
  if (threshold == kOneCluster || parts.empty()) {
    bdd::Bdd acc = mgr.one();
    for (const bdd::Bdd& p : parts) acc &= p;
    clusters_.push_back(acc);
  } else {
    // Insertion order is kept (model builders emit related conjuncts
    // adjacently), so the schedules over clusters stay as tight as the
    // per-part ones.
    for (const bdd::Bdd& p : parts) {
      if (!clusters_.empty() && threshold > 0) {
        const bdd::Bdd merged = clusters_.back() & p;
        if (merged.dag_size() <= threshold) {
          clusters_.back() = merged;
          continue;
        }
      }
      clusters_.push_back(p);
    }
  }

  // A rail variable is quantified at the last cluster that reads it;
  // variables no cluster reads (and all of them, with one cluster) go to
  // step 0.  Even BDD variables are the current rail, odd ones the next.
  const std::size_t k = clusters_.size();
  std::vector<std::size_t> last(2 * num_state_vars, 0);
  if (k > 1) {
    for (std::size_t i = 0; i < k; ++i) {
      for (const std::uint32_t x : clusters_[i].support()) last[x] = i;
    }
  }
  std::vector<std::vector<std::uint32_t>> img_vars(k);
  std::vector<std::vector<std::uint32_t>> pre_vars(k);
  for (std::uint32_t x = 0; x < last.size(); ++x) {
    (x % 2 == 0 ? img_vars : pre_vars)[last[x]].push_back(x);
  }
  for (std::size_t i = 0; i < k; ++i) {
    img_sched_.push_back(mgr.cube(img_vars[i]));
    pre_sched_.push_back(mgr.cube(pre_vars[i]));
  }
}

Relation Relation::restricted(const bdd::Bdd& care) const {
  Relation out = *this;
  out.care_ = care;
  for (bdd::Bdd& c : out.clusters_) {
    const bdd::Bdd reduced = c.minimize(care);
    if (reduced.dag_size() <= c.dag_size()) c = reduced;
  }
  return out;
}

bdd::Bdd Relation::image(const bdd::Bdd& states) const {
  const bool diag_on = diag::enabled();
  diag::TimerScope timer("image.time");
  // The image operand is never simplified: a restricted relation can
  // invent successors only for non-care current states, which the
  // contract (states implies the care set) excludes, but junk inside the
  // operand would land inside the care set.  See DESIGN.md §9.
  const std::size_t k = clusters_.size();
  bdd::Bdd acc = states;
  std::size_t peak = 0;
  for (std::size_t i = 0; i < k; ++i) {
    // The last cluster quantifies the remaining current rail and lands the
    // successors on it in the same recursion.
    acc = i + 1 < k ? mgr_->and_exists(acc, clusters_[i], img_sched_[i])
                    : mgr_->rel_next(acc, clusters_[i], img_sched_[i]);
    if (diag_on) peak = std::max(peak, acc.dag_size());
  }
  if (diag_on) {
    auto& r = diag::Registry::global();
    r.add("image.calls");
    r.add("image.sweep_steps", k);
    r.gauge_set("image.peak_dag", static_cast<double>(peak));
  }
  return acc;
}

bdd::Bdd Relation::preimage(const bdd::Bdd& states) const {
  const bool diag_on = diag::enabled();
  diag::TimerScope timer("preimage.time");
  const bool care = !care_.is_null();
  // Minimize preserves a set on the care set; keep it only when it
  // actually shrinks (Coudert-Madre restrict can occasionally grow).
  const auto shrink = [&](const bdd::Bdd& f) {
    const bdd::Bdd reduced = f.minimize(care_);
    return reduced.dag_size() < f.dag_size() ? reduced : f;
  };
  bdd::Bdd acc = states;
  if (care) {
    acc = shrink(states);
    if (diag_on) {
      auto& r = diag::Registry::global();
      r.add("preimage.care.calls");
      const std::size_t saved = states.dag_size() - acc.dag_size();
      if (saved > 0) r.add("preimage.care.operand_nodes_saved", saved);
    }
  }
  const std::size_t k = clusters_.size();
  std::size_t peak = 0;
  for (std::size_t i = 0; i < k; ++i) {
    // The first cluster reads the operand on the next rail.
    acc = i == 0 ? mgr_->rel_prev(acc, clusters_[i], pre_sched_[i])
                 : mgr_->and_exists(acc, clusters_[i], pre_sched_[i]);
    // The sweep quantifies next-rail variables only, so the accumulator's
    // current-rail rows outside the care set are dead weight; minimizing
    // them is sound (the final & care pins the semantics) and keeps the
    // intermediate products small.
    if (care && i + 1 < k) acc = shrink(acc);
    if (diag_on) peak = std::max(peak, acc.dag_size());
  }
  if (care) acc &= care_;
  if (diag_on) {
    auto& r = diag::Registry::global();
    r.add("preimage.calls");
    r.add("preimage.sweep_steps", k);
    r.gauge_set("preimage.peak_dag", static_cast<double>(peak));
  }
  return acc;
}

}  // namespace symcex::ts
