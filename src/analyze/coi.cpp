// Cone-of-influence closure, the reduced transition-system view, and
// trace re-inflation (DESIGN.md §12).
//
// The closure partitions the conjuncts: kept parts have their support
// fully inside the cone, dropped parts have support fully disjoint from
// it.  The exact relation therefore factors as
//
//     R(s,s') = R_kept(c,c') & R_dropped(d,d')
//
// over disjoint rails, which is what makes verdicts transfer and
// pointwise re-inflation of reduced traces possible.

#include <algorithm>
#include <map>
#include <stdexcept>

#include "analyze/analyze.hpp"
#include "diag/metrics.hpp"

namespace symcex::analyze {

Cone cone_of_influence(const ts::TransitionSystem& ts, const DepGraph& graph,
                       const std::vector<bdd::Bdd>& seeds) {
  const std::size_t n = graph.num_vars;
  Cone cone;
  cone.in_cone.assign(n, false);
  auto seed_from = [&](const bdd::Bdd& f) {
    if (f.is_null()) return;
    for (const std::uint32_t x : f.support()) cone.in_cone[x / 2] = true;
  };
  for (const bdd::Bdd& s : seeds) seed_from(s);
  // Fair-path semantics conjoin every fairness constraint into every
  // fixpoint, so their variables always influence the verdict.
  for (const bdd::Bdd& f : ts.fairness()) seed_from(f);

  // Closure: a conjunct whose support touches the cone constrains cone
  // behaviour, so its whole support joins the cone.  Terminates because the
  // cone only grows.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const DepGraph::PartSupport& p : graph.parts) {
      const bool touches = std::any_of(p.all.begin(), p.all.end(),
                                       [&](ts::VarId v) {
                                         return cone.in_cone[v];
                                       });
      if (!touches) continue;
      for (const ts::VarId v : p.all) {
        if (!cone.in_cone[v]) {
          cone.in_cone[v] = true;
          changed = true;
        }
      }
    }
  }

  const auto& parts = ts.trans_parts();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const auto& support = graph.parts[i].all;
    const bool touches = std::any_of(support.begin(), support.end(),
                                     [&](ts::VarId v) {
                                       return cone.in_cone[v];
                                     });
    // A constant-false conjunct empties the whole relation; dropping it
    // would add behaviour, so it is always kept (its support is empty and
    // would otherwise never touch the cone).
    if (touches || parts[i].is_false()) cone.kept_parts.push_back(i);
  }
  for (ts::VarId v = 0; v < n; ++v) {
    if (!cone.in_cone[v]) cone.dropped.push_back(v);
  }
  return cone;
}

Reduction::Reduction(const ts::TransitionSystem& ts, Cone cone,
                     const DepGraph& graph)
    : ts_(ts), cone_(std::move(cone)), fingerprint_(graph.fingerprint()) {
  bdd::Manager& mgr = const_cast<ts::TransitionSystem&>(ts_).manager();
  const auto& parts = ts_.trans_parts();

  // Merge the kept conjuncts into size-thresholded clusters exactly the way
  // finalize() merges the full partition (same threshold, same insertion
  // order), so the reduced sweeps inherit the tuning of the full ones.
  const std::size_t threshold = ts_.cluster_threshold();
  for (const std::size_t idx : cone_.kept_parts) {
    const bdd::Bdd& p = parts[idx];
    if (!clusters_.empty() && threshold > 0) {
      const bdd::Bdd merged = clusters_.back() & p;
      if (merged.dag_size() <= threshold) {
        clusters_.back() = merged;
        continue;
      }
    }
    clusters_.push_back(p);
  }

  // Early-quantification schedules over the reduced clusters, mirroring
  // TransitionSystem::build_schedules: a rail variable may be quantified at
  // the last cluster touching it; variables in no cluster (all dropped
  // variables, and cone variables no kept conjunct reads) go in slot 0.
  const std::size_t k = clusters_.size();
  const std::size_t n = ts_.num_state_vars();
  std::vector<std::vector<std::uint32_t>> img_vars(std::max<std::size_t>(k, 1));
  std::vector<std::vector<std::uint32_t>> pre_vars(std::max<std::size_t>(k, 1));
  std::vector<std::size_t> last_cur(2 * n, 0);
  std::vector<std::size_t> last_next(2 * n, 0);
  std::vector<bool> seen_cur(2 * n, false);
  std::vector<bool> seen_next(2 * n, false);
  for (std::size_t i = 0; i < k; ++i) {
    for (const std::uint32_t x : clusters_[i].support()) {
      if (x % 2 == 0) {
        last_cur[x] = i;
        seen_cur[x] = true;
      } else {
        last_next[x] = i;
        seen_next[x] = true;
      }
    }
  }
  for (ts::VarId v = 0; v < n; ++v) {
    const std::uint32_t c = 2 * v;
    const std::uint32_t nx = 2 * v + 1;
    img_vars[seen_cur[c] ? last_cur[c] : 0].push_back(c);
    pre_vars[seen_next[nx] ? last_next[nx] : 0].push_back(nx);
  }
  for (std::size_t i = 0; i < k; ++i) {
    img_sched_.push_back(mgr.cube(img_vars[i]));
    pre_sched_.push_back(mgr.cube(pre_vars[i]));
  }

  std::vector<std::uint32_t> dropped_curs;
  dropped_curs.reserve(cone_.dropped.size());
  for (const ts::VarId v : cone_.dropped) dropped_curs.push_back(2 * v);
  dropped_cur_cube_ = mgr.cube(dropped_curs);
}

std::vector<std::string> Reduction::dropped_names() const {
  std::vector<std::string> out;
  out.reserve(cone_.dropped.size());
  for (const ts::VarId v : cone_.dropped) out.push_back(ts_.var_name(v));
  return out;
}

const bdd::Bdd& Reduction::trans() const {
  if (trans_.is_null()) {
    bdd::Manager& mgr = const_cast<ts::TransitionSystem&>(ts_).manager();
    bdd::Bdd acc = mgr.one();
    for (const bdd::Bdd& c : clusters_) acc &= c;
    trans_ = acc;
  }
  return trans_;
}

const bdd::Bdd& Reduction::reachable() const {
  if (reachable_.is_null()) {
    bdd::Manager& mgr = const_cast<ts::TransitionSystem&>(ts_).manager();
    const diag::PhaseScope phase("analyze");
    bdd::Bdd reached = ts_.init();
    bdd::Bdd frontier = reached;
    bdd::FixpointGuard guard(mgr, "coi.reachable");
    while (!frontier.is_false()) {
      guard.tick();
      const bdd::Bdd img = image(frontier, ts::ImageMethod::kPartitioned);
      frontier = img - reached;
      reached |= frontier;
    }
    reachable_ = reached;
  }
  return reachable_;
}

bdd::Bdd Reduction::image(const bdd::Bdd& states, ts::ImageMethod method,
                          const ts::DontCare* care) const {
  bdd::Manager& mgr = const_cast<ts::TransitionSystem&>(ts_).manager();
  if (diag::enabled()) diag::Registry::global().add("coi.image.calls");
  if (method == ts::ImageMethod::kMonolithic || clusters_.size() <= 1) {
    // With every conjunct dropped the reduced relation is `true`; the
    // monolithic AndExists handles that uniformly.
    const bdd::Bdd& rel =
        care != nullptr && !care->trans.is_null() ? care->trans : trans();
    return mgr.rel_next(states, rel, ts_.cur_cube());
  }
  const std::vector<bdd::Bdd>& rels =
      care != nullptr && !care->clusters.empty() ? care->clusters : clusters_;
  bdd::Bdd acc = states;
  for (std::size_t i = 0; i + 1 < rels.size(); ++i) {
    acc = mgr.and_exists(acc, rels[i], img_sched_[i]);
  }
  return mgr.rel_next(acc, rels.back(), img_sched_[rels.size() - 1]);
}

bdd::Bdd Reduction::preimage(const bdd::Bdd& states, ts::ImageMethod method,
                             const ts::DontCare* care) const {
  bdd::Manager& mgr = const_cast<ts::TransitionSystem&>(ts_).manager();
  if (diag::enabled()) diag::Registry::global().add("coi.preimage.calls");
  bdd::Bdd operand = states;
  if (care != nullptr) {
    const bdd::Bdd reduced = operand.minimize(care->set);
    if (reduced.dag_size() < operand.dag_size()) operand = reduced;
  }
  if (method == ts::ImageMethod::kMonolithic || clusters_.size() <= 1) {
    const bdd::Bdd& rel =
        care != nullptr && !care->trans.is_null() ? care->trans : trans();
    bdd::Bdd result = mgr.rel_prev(operand, rel, ts_.next_cube());
    if (care != nullptr) result &= care->set;
    return result;
  }
  const std::vector<bdd::Bdd>& rels =
      care != nullptr && !care->clusters.empty() ? care->clusters : clusters_;
  bdd::Bdd acc = operand;
  for (std::size_t i = 0; i < rels.size(); ++i) {
    acc = i == 0 ? mgr.rel_prev(acc, rels[i], pre_sched_[i])
                 : mgr.and_exists(acc, rels[i], pre_sched_[i]);
    if (care != nullptr && i + 1 < rels.size()) {
      const bdd::Bdd reduced = acc.minimize(care->set);
      if (reduced.dag_size() < acc.dag_size()) acc = reduced;
    }
  }
  if (care != nullptr) acc &= care->set;
  return acc;
}

bdd::Bdd Reduction::project(const bdd::Bdd& states) const {
  if (cone_.dropped.empty()) return states;
  return states.exists(dropped_cur_cube_);
}

namespace {

/// Deterministic full-model step: the lexicographically least raw
/// successor of `from` whose cone projection is `target`.  Null when the
/// step is blocked.  Always the partitioned sweep -- inflation must not
/// force the monolithic relation the reduction existed to avoid.
bdd::Bdd inflate_step(const ts::TransitionSystem& ts, const bdd::Bdd& from,
                      const bdd::Bdd& target) {
  const bdd::Bdd successors =
      ts.image(from, ts::ImageMethod::kPartitioned) & target;
  if (successors.is_false()) return {};
  return ts.pick_state(successors);
}

}  // namespace

bool inflate_trace(const ts::TransitionSystem& ts, const Reduction& reduction,
                   const std::vector<bdd::Bdd>& prefix,
                   const std::vector<bdd::Bdd>& cycle,
                   std::vector<bdd::Bdd>* out_prefix,
                   std::vector<bdd::Bdd>* out_cycle, std::string* error) {
  out_prefix->clear();
  out_cycle->clear();
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = "inflate_trace: " + what;
    return false;
  };
  if (prefix.empty() && cycle.empty()) return true;

  // First state: the least full initial state matching the reduced head's
  // cone values.  The reduced head was picked from a subset of init, so its
  // projection intersects init.
  const bdd::Bdd head =
      reduction.project(prefix.empty() ? cycle.front() : prefix.front());
  const bdd::Bdd init_matches = ts.init() & head;
  if (init_matches.is_false()) {
    return fail("reduced trace head has no matching initial state");
  }
  bdd::Bdd cur = ts.pick_state(init_matches);

  // Prefix: pointwise deterministic re-simulation.
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    if (i == 0) {
      out_prefix->push_back(cur);
      continue;
    }
    cur = inflate_step(ts, cur, reduction.project(prefix[i]));
    if (cur.is_null()) {
      return fail("dropped component blocks at prefix step " +
                  std::to_string(i));
    }
    out_prefix->push_back(cur);
  }
  if (cycle.empty()) return true;

  // Lasso: unroll the reduced cycle until the full state at the cycle head
  // (phase 0) revisits one already seen.  The per-step pick is a function
  // of the previous full state, so the phase-0 sequence is eventually
  // periodic; the cap is a defensive bound far above any bundled model.
  constexpr std::size_t kMaxRounds = 4096;
  std::vector<bdd::Bdd> unrolled;
  std::map<bdd::Bdd, std::size_t> seen_at_head;
  for (std::size_t round = 0; round < kMaxRounds; ++round) {
    for (std::size_t p = 0; p < cycle.size(); ++p) {
      const bdd::Bdd target = reduction.project(cycle[p]);
      const bool first_state = out_prefix->empty() && unrolled.empty();
      bdd::Bdd step;
      if (first_state) {
        step = cur;  // already picked from init & target above
      } else {
        const bdd::Bdd& from = unrolled.empty() ? out_prefix->back()
                                                : unrolled.back();
        if (p == 0) {
          // Closure-preferring step: if any previously seen phase-0 full
          // state is a raw successor, close the lasso there instead of
          // unrolling further.
          const bdd::Bdd successors =
              ts.image(from, ts::ImageMethod::kPartitioned) & target;
          if (successors.is_false()) {
            return fail("dropped component blocks at cycle head, round " +
                        std::to_string(round));
          }
          std::size_t close_at = unrolled.size();
          for (const auto& [state, index] : seen_at_head) {
            if (index < close_at && state.intersects(successors)) {
              close_at = index;  // earliest revisit = shortest unroll
            }
          }
          if (close_at < unrolled.size()) {
            out_prefix->insert(out_prefix->end(), unrolled.begin(),
                               unrolled.begin() +
                                   static_cast<std::ptrdiff_t>(close_at));
            out_cycle->assign(unrolled.begin() +
                                  static_cast<std::ptrdiff_t>(close_at),
                              unrolled.end());
            return true;
          }
          step = ts.pick_state(successors);
        } else {
          step = inflate_step(ts, from, target);
          if (step.is_null()) {
            return fail("dropped component blocks at cycle phase " +
                        std::to_string(p) + ", round " +
                        std::to_string(round));
          }
        }
      }
      if (p == 0) seen_at_head.emplace(step, unrolled.size());
      unrolled.push_back(step);
    }
  }
  return fail("cycle failed to close within " + std::to_string(kMaxRounds) +
              " unroll rounds");
}

}  // namespace symcex::analyze
