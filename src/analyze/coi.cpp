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
  // Cluster the kept conjuncts exactly the way finalize() clusters the full
  // partition (same threshold, same insertion order), so the reduced
  // sweeps inherit the tuning of the full ones.
  std::vector<bdd::Bdd> kept;
  kept.reserve(cone_.kept_parts.size());
  for (const std::size_t idx : cone_.kept_parts) {
    kept.push_back(ts_.trans_parts()[idx]);
  }
  clustered_ = ts::Relation(mgr, kept, ts_.cluster_threshold(),
                            ts_.num_state_vars());

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

const ts::Relation& Reduction::relation(ts::ImageMethod method) const {
  if (method == ts::ImageMethod::kPartitioned) return clustered_;
  if (!monolithic_) {
    bdd::Manager& mgr = const_cast<ts::TransitionSystem&>(ts_).manager();
    monolithic_ = ts::Relation(mgr, clustered_.clusters(),
                               ts::Relation::kOneCluster,
                               ts_.num_state_vars());
  }
  return *monolithic_;
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
      const bdd::Bdd img = clustered_.image(frontier);
      frontier = img - reached;
      reached |= frontier;
    }
    reachable_ = reached;
  }
  return reachable_;
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
