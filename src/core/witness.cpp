#include "core/witness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "diag/metrics.hpp"

namespace symcex::core {

namespace {

constexpr std::size_t kNoRing = std::numeric_limits<std::size_t>::max();

/// A broken ring chain surfaces as a failed Certificate, not as undefined
/// behaviour: the binary search below is only correct on a monotone chain,
/// and a wrong minimal index would silently corrupt the witness.  Thrown
/// as certify::CertificationError so callers treat it exactly like any
/// other failed trace obligation (recoverable in release builds).
[[noreturn]] void fail_ring_certificate(std::string detail) {
  certify::Certificate cert;
  cert.require("ring-chain-monotone", false, std::move(detail));
  throw certify::CertificationError("core::walk_rings", std::move(cert));
}

/// Every link Q_{i-1} <= Q_i of the chain, checked once per walk: n
/// implications for an n-ring chain, in every build and configuration.
void check_ring_chain(const std::vector<bdd::Bdd>& rings) {
  for (std::size_t i = 1; i < rings.size(); ++i) {
    if (!rings[i - 1].implies(rings[i])) {
      fail_ring_certificate("rings[" + std::to_string(i - 1) +
                            "] does not imply rings[" + std::to_string(i) +
                            "]: the approximation chain is not increasing");
    }
  }
}

/// Smallest i with set & rings[i] nonempty, or kNoRing.  The onion rings
/// are an increasing chain (Q_i <= Q_{i+1} by construction, checked by
/// check_ring_chain), so the predicate "set intersects rings[i]" is
/// monotone in i and the first hit is found by binary search in O(log n)
/// intersection tests instead of n.  The result is validated locally (the
/// returned index must be a boundary: its predecessor ring must miss
/// `set`), which is O(1).
std::size_t min_ring_index(const std::vector<bdd::Bdd>& rings,
                           const bdd::Bdd& set) {
  if (rings.empty() || !set.intersects(rings.back())) return kNoRing;
  std::size_t lo = 0;
  std::size_t hi = rings.size() - 1;  // invariant: set intersects rings[hi]
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (set.intersects(rings[mid])) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (hi > 0 && set.intersects(rings[hi - 1])) {
    fail_ring_certificate(
        "binary search returned index " + std::to_string(hi) +
        " but the set already intersects rings[" + std::to_string(hi - 1) +
        "]: the ring chain is not monotone");
  }
  return hi;
}

}  // namespace

WitnessGenerator::WitnessGenerator(Checker& checker,
                                   const WitnessOptions& options)
    : checker_(checker), options_(options) {}

std::optional<Trace> WitnessGenerator::take_partial() {
  std::optional<Trace> out = std::move(partial_);
  partial_.reset();
  return out;
}

std::vector<bdd::Bdd> WitnessGenerator::walk_rings(
    const std::vector<bdd::Bdd>& rings, const bdd::Bdd& from) {
  auto& ts = checker_.system();
  check_ring_chain(rings);
  std::size_t i = min_ring_index(rings, from);
  if (i == kNoRing) {
    throw std::invalid_argument(
        "walk_rings: 'from' does not intersect E[f U g]");
  }
  std::vector<bdd::Bdd> path{ts.pick_state(from & rings[i])};
  while (i > 0) {
    const bdd::Bdd succ = checker_.context().image(path.back());
    // The minimal hit is guaranteed to be < i: a state whose minimal ring
    // index is i > 0 satisfies f & EX Q_{i-1}.
    const std::size_t j = min_ring_index(rings, succ);
    if (j == kNoRing || j >= i) {
      throw std::logic_error("walk_rings: ring descent failed (internal)");
    }
    path.push_back(ts.pick_state(succ & rings[j]));
    ++stats_.ring_steps;
    if (diag::enabled()) diag::Registry::global().add("witness.ring_steps");
    i = j;
  }
  return path;
}

Trace WitnessGenerator::eg(const bdd::Bdd& f, const bdd::Bdd& from) {
  const FairEG info = checker_.eg_with_rings(f);
  return eg(info, f, from);
}

Trace WitnessGenerator::eg(const FairEG& info, const bdd::Bdd& f_states,
                           const bdd::Bdd& from) {
  auto& ts = checker_.system();
  const bdd::Bdd start_set = from & info.states;
  if (start_set.is_false()) {
    throw std::invalid_argument(
        "WitnessGenerator::eg: no state in 'from' satisfies EG f under the "
        "fairness constraints");
  }
  Trace out = eg_lasso(info, f_states, ts.pick_state(start_set));
  // Under a COI reduction the trace is a reduced-model execution; the
  // Explainer re-inflates it and certifies the full-model trace against
  // the raw relation instead (DESIGN.md §12), so the local hooks here
  // (and in eu()/ex() below) stand down.
  if (certify::enabled() && checker_.context().reduction() == nullptr) {
    certify::require_certified(
        certifier().certify_eg(out, f_states, info.constraints),
        "WitnessGenerator::eg");
  }
  return out;
}

Trace WitnessGenerator::eg_lasso(const FairEG& info, const bdd::Bdd& f_states,
                                 bdd::Bdd s) {
  const diag::PhaseScope phase("witness/eg");
  const bool diag_on = diag::enabled();
  auto& ts = checker_.system();
  const bdd::Bdd& z = info.states;
  const std::size_t num_constraints = info.constraints.size();

  std::size_t max_restarts = options_.max_restarts;
  if (max_restarts == 0) {
    // The SCC-DAG descent argument bounds restarts by the number of SCCs,
    // itself bounded by the number of states in EG f.  count_states may
    // saturate on huge systems (non-finite or enormous), so only trust it
    // when it is a finite, representable small bound; otherwise fall back
    // to a generous fixed cap.
    const double n = ts.count_states(z);
    max_restarts = (std::isfinite(n) && n >= 0.0 && n < 1e7)
                       ? static_cast<std::size_t>(n) + 2
                       : (std::size_t{1} << 24);
  }

  std::vector<bdd::Bdd> accumulated_prefix;  // across restarts
  std::vector<bdd::Bdd> segment;  // current attempt (for partial capture)
  try {
    for (std::size_t attempt = 0;; ++attempt) {
      if (attempt > max_restarts) {
        throw std::logic_error(
            "WitnessGenerator::eg: restart bound exceeded (internal error)");
      }

      // ---- build the constraint-visiting segment s, t, ..., s' ------------
      segment.clear();
      segment.push_back(s);
      bdd::Bdd current = s;
      bdd::Bdd t;        // cycle anchor: first successor of s on the segment
      bdd::Bdd reach_t;  // E[(EG f) U {t}] for the early-exit strategy
      std::vector<bool> pending(num_constraints, true);
      std::size_t num_pending = num_constraints;
      bool restart = false;

      auto mark_in_place = [&](const bdd::Bdd& state) {
        if (!options_.mark_satisfied_in_place) return;
        for (std::size_t k = 0; k < num_constraints; ++k) {
          if (pending[k] && state.intersects(z & info.constraints[k])) {
            pending[k] = false;
            --num_pending;
          }
        }
      };

      auto append = [&](const bdd::Bdd& state) {
        segment.push_back(state);
        current = state;
        ++stats_.ring_steps;
        if (diag_on) diag::Registry::global().add("witness.ring_steps");
        if (t.is_null()) {
          t = state;
          if (options_.strategy == CycleCloseStrategy::kEarlyExit) {
            reach_t = checker_.eu_raw(z, t);
          }
        }
        mark_in_place(state);
        if (!reach_t.is_null() && !state.intersects(reach_t)) {
          // The segment left E[(EG f) U {t}]: the cycle through t can no
          // longer be completed; restart from here immediately.
          restart = true;
          ++stats_.early_exits;
          if (diag_on) diag::Registry::global().add("witness.early_exits");
        }
      };

      while (num_pending > 0 && !restart) {
        // Choose the fairness constraint reached soonest: test the saved
        // rings Q_i^h for increasing i until one contains a successor.
        const bdd::Bdd succ = checker_.context().image(current);
        std::size_t best_k = num_constraints;
        std::size_t best_i = kNoRing;
        for (std::size_t i = 0; best_k == num_constraints; ++i) {
          bool any_longer = false;
          for (std::size_t k = 0; k < num_constraints; ++k) {
            if (!pending[k] || i >= info.rings[k].size()) continue;
            any_longer = true;
            if (succ.intersects(info.rings[k][i])) {
              best_k = k;
              best_i = i;
              break;
            }
          }
          if (!any_longer) break;
        }
        if (best_k == num_constraints) {
          throw std::logic_error(
              "WitnessGenerator::eg: no successor in any ring (internal "
              "error: current state should satisfy EG f)");
        }
        // Step into ring best_i, then descend best_i-1, ..., 0.
        append(ts.pick_state(succ & info.rings[best_k][best_i]));
        for (std::size_t j = best_i; j-- > 0 && !restart;) {
          const bdd::Bdd step = checker_.context().image(current);
          append(ts.pick_state(step & info.rings[best_k][j]));
        }
        if (!restart && pending[best_k]) {
          pending[best_k] = false;
          --num_pending;
        }
      }

      if (restart) {
        // current never reaches t: everything up to current becomes prefix.
        accumulated_prefix.insert(accumulated_prefix.end(), segment.begin(),
                                  segment.end() - 1);
        s = current;
        ++stats_.restarts;
        if (diag_on) diag::Registry::global().add("witness.restarts");
        continue;
      }

      // Degenerate case: zero constraints can not happen (eg_with_rings
      // guarantees at least the constraint "true"), so t is set here.
      const bdd::Bdd s_prime = current;

      // ---- close the cycle: non-trivial path s' -> t within f -------------
      // This is a witness for  {s'} & EX E[f U {t}].
      const diag::PhaseScope closure_phase("closure");
      const std::vector<bdd::Bdd> closure_rings =
          checker_.eu_rings(f_states, t);
      const bdd::Bdd succ = checker_.context().image(s_prime);
      if (succ.intersects(closure_rings.back())) {
        std::vector<bdd::Bdd> closure = walk_rings(closure_rings, succ);
        // Cycle: t ... s' followed by the closing path minus its final t.
        std::vector<bdd::Bdd> cycle(segment.begin() + 1, segment.end());
        cycle.insert(cycle.end(), closure.begin(), closure.end() - 1);
        Trace out;
        out.prefix = std::move(accumulated_prefix);
        out.prefix.push_back(segment.front());
        out.cycle = std::move(cycle);
        return out;
      }

      // Closure failed: s' is outside the SCC containing t.  Restart from
      // s'; this strictly descends the SCC DAG (Figure 2 of the paper).
      accumulated_prefix.insert(accumulated_prefix.end(), segment.begin(),
                                segment.end() - 1);
      s = s_prime;
      ++stats_.restarts;
    }
  } catch (const guard::ResourceExhausted&) {
    // Salvage what the construction had: the restart prefix plus the
    // segment under construction form a valid path prefix inside EG f.
    // Explainer::check / take_partial surface it with the kUnknown
    // outcome; certify::TraceCertifier::certify_prefix can re-check it.
    partial_ = Trace{};
    partial_->prefix = std::move(accumulated_prefix);
    partial_->prefix.insert(partial_->prefix.end(), segment.begin(),
                            segment.end());
    throw;
  }
}

Trace WitnessGenerator::eu(const bdd::Bdd& f, const bdd::Bdd& g,
                           const bdd::Bdd& from) {
  const diag::PhaseScope phase("witness/eu");
  const bdd::Bdd target = g & checker_.fair_states();
  const std::vector<bdd::Bdd> rings = checker_.eu_rings(f, target);
  if (!from.intersects(rings.back())) {
    throw std::invalid_argument(
        "WitnessGenerator::eu: no state in 'from' satisfies E[f U g] under "
        "the fairness constraints");
  }
  std::vector<bdd::Bdd> path = walk_rings(rings, from);
  Trace out;
  out.prefix = std::move(path);
  if (options_.extend_to_fair_path) extend_to_fair(out);
  if (certify::enabled() && checker_.context().reduction() == nullptr) {
    certify::require_certified(certifier().certify_eu(out, f, g),
                               "WitnessGenerator::eu");
  }
  return out;
}

const FairEG& WitnessGenerator::fair_true() {
  if (!have_fair_true_) {
    fair_true_info_ =
        checker_.eg_with_rings(checker_.system().manager().one());
    have_fair_true_ = true;
  }
  return fair_true_info_;
}

void WitnessGenerator::extend_to_fair(Trace& trace) {
  if (trace.is_lasso() || trace.prefix.empty()) return;
  const diag::PhaseScope phase("witness/extend");
  const Trace tail = eg(fair_true(), checker_.system().manager().one(),
                        trace.prefix.back());
  trace.prefix.pop_back();
  trace.prefix.insert(trace.prefix.end(), tail.prefix.begin(),
                      tail.prefix.end());
  trace.cycle = tail.cycle;
}

Trace WitnessGenerator::ex(const bdd::Bdd& f, const bdd::Bdd& from) {
  const diag::PhaseScope phase("witness/ex");
  auto& ts = checker_.system();
  const bdd::Bdd good = f & checker_.fair_states();
  const bdd::Bdd can = from & checker_.ex_raw(good);
  if (can.is_false()) {
    throw std::invalid_argument(
        "WitnessGenerator::ex: no state in 'from' satisfies EX f under the "
        "fairness constraints");
  }
  const bdd::Bdd s = ts.pick_state(can);
  const bdd::Bdd t = ts.pick_state(checker_.context().image(s) & good);
  Trace out;
  out.prefix = {s, t};
  if (options_.extend_to_fair_path) extend_to_fair(out);
  if (certify::enabled() && checker_.context().reduction() == nullptr) {
    certify::require_certified(certifier().certify_ex(out, f),
                               "WitnessGenerator::ex");
  }
  return out;
}

certify::TraceCertifier& WitnessGenerator::certifier() {
  if (!certifier_) {
    certifier_ =
        std::make_unique<certify::TraceCertifier>(checker_.system());
  }
  return *certifier_;
}

void inflate_reduced_trace(const ts::TransitionSystem& ts,
                           const analyze::Reduction& reduction, Trace& trace,
                           const std::string& where) {
  std::vector<bdd::Bdd> full_prefix;
  std::vector<bdd::Bdd> full_cycle;
  std::string error;
  if (!analyze::inflate_trace(ts, reduction, trace.prefix, trace.cycle,
                              &full_prefix, &full_cycle, &error)) {
    certify::Certificate cert;
    cert.require("coi-trace-inflation", false, std::move(error));
    throw certify::CertificationError(where, std::move(cert));
  }
  trace.prefix = std::move(full_prefix);
  trace.cycle = std::move(full_cycle);
}

}  // namespace symcex::core
