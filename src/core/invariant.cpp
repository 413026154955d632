#include "core/invariant.hpp"

#include <utility>
#include <vector>

#include "analyze/analyze.hpp"
#include "certify/certify.hpp"

namespace symcex::core {

InvariantResult check_invariant(Checker& checker, const bdd::Bdd& invariant,
                                bool extend_to_fair) {
  auto& ts = checker.system();
  checker.prepare(std::vector<bdd::Bdd>{invariant});
  EvalContext& context = checker.context();

  InvariantResult out;
  try {
    // A state violates only if it is the start of some fair path (matching
    // the fair semantics of AG used by the CTL checker).
    const bdd::Bdd bad = (!invariant) & checker.fair_states();

    std::vector<bdd::Bdd> layers;  // layers[k]: states first reached at k
    bdd::Bdd reached = ts.init();
    bdd::Bdd frontier = ts.init();
    bdd::FixpointGuard fixpoint_guard(ts.manager(), "invariant_bfs");
    while (!frontier.is_false()) {
      fixpoint_guard.tick();
      if (frontier.intersects(bad)) {
        // Reconstruct a shortest path backward through the layers.
        layers.push_back(frontier);
        std::vector<bdd::Bdd> path{ts.pick_state(frontier & bad)};
        for (std::size_t k = layers.size() - 1; k-- > 0;) {
          const bdd::Bdd pre = context.preimage(path.back());
          path.push_back(ts.pick_state(pre & layers[k]));
        }
        Trace trace;
        trace.prefix.assign(path.rbegin(), path.rend());
        if (extend_to_fair) {
          WitnessGenerator generator(checker);
          generator.extend_to_fair(trace);
        }
        if (const analyze::Reduction* reduction = checker.reduction()) {
          // Inflate before certification; the cone projection -- and with
          // it the invariant violation -- is preserved exactly.
          inflate_reduced_trace(ts, *reduction, trace, "check_invariant");
        }
        // An invariant counterexample is an E[true U !invariant] witness.
        if (certify::enabled()) {
          certify::TraceCertifier certifier(ts);
          certify::require_certified(
              certifier.certify_eu(trace, ts.manager().one(), !invariant),
              "check_invariant");
        }
        out.holds = false;
        out.verdict = Verdict::kFalse;
        out.counterexample = std::move(trace);
        out.depth = layers.size() - 1;
        return out;
      }
      layers.push_back(frontier);
      const bdd::Bdd next = context.image(frontier);
      frontier = next - reached;
      reached |= frontier;
      ++out.depth;
    }
    out.holds = true;
    out.verdict = Verdict::kTrue;
    out.depth = layers.empty() ? 0 : layers.size() - 1;
    return out;
  } catch (const guard::ResourceExhausted& e) {
    // The BFS (or the counterexample reconstruction) ran out of budget.
    // The manager already unwound audit-clean; report unknown with the
    // layers explored so far as partial progress, and let the caller rerun
    // with a raised budget.
    out.holds = false;
    out.verdict = Verdict::kUnknown;
    out.unknown_reason = e.what();
    out.counterexample.reset();
    return out;
  }
}

}  // namespace symcex::core
