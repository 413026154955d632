// The paper's Section 6 case study, end to end: verify a speed-independent
// asynchronous arbiter, discover the liveness bug through a fair-lasso
// counterexample, inspect the trace, and confirm the repaired design.
//
// The paper reports that an explicit-state checker failed on the original
// circuit, while the symbolic checker verified it and produced a 78-state
// counterexample with a 30-state cycle for AG(tr1 -> AF ta1).  This example
// reproduces the workflow on our arbiter model (see DESIGN.md for the
// substitution notes): check the safety invariant, watch the liveness spec
// fail, read the lasso, then verify the alternating-priority repair.

#include <iostream>

#include "core/checker.hpp"
#include "core/explain.hpp"
#include "core/witness.hpp"
#include "explicit/explicit_graph.hpp"
#include "guard/config.hpp"
#include "models/models.hpp"

int main() {
  symcex::config::install(symcex::config::from_env());
  using namespace symcex;

  std::cout << "== buggy arbiter (fixed-priority ME element) ==\n";
  auto arbiter = models::seitz_arbiter();
  std::cout << "reachable states: "
            << arbiter->count_states(arbiter->reachable()) << ", fairness constraints: "
            << arbiter->fairness().size() << "\n\n";

  core::Checker checker(*arbiter);

  // Safety first: the ME element never grants both sides.
  std::cout << "SPEC AG !(g1 & g2) : "
            << (checker.holds("AG !(g1 & g2)") ? "true" : "false") << "\n";

  // The liveness property of the paper's case study.
  core::Explainer explainer(checker);
  const core::Explanation live = explainer.explain("AG (r1 -> AF a1)");
  std::cout << "SPEC AG (r1 -> AF a1) : " << (live.holds ? "true" : "false")
            << "\n";
  if (live.trace.has_value()) {
    std::cout << "counterexample (" << live.trace->prefix.size()
              << "-state prefix + " << live.trace->cycle.size()
              << "-state cycle):\n"
              << live.trace->to_string(*arbiter);
    std::cout << "\nreading the trace: r1 rises but user 2 keeps recycling "
                 "its request;\nthe fixed-priority ME element grants side 2 "
                 "every time, so a1 never rises\nanywhere on the cycle -- "
                 "exactly the starvation the fairness constraints\nwere "
                 "supposed to let us find.\n";
  }

  // The witness generator's own statistics (Section 6 machinery).
  core::WitnessGenerator generator(checker);
  const core::Trace fair_lasso =
      generator.eg(arbiter->manager().one(), arbiter->init());
  std::cout << "\nfair EG-true lasso from the initial state: length "
            << fair_lasso.length() << " (restarts: "
            << generator.stats().restarts << ", ring steps: "
            << generator.stats().ring_steps << ")\n";

  std::cout << "\n== repaired arbiter (alternating-priority ME element) ==\n";
  auto repaired = models::seitz_arbiter({.fair_me = true});
  core::Checker checker2(*repaired);
  std::cout << "reachable states: "
            << repaired->count_states(repaired->reachable()) << "\n";
  for (const char* spec :
       {"AG !(g1 & g2)", "AG (r1 -> AF a1)", "AG (r2 -> AF a2)"}) {
    std::cout << "SPEC " << spec << " : "
              << (checker2.holds(spec) ? "true" : "false") << "\n";
  }

  // The paper's motivation: explicit enumeration hits the wall first.
  std::cout << "\nexplicit enumeration of the buggy arbiter: ";
  try {
    const auto enumerated = enumerative::enumerate(*arbiter, 1u << 20);
    std::cout << enumerated.graph.num_states() << " states enumerated\n";
  } catch (const std::length_error& e) {
    std::cout << "failed: " << e.what() << "\n";
  }
  return 0;
}
