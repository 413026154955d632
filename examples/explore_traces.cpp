// Trace tooling walk-through: random simulation, counterexample
// generation, and the Section 9 "shorter counterexamples" post-processing.
//
// The model is the dining philosophers ring; we (1) simulate a random
// execution, (2) extract the starvation counterexample for philosopher 0,
// (3) shorten it while preserving the fairness constraints and the
// starvation obligation, and (4) certify the shortened trace.

#include <iostream>

#include "certify/certify.hpp"
#include "core/checker.hpp"
#include "core/explain.hpp"
#include "core/trace_util.hpp"
#include "guard/config.hpp"
#include "models/models.hpp"

int main() {
  symcex::config::install(symcex::config::from_env());
  using namespace symcex;

  auto m = models::dining_philosophers({.count = 4});
  std::cout << "dining philosophers (4): "
            << m->count_states(m->reachable()) << " reachable states, "
            << m->fairness().size() << " fairness constraints\n\n";

  // ---- 1. random simulation ------------------------------------------------
  std::cout << "-- a random 8-step execution (seed 7):\n";
  const core::Trace walk = core::simulate(*m, {.steps = 8, .seed = 7});
  std::cout << walk.to_string(*m) << "\n";

  // ---- 2. the starvation counterexample ------------------------------------
  core::Checker checker(*m);
  core::Explainer explainer(checker);
  const core::Explanation starve = explainer.explain("AG (hungry0 -> AF eat0)");
  std::cout << "-- AG (hungry0 -> AF eat0) is "
            << (starve.holds ? "true" : "false") << "\n";
  const core::Trace& trace = *starve.trace;
  std::cout << "counterexample: " << trace.prefix.size() << "-state prefix + "
            << trace.cycle.size() << "-state cycle\n"
            << trace.to_string(*m) << "\n";

  // ---- 3. shorten it --------------------------------------------------------
  // Obligations: philosopher 0 stays hungry and never eats on the cycle.
  const bdd::Bdd starving = *m->label("hungry0") & !*m->label("eat0");
  const core::Trace shorter = core::shorten(trace, *m, {starving});
  std::cout << "-- after shortening: " << shorter.prefix.size()
            << "-state prefix + " << shorter.cycle.size()
            << "-state cycle (was " << trace.length() << " states total)\n"
            << shorter.to_string(*m);

  // ---- 4. certify -----------------------------------------------------------
  const certify::Certificate cert =
      certify::TraceCertifier(*m).certify_path(shorter);
  const certify::Obligation* failed = cert.first_failure();
  std::cout << "\nshortened trace certifies: "
            << (failed == nullptr ? "yes" : failed->name + ": " + failed->detail)
            << "\n";
  bool fair = true;
  for (const auto& h : m->fairness()) fair = fair && shorter.cycle_visits(h);
  std::cout << "cycle still visits every fairness constraint: "
            << (fair ? "yes" : "no") << "\n";
  return 0;
}
