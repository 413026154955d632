// Evidence bundles end to end: check two model-zoo systems, export each
// result as a versioned JSON bundle with annotated DOT and HTML renderings,
// and show what the standalone checker will re-verify.
//
//   export_evidence [DIR]      (default DIR: evidence-out)
//
// Produces, per check, DIR/<name>.json / .dot / .html.  The JSON bundle
// carries everything needed to re-check the result without the engine --
// replay it with:
//
//   build/tools/symcex-verify DIR/*.json
//
// and render a lasso picture with:
//
//   dot -Tsvg DIR/<name>.dot -o trace.svg

#include <iostream>
#include <string>

#include "core/checker.hpp"
#include "core/explain.hpp"
#include "evidence/evidence.hpp"
#include "guard/config.hpp"
#include "models/models.hpp"

int main(int argc, char** argv) {
  symcex::config::install(symcex::config::from_env());
  using namespace symcex;
  const std::string dir = argc > 1 ? argv[1] : "evidence-out";

  // 1. A liveness counterexample: the buggy fixed-priority arbiter starves
  //    user 1, so AG (r1 -> AF a1) fails with a fair lasso.  The bundle
  //    gets the lasso trace, a path certificate, and one "visits" duty per
  //    demonstrating obligation the explainer recorded.
  {
    auto system = models::seitz_arbiter();  // default: the buggy variant
    core::Checker checker(*system);
    core::Explainer explainer(checker);
    const std::string spec = "AG (r1 -> AF a1)";
    const core::Explanation result = explainer.explain(spec);
    std::cout << "seitz_arbiter: " << spec << " is "
              << (result.holds ? "true" : "false") << " -- " << result.note
              << "\n";

    evidence::BundleBuilder bundle =
        evidence::from_explanation(*system, "seitz_arbiter", spec, result);
    bundle.add_annotation("variant", "fixed-priority ME (buggy)");
    if (evidence::emit_files(bundle, dir, "arbiter_starvation")) {
      std::cout << "  bundle: " << dir << "/arbiter_starvation.{json,dot,html}"
                << "\n";
    }
  }

  // 2. A reachability witness with explicit semantic duties: the counter
  //    reaches its maximum.  On top of what from_explanation records we
  //    attach an EU duty (true U max), which symcex-verify re-checks on
  //    the decoded states against the exported predicate covers.
  {
    auto system = models::counter({.width = 3});
    core::Checker checker(*system);
    core::Explainer explainer(checker);
    const std::string spec = "EF max";
    const core::Explanation result = explainer.explain(spec);
    std::cout << "counter: " << spec << " is "
              << (result.holds ? "true" : "false") << " -- " << result.note
              << "\n";

    evidence::BundleBuilder bundle =
        evidence::from_explanation(*system, "counter", spec, result);
    bundle.add_duty_eu(system->manager().one(), *system->label("max"));
    if (evidence::emit_files(bundle, dir, "counter_reaches_max")) {
      std::cout << "  bundle: " << dir
                << "/counter_reaches_max.{json,dot,html}\n";
    }
  }

  std::cout << "\nre-verify without the engine:\n  symcex-verify " << dir
            << "/*.json\n";
  return 0;
}
