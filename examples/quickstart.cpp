// Quickstart: build a model through the C++ API, check CTL specs and print
// the counterexample / witness traces the library generates.
//
// The model is a tiny request/grant controller: a client raises `req`, the
// controller eventually answers with `gnt` -- except that the controller
// gate may lag forever unless we demand fairness, which is exactly the
// situation Section 5 of the paper addresses.

#include <iostream>

#include "core/checker.hpp"
#include "core/explain.hpp"
#include "guard/config.hpp"
#include "ts/transition_system.hpp"

int main() {
  symcex::config::install(symcex::config::from_env());
  using namespace symcex;

  // ---- 1. declare the state variables ------------------------------------
  ts::TransitionSystem m;
  const ts::VarId req = m.add_var("req");
  const ts::VarId gnt = m.add_var("gnt");

  // ---- 2. initial states and transition relation --------------------------
  m.set_init(!m.cur(req) & !m.cur(gnt));

  // The client: may raise req when idle, may drop it once granted.
  m.add_trans((!(m.next(req) ^ m.cur(req))) |               // hold
              (!m.cur(req) & !m.cur(gnt) & m.next(req)) |   // raise
              (m.cur(req) & m.cur(gnt) & !m.next(req)));    // release

  // The controller gate: gnt follows req with arbitrary delay.
  m.add_trans((!(m.next(gnt) ^ m.cur(gnt))) |               // lag
              (!(m.next(gnt) ^ m.cur(req))));               // respond

  // Fairness: the controller responds infinitely often (Section 5).
  m.add_fairness(!(m.cur(gnt) ^ m.cur(req)));

  m.add_label("pending", m.cur(req) & !m.cur(gnt));
  m.finalize();

  std::cout << "reachable states: " << m.count_states(m.reachable()) << "\n\n";

  // ---- 3. check specifications -------------------------------------------
  core::Checker checker(m);
  core::Explainer explainer(checker);

  for (const char* spec : {
           "AG (req -> AF gnt)",      // liveness: every request is granted
           "AG (pending -> AX gnt)",  // too strong: the gate may lag a step
           "EF (req & gnt)",          // a grant is reachable
       }) {
    const core::Explanation result = explainer.explain(spec);
    std::cout << "SPEC " << spec << " is "
              << (result.holds ? "true" : "false") << "\n";
    if (result.trace.has_value()) {
      std::cout << "  " << result.note << "\n"
                << result.trace->to_string(m);
    }
    std::cout << "\n";
  }
  return 0;
}
