// Section 8 of the paper: verification by language containment between
// omega-automata, with counterexample words extracted through the CTL*
// witness machinery.
//
// The system is a nondeterministic Streett automaton modelling a retrying
// sender (alphabet: s = send, r = retry, k = ack); the specification is a
// deterministic automaton demanding that retries do not continue forever.
// We check one correct and one broken system and print the ultimately
// periodic counterexample word for the broken one.

#include <iostream>

#include "automata/from_ts.hpp"
#include "automata/omega.hpp"
#include "automata/streett.hpp"
#include "guard/config.hpp"
#include "models/models.hpp"

namespace {

constexpr symcex::automata::Symbol kSend = 0;
constexpr symcex::automata::Symbol kRetry = 1;
constexpr symcex::automata::Symbol kAck = 2;

const char* symbol_name(symcex::automata::Symbol s) {
  switch (s) {
    case kSend:
      return "send";
    case kRetry:
      return "retry";
    default:
      return "ack";
  }
}

/// Specification: retries do not continue forever -- acknowledgements must
/// recur.  Deterministic, complete; the Buchi-style Streett pair ({}, {0})
/// demands that the post-ack state is visited infinitely often.
symcex::automata::StreettAutomaton make_spec() {
  using namespace symcex::automata;
  // state 0: idle (just acked / initial), state 1: in flight.
  StreettAutomaton spec(2, 3, 0);
  spec.add_transition(0, kSend, 1);
  spec.add_transition(0, kRetry, 1);
  spec.add_transition(0, kAck, 0);
  spec.add_transition(1, kRetry, 1);
  spec.add_transition(1, kAck, 0);
  spec.add_transition(1, kSend, 1);
  spec.add_pair({}, {0});
  return spec;
}

}  // namespace

int main() {
  symcex::config::install(symcex::config::from_env());
  using namespace symcex::automata;

  const StreettAutomaton spec = make_spec();
  std::cout << "specification: deterministic=" << spec.is_deterministic()
            << " complete=" << spec.is_complete() << "\n\n";

  // ---- correct sender: every retry burst ends with an ack ----------------
  {
    StreettAutomaton sys(2, 3, 0);
    sys.add_transition(0, kSend, 1);
    sys.add_transition(1, kRetry, 1);
    sys.add_transition(1, kAck, 0);
    // Acceptance: the sender must deliver (ack state recurs).
    sys.add_pair({}, {0});
    const ContainmentResult result = check_containment(sys, spec);
    std::cout << "correct sender: L(sys) subset of L(spec) = "
              << (result.contained ? "yes" : "no")
              << "  (product states: " << result.product_states << ")\n";
  }

  // ---- broken sender: may retry forever -----------------------------------
  {
    StreettAutomaton sys(2, 3, 0);
    sys.add_transition(0, kSend, 1);
    sys.add_transition(1, kRetry, 1);  // no obligation to ever ack
    sys.add_transition(1, kAck, 0);
    const ContainmentResult result = check_containment(sys, spec);
    std::cout << "broken sender:  L(sys) subset of L(spec) = "
              << (result.contained ? "yes" : "no") << "\n";
    if (result.counterexample.has_value()) {
      const WordLasso& word = *result.counterexample;
      std::cout << "counterexample word: ";
      for (const Symbol s : word.word_prefix) {
        std::cout << symbol_name(s) << " ";
      }
      std::cout << "( ";
      for (const Symbol s : word.word_cycle) {
        std::cout << symbol_name(s) << " ";
      }
      std::cout << ")^w\n";
      std::cout << "validated: accepted by system = "
                << (sys.accepts_lasso(word.word_prefix, word.word_cycle)
                        ? "yes"
                        : "no")
                << ", accepted by spec = "
                << (spec.accepts_lasso(word.word_prefix, word.word_cycle)
                        ? "yes"
                        : "no")
                << "\n";
    }
  }

  // ---- a transition-system model checked against a spec automaton ---------
  // The stuttering counter emits its "ticked" label; the specification
  // demands ticks recur.  Without fair ticking the model violates it.
  {
    std::cout << "\n== model vs specification automaton (TS bridge) ==\n";
    StreettAutomaton ticks_recur(2, 2, 0);
    ticks_recur.add_transition(0, 0, 0);
    ticks_recur.add_transition(0, 1, 1);
    ticks_recur.add_transition(1, 0, 0);
    ticks_recur.add_transition(1, 1, 1);
    ticks_recur.add_pair({}, {1});

    auto lazy = symcex::models::counter({.width = 3, .stutter = true});
    const TsToAutomaton bridge = to_streett(*lazy, {"ticked"});
    const ContainmentResult lazy_result =
        check_containment(bridge.automaton, ticks_recur);
    std::cout << "lazy counter satisfies 'ticks recur': "
              << (lazy_result.contained ? "yes" : "no") << "\n";
    if (lazy_result.counterexample.has_value()) {
      std::cout << "counterexample label trace: ";
      for (const Symbol s : lazy_result.counterexample->word_prefix) {
        std::cout << bridge.symbol_name(s) << " ";
      }
      std::cout << "( ";
      for (const Symbol s : lazy_result.counterexample->word_cycle) {
        std::cout << bridge.symbol_name(s) << " ";
      }
      std::cout << ")^w\n";
    }
    auto eager = symcex::models::counter(
        {.width = 3, .stutter = true, .fair_ticking = true});
    const TsToAutomaton bridge2 = to_streett(*eager, {"ticked"});
    std::cout << "fairly-ticking counter satisfies it: "
              << (check_containment(bridge2.automaton, ticks_recur).contained
                      ? "yes"
                      : "no")
              << "\n";
  }

  // ---- Rabin specification through the same pipeline -----------------------
  {
    std::cout << "\n== Rabin specification (Section 8 closing remark) ==\n";
    StreettAutomaton all_words(1, 2, 0);
    all_words.add_transition(0, 0, 0);
    all_words.add_transition(0, 1, 0);
    RabinAutomaton eventually_only_a(2, 2, 0);
    eventually_only_a.add_transition(0, 0, 0);
    eventually_only_a.add_transition(0, 1, 1);
    eventually_only_a.add_transition(1, 0, 0);
    eventually_only_a.add_transition(1, 1, 1);
    eventually_only_a.add_pair({1}, {0});  // inf avoids 1, touches 0
    const ContainmentResult r =
        check_containment(all_words, eventually_only_a);
    std::cout << "all words inside 'eventually only a': "
              << (r.contained ? "yes" : "no");
    if (r.counterexample.has_value()) {
      std::cout << "  (counterexample cycle of "
                << r.counterexample->word_cycle.size() << " symbols)";
    }
    std::cout << "\n";
  }
  return 0;
}
