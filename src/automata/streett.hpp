// SymCeX -- Streett automata and language containment (Section 8).
//
// Verification by language inclusion: the system is an omega-automaton
// K_sys, the specification a second automaton K_spec, and the system is
// correct iff L(K_sys) is a subset of L(K_spec).  Following the paper we
// focus on Streett automata (acceptance: for every pair (U_i, V_i),
// inf(run) is a subset of U_i or intersects V_i), require the
// specification to be deterministic and complete (containment against a
// nondeterministic specification is PSPACE-hard), and reduce the check to
// the restricted CTL* fragment on the product structure M(K, K'):
//
//   L(K) subset of L(K')   iff   M(K, K') |= not E( phi_F  &  not phi_F' )
//
// where phi_F encodes K's acceptance (a conjunction of FG U | GF V) and
// not phi_F' the negation of K''s (a disjunction of GF !U' & FG !V').
// Each disjunct lands exactly in Section 7's fragment, so a containment
// counterexample is a Section 7 witness: an ultimately periodic word
// accepted by the system and rejected by the specification.
//
// Buchi automata are the special case with pairs {(empty, F)}; Rabin and
// Muller automata are handled "in essentially the same way" (the paper's
// closing remark of Section 8) in omega.hpp.

#pragma once

#include <optional>
#include <vector>

#include "automata/automaton.hpp"
#include "core/trace.hpp"
#include "core/witness.hpp"

namespace symcex::automata {

/// One Streett acceptance pair: inf(run) subset of `u` OR intersects `v`.
struct StreettPair {
  std::vector<AState> u;
  std::vector<AState> v;
};

/// A (possibly nondeterministic) Streett automaton.
struct StreettAutomaton : TransitionStructure {
  std::vector<StreettPair> acceptance;

  StreettAutomaton(std::uint32_t states, std::uint32_t symbols,
                   AState initial_state)
      : TransitionStructure(states, symbols, initial_state) {}

  void add_pair(std::vector<AState> u, std::vector<AState> v);

  /// Make the automaton complete by routing missing (state, symbol) pairs
  /// to a fresh rejecting sink.
  void complete();

  /// Buchi automaton (visit `accepting` infinitely often) as the Streett
  /// automaton with the single pair (empty, F).
  [[nodiscard]] static StreettAutomaton buchi(
      std::uint32_t states, std::uint32_t symbols, AState initial_state,
      const std::vector<AState>& accepting);

  /// Exact acceptance of the ultimately periodic word prefix (cycle)^w
  /// (Streett emptiness on the automaton x lasso product); used to
  /// validate counterexamples independently of the symbolic path.
  [[nodiscard]] bool accepts_lasso(const std::vector<Symbol>& prefix,
                                   const std::vector<Symbol>& cycle) const;
};

/// An ultimately periodic counterexample word with the product run
/// behind it.
struct WordLasso {
  std::vector<Symbol> word_prefix;
  std::vector<Symbol> word_cycle;
  std::vector<std::pair<AState, AState>> run_prefix;  ///< (sys, spec) states
  std::vector<std::pair<AState, AState>> run_cycle;
};

struct ContainmentResult {
  bool contained = false;
  std::optional<WordLasso> counterexample;
  /// Reachable product states explored symbolically (diagnostics).
  double product_states = 0.0;
  /// Fixpoint evaluations spent (Section 9's cost remark).
  std::size_t fixpoint_evaluations = 0;
  /// Three-valued verdict: kTrue = contained, kFalse = counterexample
  /// found, kUnknown = the resource budget (guard::ScopedBudget / the
  /// configured SYMCEX_* limits, picked up by the private product
  /// manager) ran out first.  When kUnknown, `contained` is false,
  /// `counterexample` empty, and `unknown_reason` / `spent` say what gave
  /// out; rerun with a raised budget for the real verdict.
  core::Verdict verdict = core::Verdict::kUnknown;
  std::string unknown_reason;
  guard::BudgetSpent spent;
};

/// Check L(sys) subset of L(spec).  `spec` must be deterministic and
/// complete (throws otherwise); `sys` may be nondeterministic.  On failure
/// the result carries a word accepted by sys and rejected by spec.
[[nodiscard]] ContainmentResult check_containment(const StreettAutomaton& sys,
                                                  const StreettAutomaton& spec,
                                                  const core::WitnessOptions&
                                                      options = {});

}  // namespace symcex::automata
