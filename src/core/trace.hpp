// SymCeX -- execution traces (counterexamples / witnesses).
//
// Section 6 of the paper: a witness for a formula under fairness is an
// infinite path, represented finitely as a prefix followed by a repeating
// cycle (a "finite witness"; a lasso).  A witness for a pure reachability
// property (EF/EU with no fair extension requested) may have an empty cycle.
//
// States are stored as full minterms over the current rail of the owning
// TransitionSystem, so each entry denotes exactly one concrete state.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "ts/transition_system.hpp"

namespace symcex::core {

/// A finite witness: `prefix` followed by `cycle` repeated forever.
/// The represented path is  prefix[0] .. prefix[n-1] (cycle[0] .. cycle[m-1])^w,
/// with an edge prefix.back() -> cycle.front() and cycle.back() -> cycle.front().
/// If `cycle` is empty the trace is a plain finite path.
struct Trace {
  std::vector<bdd::Bdd> prefix;
  std::vector<bdd::Bdd> cycle;

  [[nodiscard]] bool is_lasso() const { return !cycle.empty(); }
  /// Total length |prefix| + |cycle| (the paper's "length of a finite
  /// witness").
  [[nodiscard]] std::size_t length() const {
    return prefix.size() + cycle.size();
  }
  /// All states in visit order (prefix then one unrolling of the cycle).
  [[nodiscard]] std::vector<bdd::Bdd> states() const;
  /// The i-th state of the infinite path (cycle unrolled as needed).
  [[nodiscard]] const bdd::Bdd& at(std::size_t i) const;

  /// SMV-style rendering: one block per state, printing only the variables
  /// that changed relative to the previous state, and marking the cycle
  /// start with "-- loop starts here --".
  [[nodiscard]] std::string to_string(const ts::TransitionSystem& ts) const;

  /// Does every state of the trace satisfy `inv`?
  [[nodiscard]] bool all_satisfy(const bdd::Bdd& inv) const;
  /// Does some state of the *cycle* satisfy `set`?  (Used to check that a
  /// fair lasso visits each fairness constraint.)
  [[nodiscard]] bool cycle_visits(const bdd::Bdd& set) const;
};

}  // namespace symcex::core
