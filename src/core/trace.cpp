#include "core/trace.hpp"

#include <stdexcept>

namespace symcex::core {

std::vector<bdd::Bdd> Trace::states() const {
  std::vector<bdd::Bdd> out = prefix;
  out.insert(out.end(), cycle.begin(), cycle.end());
  return out;
}

const bdd::Bdd& Trace::at(std::size_t i) const {
  if (i < prefix.size()) return prefix[i];
  if (cycle.empty()) {
    throw std::out_of_range("Trace::at: index beyond finite path");
  }
  return cycle[(i - prefix.size()) % cycle.size()];
}

std::string Trace::to_string(const ts::TransitionSystem& ts) const {
  std::string out;
  bdd::Bdd prev;
  std::size_t step = 0;
  auto emit = [&](const bdd::Bdd& s) {
    out += "  state " + std::to_string(step++) + ": " +
           ts.state_string(s, prev) + "\n";
    prev = s;
  };
  for (const auto& s : prefix) emit(s);
  if (!cycle.empty()) {
    out += "  -- loop starts here --\n";
    for (const auto& s : cycle) emit(s);
  }
  return out;
}

std::string Trace::validate(const ts::TransitionSystem& ts) const {
  auto is_single_state = [&](const bdd::Bdd& s) {
    return !s.is_false() && ts.count_states(s) == 1.0;
  };
  auto has_edge = [&](const bdd::Bdd& a, const bdd::Bdd& b) {
    return ts.image(a).intersects(b);
  };
  const std::vector<bdd::Bdd> all = states();
  if (all.empty()) return "trace is empty";
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].is_null()) return "state " + std::to_string(i) + " is null";
    if (!is_single_state(all[i])) {
      return "state " + std::to_string(i) + " is not a single concrete state";
    }
    if (i > 0 && !has_edge(all[i - 1], all[i])) {
      return "no transition from state " + std::to_string(i - 1) +
             " to state " + std::to_string(i);
    }
  }
  if (!cycle.empty() && !has_edge(cycle.back(), cycle.front())) {
    return "no transition closing the cycle";
  }
  return "";
}

bool Trace::all_satisfy(const bdd::Bdd& inv) const {
  for (const auto& s : prefix) {
    if (!s.implies(inv)) return false;
  }
  for (const auto& s : cycle) {
    if (!s.implies(inv)) return false;
  }
  return true;
}

bool Trace::cycle_visits(const bdd::Bdd& set) const {
  for (const auto& s : cycle) {
    if (s.intersects(set)) return true;
  }
  return false;
}

}  // namespace symcex::core
