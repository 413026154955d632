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
