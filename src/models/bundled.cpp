// SymCeX -- the bundled model zoo: eleven small instances of the builders
// in this library, addressed by name.  The serving daemon builds them by
// name and the cross-mode oracle (tests/oracle_test.cpp) sweeps every one,
// so both read this table.

#include <stdexcept>

#include "models/models.hpp"

namespace symcex::models {
namespace {

struct ZooEntry {
  const char* name;
  std::unique_ptr<ts::TransitionSystem> (*build)();
};

constexpr ZooEntry kZoo[] = {
    {"counter", [] { return counter({.width = 4}); }},
    {"counter_mod", [] { return counter({.width = 6, .modulus = 40}); }},
    {"counter_fair",
     [] {
       return counter({.width = 3, .stutter = true, .fair_ticking = true});
     }},
    {"counter_bank", [] { return counter_bank({.banks = 4, .width = 2}); }},
    {"peterson", [] { return peterson({}); }},
    {"peterson_buggy", [] { return peterson({.buggy = true}); }},
    {"philosophers", [] { return dining_philosophers({.count = 3}); }},
    {"round_robin", [] { return round_robin_arbiter({.users = 3}); }},
    {"abp", [] { return abp({}); }},
    {"seitz_arbiter", [] { return seitz_arbiter({}); }},
    {"scc_chain", [] { return scc_chain({}); }},
};

}  // namespace

std::vector<std::string> bundled_names() {
  std::vector<std::string> names;
  for (const ZooEntry& entry : kZoo) names.emplace_back(entry.name);
  return names;
}

std::unique_ptr<ts::TransitionSystem> bundled(const std::string& name) {
  for (const ZooEntry& entry : kZoo) {
    if (name == entry.name) return entry.build();
  }
  throw std::invalid_argument("unknown bundled model: " + name);
}

}  // namespace symcex::models
