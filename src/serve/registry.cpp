// SymCeX -- serve: the served-model registry.
//
// Three ways a model enters the daemon: by bundled name (the test zoo,
// built programmatically), as inline SMV source (compiled by the mini-SMV
// front end), or warm from a persist check snapshot (the rebuilt system
// arrives with its reachable set installed and its fair-states set staged
// for Checker::seed_fair -- the snapshot format doubles as the daemon's
// warm-start path).

#include "serve/serve.hpp"

#include <utility>

#include "models/models.hpp"
#include "persist/persist.hpp"

namespace symcex::serve {

const std::vector<std::string>& bundled_model_names() {
  static const std::vector<std::string> names = {
      "counter",      "counter_mod", "counter_fair",  "counter_bank",
      "peterson",     "peterson_buggy", "philosophers", "round_robin",
      "abp",          "seitz_arbiter", "scc_chain",
  };
  return names;
}

ServedModel build_bundled_model(const std::string& name) {
  ServedModel m;
  m.name = name;
  if (name == "counter") {
    m.owned = models::counter({.width = 4});
  } else if (name == "counter_mod") {
    m.owned = models::counter({.width = 6, .modulus = 40});
  } else if (name == "counter_fair") {
    m.owned =
        models::counter({.width = 3, .stutter = true, .fair_ticking = true});
  } else if (name == "counter_bank") {
    m.owned = models::counter_bank({.banks = 4, .width = 2});
  } else if (name == "peterson") {
    m.owned = models::peterson({});
  } else if (name == "peterson_buggy") {
    m.owned = models::peterson({.buggy = true});
  } else if (name == "philosophers") {
    m.owned = models::dining_philosophers({.count = 3});
  } else if (name == "round_robin") {
    m.owned = models::round_robin_arbiter({.users = 3});
  } else if (name == "abp") {
    m.owned = models::abp({});
  } else if (name == "seitz_arbiter") {
    m.owned = models::seitz_arbiter({});
  } else if (name == "scc_chain") {
    m.owned = models::scc_chain({});
  } else {
    throw std::invalid_argument("serve: unknown bundled model: " + name);
  }
  m.system = m.owned.get();
  return m;
}

ServedModel build_smv_model(std::string name, const std::string& source) {
  ServedModel m;
  m.name = std::move(name);
  m.smv = std::make_unique<smv::SmvModel>(smv::compile(source));
  m.system = &m.smv->system();
  return m;
}

ServedModel load_warm_model(const std::string& snapshot_path) {
  // `m` is declared first so it is destroyed last: once it owns the
  // system, `snapshot`'s handles must die before their manager.
  ServedModel m;
  persist::CheckSnapshot snapshot = persist::load_check_snapshot(snapshot_path);
  m.name = snapshot.model_name;
  m.owned = std::move(snapshot.system);
  m.system = m.owned.get();
  if (!snapshot.reachable.is_null()) {
    m.system->install_reachable(snapshot.reachable);
  }
  m.warm_fair = snapshot.fair;
  return m;
}

}  // namespace symcex::serve
