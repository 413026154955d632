// SymCeX -- serve: the served-model registry.
//
// Three ways a model enters the daemon: by bundled name (the models::bundled
// zoo), as inline SMV source (compiled by the mini-SMV
// front end), or warm from a persist check snapshot (the rebuilt system
// arrives with its reachable set installed and its fair-states set staged
// for Checker::seed_fair -- the snapshot format doubles as the daemon's
// warm-start path).

#include "serve/serve.hpp"

#include <utility>

#include "models/models.hpp"
#include "persist/persist.hpp"

namespace symcex::serve {

ServedModel build_bundled_model(const std::string& name) {
  ServedModel m;
  m.name = name;
  m.owned = models::bundled(name);
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
