// symcex-snap -- snapshot inspection and golden-file generation.
//
//   symcex-snap info FILE.sxsnap    validate the container (magic, version,
//                                   per-section checksums) and print the
//                                   section table and metadata
//   symcex-snap load FILE.sxsnap    fully load a check snapshot: rebuild
//                                   and finalize the transition system,
//                                   decode every root, run the audit gate
//                                   and the cluster-schedule verification
//   symcex-snap demo OUT.sxsnap     write a small deterministic manager
//                                   snapshot (the golden-file generator:
//                                   tests/golden/manager_v1.sxsnap must
//                                   stay loadable by every later build
//                                   that still writes format version 1)
//
// Exit codes: 0 success, 1 the snapshot failed validation (the typed
// SnapshotError check name is printed), 2 usage error or unwritable
// output.

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "guard/config.hpp"
#include "persist/persist.hpp"
#include "version.hpp"

namespace {

using symcex::bdd::Bdd;
using symcex::bdd::Manager;

int info(const std::string& path) {
  std::cout << symcex::persist::describe_snapshot(path);
  return 0;
}

int load(const std::string& path) {
  const symcex::persist::CheckSnapshot snap =
      symcex::persist::load_check_snapshot(path);
  std::cout << path << ": loaded OK\n"
            << "  model: " << snap.model_name << "\n"
            << "  formula: " << snap.formula << "\n"
            << "  state vars: " << snap.system->var_names().size() << "\n"
            << "  frontiers: " << snap.frontiers.size() << "\n"
            << "  reachable: " << (snap.reachable.is_null() ? "not " : "")
            << "computed\n";
  return 0;
}

/// The golden content: fixed functions over four variables with one pair
/// group, written with names.  Deterministic byte-for-byte: the encoding
/// numbers nodes by traversal order, which depends only on these
/// functions.
int demo(const std::string& out_path) {
  Manager mgr(4);
  mgr.group_vars({0, 1});
  const Bdd x0 = mgr.var(0);
  const Bdd x1 = mgr.var(1);
  const Bdd x2 = mgr.var(2);
  const Bdd x3 = mgr.var(3);
  const std::vector<Bdd> roots = {(x0 & x1) | (x2 & x3), x0 ^ x2,
                                  (x1 | x3) & !x0};
  const std::vector<std::string> names = {"and-or", "xor", "mixed"};
  std::ofstream os(out_path, std::ios::binary | std::ios::trunc);
  if (!os) {
    std::cerr << "symcex-snap: cannot write '" << out_path << "'\n";
    return 2;
  }
  mgr.save_snapshot(os, roots, names);
  os.close();
  if (os.fail()) {
    std::cerr << "symcex-snap: write failed on '" << out_path << "'\n";
    return 2;
  }
  std::cout << "demo snapshot written to " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  symcex::config::install(symcex::config::from_env());
  const auto usage = [] {
    std::cerr << "usage: symcex-snap info|load|demo FILE.sxsnap\n"
                 "       symcex-snap --version\n";
    return 2;
  };
  if (argc == 2 && std::string(argv[1]) == "--version") {
    std::cout << symcex::version::build_info("symcex-snap") << "\n";
    return 0;
  }
  if (argc != 3) return usage();
  const std::string mode = argv[1];
  const std::string path = argv[2];
  try {
    if (mode == "info") return info(path);
    if (mode == "load") return load(path);
    if (mode == "demo") return demo(path);
    return usage();
  } catch (const symcex::persist::SnapshotError& e) {
    std::cerr << "symcex-snap: " << e.check() << ": " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "symcex-snap: " << e.what() << "\n";
    return 1;
  }
}
