// SymCeX -- the runtime configuration.
//
// Every runtime switch the engine honours is one field of Config, read
// from one SYMCEX_* environment variable (README.md "Configuration" has
// the table: variable, field, default, parse rule).  A driver resolves
// them once, at the start of main and before any engine use:
//
//   config::install(config::from_env());
//
// and the library reads config::current() from then on; nothing under
// src/ reads the environment itself.  With nothing installed, current()
// holds the defaults, which is also what an unset variable resolves to.

#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "guard/guard.hpp"

namespace symcex::config {

/// The resolved value of every SYMCEX_* variable.
struct Config {
  bool care_set = false;        ///< simplify sweeps against the care set
  bool coi = false;             ///< reduce each check to its cone of influence
  bool reorder = false;         ///< growth-triggered dynamic reordering
  bool fold_constants = false;  ///< SMV compile: fold constant variables
  std::size_t cluster_threshold = 4096;  ///< partition merge cap (DAG nodes)
  bool certify = false;         ///< certify every emitted trace
  bool audit = false;           ///< audit the manager after every GC
  guard::ResourceBudget budget;  ///< ambient budget of unscoped managers
  std::string checkpoint_dir;   ///< where checkpoints go ("" = none)
  std::string evidence_dir;     ///< where evidence bundles go ("" = none)
  std::string fault_spec;       ///< armed fault-injection spec ("" = none)
  bool stats = false;           ///< diagnostics report at process exit
};

/// Reads one variable: its value, or nullptr when unset.
using Lookup = std::function<const char*(const char*)>;

/// The only parser: resolves every variable through `lookup`.  A flag is
/// 1/true/on/yes or 0/false/off/no, a count is decimal digits, a fault
/// spec follows guard/fault.hpp; an unset or empty variable keeps its
/// default.  Any other value keeps the default too, and is reported in
/// one stderr line naming the variable.
[[nodiscard]] Config parse(const Lookup& lookup);

/// parse(std::getenv): the process environment.
[[nodiscard]] Config from_env();

/// Make `config` the process-wide configuration, and arm the fault
/// injector with its fault_spec when that is non-empty.  Call before any
/// other library use (values sampled at first use -- the certify, audit
/// and stats flags -- do not follow a later install) and before starting
/// threads.
void install(const Config& config);

/// The installed configuration; the defaults when none is installed.
[[nodiscard]] const Config& current();

}  // namespace symcex::config
