// Shared bench harness helpers.
//
// StatsExport installs the SYMCEX_* configuration (guard/config.hpp) and
// gives every bench binary the --stats_json=<path> flag: when present it
// is stripped from argv (before Google Benchmark sees it), diagnostics
// collection is switched on, and the accumulated metrics registry is
// written to <path> as JSON when main returns.  SYMCEX_STATS=1 keeps
// working independently (text report + JSON to stderr at exit).

#pragma once

#include "diag/metrics.hpp"
#include "guard/config.hpp"

namespace symcex::bench {

/// Declare first in main(), before benchmark::Initialize:
///
///   int main(int argc, char** argv) {
///     symcex::bench::StatsExport stats(&argc, argv);
///     ...
///   }
class StatsExport {
 public:
  StatsExport(int* argc, char** argv) {
    config::install(config::from_env());
    diag::handle_cli_args(argc, argv);
  }
  ~StatsExport() { diag::write_json_file(); }
  StatsExport(const StatsExport&) = delete;
  StatsExport& operator=(const StatsExport&) = delete;
};

}  // namespace symcex::bench
