// SymCeX -- diagnostics and profiling layer.
//
// A lightweight, zero-dependency metrics registry that lets every layer of
// the checker account for its work: how many fixpoint iterations a verdict
// took, how many image sweeps the witness generator reused, how much wall
// time the BDD manager spent paused in garbage collection.  The paper's
// headline claim -- witness generation is cheap relative to the fixpoint
// computations it reuses -- is only demonstrable with this attribution.
//
// Three metric kinds, all keyed by (phase path, name):
//
//   * Counter -- monotonically increasing event count (`add`);
//   * Gauge   -- last-written value plus its high-water mark (`gauge_set`),
//                used for e.g. peak intermediate DAG sizes;
//   * Timer   -- accumulated monotonic-clock nanoseconds and a count of
//                recordings (`timer_add`, or the RAII TimerScope).
//
// Attribution is hierarchical: a PhaseScope pushes a segment onto a
// thread-local phase stack ("check" -> "check/eg" -> "check/eg/closure"),
// and every record lands in the phase that is current on the recording
// thread.  This separates e.g. the EU iterations spent computing a verdict
// (`check/eg`) from those spent closing a witness cycle
// (`witness/eg/closure`).
//
// Cost model: when diagnostics are disabled (the default) every record
// call is a single relaxed atomic load and an early return, and PhaseScope
// is a no-op -- hot BDD kernels additionally keep their own plain-struct
// counters (bdd::ManagerStats) and are folded in only at export time.
// When enabled, records take a mutex; all instrumented call sites are
// far from the per-node inner loops.
//
// Enabling:
//   * configuration: SYMCEX_STATS=1 -- collect, and at process exit write
//     a human-readable report followed by the JSON document to stderr;
//   * benches:      --stats_json=<path>  -- collect, and write the JSON
//     document to <path> on exit (see bench/bench_util.hpp);
//   * programmatic: diag::set_enabled(true) plus Registry::to_json().

#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace symcex::diag {

/// Is metric collection on?  Initialised from config::current().stats
/// (SYMCEX_STATS); flip with set_enabled().
[[nodiscard]] bool enabled();
void set_enabled(bool on);

/// Last value written to a gauge plus its high-water mark.
struct GaugeValue {
  double last = 0.0;
  double max = 0.0;
};

/// Accumulated nanoseconds and number of recordings of a timer.
struct TimerValue {
  std::uint64_t ns = 0;
  std::uint64_t count = 0;
};

/// All metrics recorded under one phase path.
struct PhaseMetrics {
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::map<std::string, GaugeValue, std::less<>> gauges;
  std::map<std::string, TimerValue, std::less<>> timers;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && timers.empty();
  }
};

/// The metrics store.  Instrumented code records into Registry::global();
/// tests may build private instances.  All methods are thread-safe; the
/// phase stack is per-thread and shared by all registries.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry (never destroyed, so at-exit reporting is
  /// safe regardless of static destruction order).
  [[nodiscard]] static Registry& global();

  // -- recording (no-ops while !enabled()) ---------------------------------

  /// Add `delta` to the counter `name` under the current phase.
  void add(std::string_view name, std::uint64_t delta = 1);
  /// Set gauge `name` under the current phase (tracks last and max).
  void gauge_set(std::string_view name, double value);
  /// Accumulate `ns` nanoseconds (`count` recordings) into timer `name`
  /// under the current phase.
  void timer_add(std::string_view name, std::uint64_t ns,
                 std::uint64_t count = 1);

  /// Explicit-phase variants, used by snapshot sources that record on
  /// behalf of a subsystem rather than a call site.
  void add_in(std::string_view phase, std::string_view name,
              std::uint64_t delta);
  void gauge_set_in(std::string_view phase, std::string_view name,
                    double value);
  void timer_add_in(std::string_view phase, std::string_view name,
                    std::uint64_t ns, std::uint64_t count = 1);

  // -- snapshot sources ----------------------------------------------------

  /// Register a live metrics source (e.g. a BDD manager): at export time
  /// the callback is invoked on a temporary registry to fold the source's
  /// current numbers into the output.  A source that is destroyed should
  /// fold its final numbers into this registry permanently (with the
  /// *_in methods) and then unregister.  Returns an id for unregister.
  int register_source(std::function<void(Registry&)> snapshot);
  void unregister_source(int id);

  // -- phase stack (thread-local; shared across registries) ----------------

  static void push_phase(std::string_view segment);
  static void pop_phase();
  /// The calling thread's current phase path, e.g. "check/eg" ("" = root).
  [[nodiscard]] static std::string current_phase();

  // -- export --------------------------------------------------------------

  /// Write the whole registry (with live sources folded in) as one JSON
  /// document, headed by the effective configuration.  Schema (version 2):
  ///
  ///   { "symcex_stats_version": 2,
  ///     "config": { "<Config field>": <bool|uint|string>, ... },
  ///     "phases": {
  ///       "<phase path>": {
  ///         "counters": { "<name>": <uint>, ... },
  ///         "gauges":   { "<name>": {"last": <num>, "max": <num>}, ... },
  ///         "timers":   { "<name>": {"ns": <uint>, "count": <uint>}, ... }
  ///       }, ... } }
  void to_json(std::ostream& os) const;
  /// Human-readable text report (same data as to_json).
  void report(std::ostream& os) const;
  /// Drop all recorded metrics (registered sources are kept).
  void reset();

  // -- introspection (tests) -----------------------------------------------

  [[nodiscard]] std::uint64_t counter(std::string_view phase,
                                      std::string_view name) const;
  [[nodiscard]] GaugeValue gauge(std::string_view phase,
                                 std::string_view name) const;
  [[nodiscard]] TimerValue timer(std::string_view phase,
                                 std::string_view name) const;

 private:
  [[nodiscard]] std::map<std::string, PhaseMetrics, std::less<>>
  snapshot_with_sources() const;

  mutable std::mutex mu_;
  std::map<std::string, PhaseMetrics, std::less<>> phases_;
  std::map<int, std::function<void(Registry&)>> sources_;
  int next_source_id_ = 0;
};

/// RAII phase segment: pushes `segment` (which may itself contain '/', e.g.
/// "witness/eg") for the scope's lifetime.  No-op while disabled.
class PhaseScope {
 public:
  explicit PhaseScope(std::string_view segment);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  bool active_ = false;
};

/// RAII timer: records the scope's monotonic wall time into timer `name`
/// under the phase current at destruction.  No-op while disabled.
class TimerScope {
 public:
  explicit TimerScope(std::string_view name,
                      Registry& registry = Registry::global());
  ~TimerScope();
  TimerScope(const TimerScope&) = delete;
  TimerScope& operator=(const TimerScope&) = delete;

 private:
  Registry* registry_ = nullptr;  // null while disabled
  std::string name_;
  std::uint64_t start_ns_ = 0;
};

/// Current monotonic clock reading in nanoseconds (steady_clock).
[[nodiscard]] std::uint64_t monotonic_ns();

/// Configure a path the global registry's JSON is written to by
/// write_json_file() (used by the bench --stats_json hook).
void set_json_output_path(std::string path);
/// Write the global registry to the configured path; returns false when no
/// path is configured or the file cannot be opened.
bool write_json_file();

/// Strip a `--stats_json=<path>` argument from argv (adjusting *argc),
/// enabling collection and configuring the output path when present.
void handle_cli_args(int* argc, char** argv);

}  // namespace symcex::diag
