#include "diag/metrics.hpp"

#include <atomic>

#include "diag/json.hpp"
#include "guard/config.hpp"
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <ostream>
#include <utility>

namespace symcex::diag {

namespace {

// -- enable flag and the SYMCEX_STATS at-exit report ------------------------

void report_at_exit() {
  if (!config::current().stats || !enabled()) return;
  auto& r = Registry::global();
  r.report(std::cerr);
  r.to_json(std::cerr);
  std::cerr << '\n';
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{config::current().stats};
  return flag;
}

// The report hook is registered at static initialisation, not on the first
// enabled() call, so a binary whose engine code never asks still prints
// its report and "config" line.  The configuration is built first, so it
// is destroyed after the hook runs.
const bool report_hook_registered = [] {
  (void)config::current();
  return std::atexit(report_at_exit) == 0;
}();

/// The effective configuration, one member per SYMCEX_* variable.
void write_config(std::ostream& os) {
  const config::Config& c = config::current();
  JsonWriter w(os);
  w.begin_object();
  w.member("care_set", c.care_set);
  w.member("coi", c.coi);
  w.member("reorder", c.reorder);
  w.member("fold_constants", c.fold_constants);
  w.member("cluster_threshold", std::uint64_t{c.cluster_threshold});
  w.member("certify", c.certify);
  w.member("audit", c.audit);
  w.member("max_live_nodes", std::uint64_t{c.budget.max_live_nodes});
  w.member("max_memory_bytes", std::uint64_t{c.budget.max_memory_bytes});
  w.member("deadline_ms", c.budget.deadline_ms);
  w.member("max_fixpoint_iterations",
           std::uint64_t{c.budget.max_fixpoint_iterations});
  w.member("max_recursion_depth", std::uint64_t{c.budget.max_recursion_depth});
  w.member("checkpoint_margin_ms", c.budget.checkpoint_margin_ms);
  w.member("checkpoint_dir", c.checkpoint_dir);
  w.member("evidence_dir", c.evidence_dir);
  w.member("fault_spec", c.fault_spec);
  w.member("stats", c.stats);
  w.end_object();
}

// -- thread-local phase stack ------------------------------------------------

thread_local std::string t_phase_path;            // "/"-joined segments
thread_local std::vector<std::size_t> t_phase_lens;  // lengths to pop back to

// JSON emission goes through the shared diag/json.hpp writer: strings
// fully escaped, doubles locale-independent and clamped away from the
// invalid bare inf/nan tokens (sat_count-derived gauges saturate at
// DBL_MAX and used to leak `inf` through operator<<).
using diag::write_json_double;
using diag::write_json_string;

void json_string(std::ostream& os, std::string_view s) {
  write_json_string(os, s);
}

void json_number(std::ostream& os, double v) { write_json_double(os, v); }

std::string json_output_path;  // guarded by the global registry's mutex? no:
std::mutex json_path_mu;

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry& Registry::global() {
  // Leaked deliberately: the at-exit reporter and late manager retirements
  // must never race static destruction.
  static Registry* instance = new Registry();
  return *instance;
}

void Registry::add(std::string_view name, std::uint64_t delta) {
  if (!enabled()) return;
  add_in(t_phase_path, name, delta);
}

void Registry::gauge_set(std::string_view name, double value) {
  if (!enabled()) return;
  gauge_set_in(t_phase_path, name, value);
}

void Registry::timer_add(std::string_view name, std::uint64_t ns,
                         std::uint64_t count) {
  if (!enabled()) return;
  timer_add_in(t_phase_path, name, ns, count);
}

void Registry::add_in(std::string_view phase, std::string_view name,
                      std::uint64_t delta) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  auto& per_phase = phases_[std::string(phase)];
  const auto it = per_phase.counters.find(name);
  if (it == per_phase.counters.end()) {
    per_phase.counters.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void Registry::gauge_set_in(std::string_view phase, std::string_view name,
                            double value) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  auto& per_phase = phases_[std::string(phase)];
  const auto it = per_phase.gauges.find(name);
  if (it == per_phase.gauges.end()) {
    per_phase.gauges.emplace(std::string(name), GaugeValue{value, value});
  } else {
    it->second.last = value;
    if (value > it->second.max) it->second.max = value;
  }
}

void Registry::timer_add_in(std::string_view phase, std::string_view name,
                            std::uint64_t ns, std::uint64_t count) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  auto& per_phase = phases_[std::string(phase)];
  const auto it = per_phase.timers.find(name);
  if (it == per_phase.timers.end()) {
    per_phase.timers.emplace(std::string(name), TimerValue{ns, count});
  } else {
    it->second.ns += ns;
    it->second.count += count;
  }
}

int Registry::register_source(std::function<void(Registry&)> snapshot) {
  const std::lock_guard<std::mutex> lock(mu_);
  const int id = next_source_id_++;
  sources_.emplace(id, std::move(snapshot));
  return id;
}

void Registry::unregister_source(int id) {
  const std::lock_guard<std::mutex> lock(mu_);
  sources_.erase(id);
}

void Registry::push_phase(std::string_view segment) {
  t_phase_lens.push_back(t_phase_path.size());
  if (!t_phase_path.empty()) t_phase_path += '/';
  t_phase_path += segment;
}

void Registry::pop_phase() {
  if (t_phase_lens.empty()) return;
  t_phase_path.resize(t_phase_lens.back());
  t_phase_lens.pop_back();
}

std::string Registry::current_phase() { return t_phase_path; }

std::map<std::string, PhaseMetrics, std::less<>>
Registry::snapshot_with_sources() const {
  // Copy the stored metrics and the source list under the lock, then fold
  // live sources into a scratch registry (so repeated exports never
  // double-count a still-live source in the persistent store).
  std::vector<std::function<void(Registry&)>> sources;
  Registry scratch;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    scratch.phases_ = phases_;
    sources.reserve(sources_.size());
    for (const auto& [id, fn] : sources_) sources.push_back(fn);
  }
  for (const auto& fn : sources) fn(scratch);
  return std::move(scratch.phases_);
}

void Registry::to_json(std::ostream& os) const {
  const auto phases = snapshot_with_sources();
  os << "{\"symcex_stats_version\": 2, \"config\": ";
  write_config(os);
  os << ", \"phases\": {";
  bool first_phase = true;
  for (const auto& [path, metrics] : phases) {
    if (metrics.empty()) continue;
    if (!first_phase) os << ", ";
    first_phase = false;
    json_string(os, path);
    os << ": {";
    bool first_section = true;
    if (!metrics.counters.empty()) {
      os << "\"counters\": {";
      bool first = true;
      for (const auto& [name, v] : metrics.counters) {
        if (!first) os << ", ";
        first = false;
        json_string(os, name);
        os << ": " << std::to_string(v);
      }
      os << '}';
      first_section = false;
    }
    if (!metrics.gauges.empty()) {
      if (!first_section) os << ", ";
      os << "\"gauges\": {";
      bool first = true;
      for (const auto& [name, v] : metrics.gauges) {
        if (!first) os << ", ";
        first = false;
        json_string(os, name);
        os << ": {\"last\": ";
        json_number(os, v.last);
        os << ", \"max\": ";
        json_number(os, v.max);
        os << '}';
      }
      os << '}';
      first_section = false;
    }
    if (!metrics.timers.empty()) {
      if (!first_section) os << ", ";
      os << "\"timers\": {";
      bool first = true;
      for (const auto& [name, v] : metrics.timers) {
        if (!first) os << ", ";
        first = false;
        json_string(os, name);
        os << ": {\"ns\": " << std::to_string(v.ns) << ", \"count\": "
           << std::to_string(v.count) << '}';
      }
      os << '}';
    }
    os << '}';
  }
  os << "}}";
}

void Registry::report(std::ostream& os) const {
  const auto phases = snapshot_with_sources();
  os << "== symcex diagnostics ==\n";
  for (const auto& [path, metrics] : phases) {
    if (metrics.empty()) continue;
    os << '[' << (path.empty() ? "(root)" : path.c_str()) << "]\n";
    for (const auto& [name, v] : metrics.counters) {
      os << "  " << name << " = " << v << '\n';
    }
    for (const auto& [name, v] : metrics.gauges) {
      os << "  " << name << " last=" << v.last << " max=" << v.max << '\n';
    }
    for (const auto& [name, v] : metrics.timers) {
      os << "  " << name << " = " << static_cast<double>(v.ns) / 1e6
         << " ms (count " << v.count << ")\n";
    }
  }
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  phases_.clear();
}

std::uint64_t Registry::counter(std::string_view phase,
                                std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto pit = phases_.find(phase);
  if (pit == phases_.end()) return 0;
  const auto it = pit->second.counters.find(name);
  return it == pit->second.counters.end() ? 0 : it->second;
}

GaugeValue Registry::gauge(std::string_view phase,
                           std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto pit = phases_.find(phase);
  if (pit == phases_.end()) return {};
  const auto it = pit->second.gauges.find(name);
  return it == pit->second.gauges.end() ? GaugeValue{} : it->second;
}

TimerValue Registry::timer(std::string_view phase,
                           std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto pit = phases_.find(phase);
  if (pit == phases_.end()) return {};
  const auto it = pit->second.timers.find(name);
  return it == pit->second.timers.end() ? TimerValue{} : it->second;
}

// ---------------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------------

PhaseScope::PhaseScope(std::string_view segment) {
  if (!enabled()) return;
  Registry::push_phase(segment);
  active_ = true;
}

PhaseScope::~PhaseScope() {
  if (active_) Registry::pop_phase();
}

TimerScope::TimerScope(std::string_view name, Registry& registry) {
  if (!enabled()) return;
  registry_ = &registry;
  name_ = name;
  start_ns_ = monotonic_ns();
}

TimerScope::~TimerScope() {
  if (registry_ == nullptr) return;
  registry_->timer_add(name_, monotonic_ns() - start_ns_);
}

// ---------------------------------------------------------------------------
// CLI / file output hooks
// ---------------------------------------------------------------------------

void set_json_output_path(std::string path) {
  const std::lock_guard<std::mutex> lock(json_path_mu);
  json_output_path = std::move(path);
}

bool write_json_file() {
  std::string path;
  {
    const std::lock_guard<std::mutex> lock(json_path_mu);
    path = json_output_path;
  }
  if (path.empty()) return false;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "symcex: cannot open stats file '%s' for writing\n",
                 path.c_str());
    return false;
  }
  Registry::global().to_json(out);
  out << '\n';
  return static_cast<bool>(out);
}

void handle_cli_args(int* argc, char** argv) {
  constexpr std::string_view kFlag = "--stats_json=";
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, kFlag.size()) == kFlag) {
      const std::string_view path = arg.substr(kFlag.size());
      if (path.empty()) {
        std::fprintf(stderr, "symcex: --stats_json needs a path, e.g. "
                             "--stats_json=stats.json (flag ignored)\n");
        continue;
      }
      set_json_output_path(std::string(path));
      set_enabled(true);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argv[kept] = nullptr;
  *argc = kept;
}

}  // namespace symcex::diag
