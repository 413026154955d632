#include "guard/config.hpp"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "guard/fault.hpp"

namespace symcex::config {

namespace {

void reject(const char* name, const char* value, const char* why) {
  std::fprintf(stderr, "symcex: ignoring %s=\"%s\": %s\n", name, value, why);
}

/// Resolves variables through a lookup; a rejected value leaves `out` at
/// its default.
class Reader {
 public:
  explicit Reader(const Lookup& lookup) : lookup_(lookup) {}

  void read(const char* name, bool& out) const {
    const char* value = get(name);
    if (value == nullptr) return;
    const std::string_view v(value);
    if (v == "1" || v == "true" || v == "on" || v == "yes") {
      out = true;
    } else if (v == "0" || v == "false" || v == "off" || v == "no") {
      out = false;
    } else {
      reject(name, value, "expected 1/true/on/yes or 0/false/off/no");
    }
  }

  /// A decimal count times `scale`, saturating at UINT64_MAX.
  void read(const char* name, std::uint64_t& out,
            std::uint64_t scale = 1) const {
    const char* value = get(name);
    if (value == nullptr) return;
    errno = 0;
    const unsigned long long parsed = std::strtoull(value, nullptr, 10);
    if (std::string_view(value).find_first_not_of("0123456789") !=
            std::string_view::npos ||
        errno == ERANGE) {
      reject(name, value, "expected a decimal number");
      return;
    }
    out = guard::saturating_mul(parsed, scale);
  }

  void read(const char* name, std::string& out) const {
    if (const char* value = get(name)) out = value;
  }

 private:
  /// The value, or nullptr when unset or empty.
  const char* get(const char* name) const {
    const char* value = lookup_(name);
    return value == nullptr || *value == '\0' ? nullptr : value;
  }

  const Lookup& lookup_;
};

static_assert(std::is_same_v<std::size_t, std::uint64_t>,
              "count fields are read as 64-bit");

Config& installed() {
  static Config config;
  return config;
}

}  // namespace

Config parse(const Lookup& lookup) {
  const Reader r(lookup);
  Config c;
  r.read("SYMCEX_CARE_SET", c.care_set);
  r.read("SYMCEX_COI", c.coi);
  r.read("SYMCEX_REORDER", c.reorder);
  r.read("SYMCEX_FOLD_CONST", c.fold_constants);
  r.read("SYMCEX_CLUSTER_THRESHOLD", c.cluster_threshold);
  r.read("SYMCEX_CERTIFY", c.certify);
  r.read("SYMCEX_AUDIT", c.audit);
  r.read("SYMCEX_NODE_LIMIT", c.budget.max_live_nodes);
  r.read("SYMCEX_MEMORY_LIMIT_MB", c.budget.max_memory_bytes,
         std::uint64_t{1} << 20);
  r.read("SYMCEX_DEADLINE_MS", c.budget.deadline_ms);
  r.read("SYMCEX_MAX_ITERATIONS", c.budget.max_fixpoint_iterations);
  r.read("SYMCEX_MAX_DEPTH", c.budget.max_recursion_depth);
  r.read("SYMCEX_CHECKPOINT_MARGIN_MS", c.budget.checkpoint_margin_ms);
  r.read("SYMCEX_CHECKPOINT_DIR", c.checkpoint_dir);
  r.read("SYMCEX_EVIDENCE_DIR", c.evidence_dir);
  r.read("SYMCEX_FAULT_SPEC", c.fault_spec);
  try {
    (void)guard::FaultInjector::parse_spec(c.fault_spec);
  } catch (const std::invalid_argument& e) {
    reject("SYMCEX_FAULT_SPEC", c.fault_spec.c_str(), e.what());
    c.fault_spec.clear();
  }
  r.read("SYMCEX_STATS", c.stats);
  return c;
}

Config from_env() { return parse(std::getenv); }

void install(const Config& config) {
  installed() = config;
  if (!config.fault_spec.empty()) {
    guard::FaultInjector::instance().configure(config.fault_spec);
  }
}

const Config& current() { return installed(); }

}  // namespace symcex::config
