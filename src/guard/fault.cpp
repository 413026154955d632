#include "guard/fault.hpp"

#include <cstdlib>
#include <stdexcept>

namespace symcex::guard {

namespace detail {
std::atomic<bool> g_fault_armed{false};
}  // namespace detail

namespace {

// Probe suspension depth for this thread (FaultInjector::Suspend).
thread_local int g_suspended = 0;

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kAlloc:
      return "alloc";
    case FaultKind::kDeadline:
      return "deadline";
    case FaultKind::kIoShortWrite:
      return "io-short-write";
    case FaultKind::kIoFail:
      return "io-fail";
  }
  return "unknown";
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

std::vector<FaultEntry> FaultInjector::parse_spec(const std::string& spec) {
  std::vector<FaultEntry> entries;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) {
      if (spec.empty()) break;
      throw std::invalid_argument("fault spec: empty entry in '" + spec + "'");
    }

    const std::size_t at = item.find('@');
    if (at == std::string::npos || at == 0 || at + 1 == item.size()) {
      throw std::invalid_argument("fault spec: expected kind@[site:]count in '" +
                                  item + "'");
    }
    const std::string kind_name = item.substr(0, at);
    FaultEntry entry;
    bool known = false;
    for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
      const auto kind = static_cast<FaultKind>(k);
      if (kind_name == fault_kind_name(kind)) {
        entry.kind = kind;
        known = true;
        break;
      }
    }
    if (!known) {
      throw std::invalid_argument("fault spec: unknown kind '" + kind_name +
                                  "' in '" + item + "'");
    }

    // After the '@': `count`, `site`, or `site:count`.
    std::string rest = item.substr(at + 1);
    std::string count_text;
    const std::size_t colon = rest.find(':');
    if (colon != std::string::npos) {
      entry.site = rest.substr(0, colon);
      count_text = rest.substr(colon + 1);
      if (entry.site.empty()) {
        throw std::invalid_argument("fault spec: empty site in '" + item + "'");
      }
    } else if (!rest.empty() &&
               rest.find_first_not_of("0123456789") == std::string::npos) {
      count_text = rest;
    } else {
      entry.site = rest;
      count_text.assign(1, '1');
    }
    if (count_text.empty() ||
        count_text.find_first_not_of("0123456789") != std::string::npos) {
      throw std::invalid_argument("fault spec: bad count in '" + item + "'");
    }
    entry.countdown = std::strtoull(count_text.c_str(), nullptr, 10);
    if (entry.countdown == 0) {
      throw std::invalid_argument("fault spec: count must be >= 1 in '" + item +
                                  "'");
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

void FaultInjector::configure(const std::string& spec) {
  std::vector<FaultEntry> entries = parse_spec(spec);
  std::lock_guard<std::mutex> lock(mu_);
  entries_ = std::move(entries);
  rearm_flag();
}

void FaultInjector::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  rearm_flag();
}

void FaultInjector::reset_counters() {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
    fired_[k] = 0;
    probes_[k] = 0;
  }
}

void FaultInjector::rearm_flag() {
  detail::g_fault_armed.store(!entries_.empty(), std::memory_order_relaxed);
}

bool FaultInjector::fire(FaultKind kind, const char* site) {
  if (g_suspended > 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  probes_[static_cast<std::size_t>(kind)]++;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    FaultEntry& entry = entries_[i];
    if (entry.kind != kind) continue;
    if (!entry.site.empty() && entry.site != site) continue;
    if (--entry.countdown > 0) continue;
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    fired_[static_cast<std::size_t>(kind)]++;
    rearm_flag();
    return true;
  }
  return false;
}

std::size_t FaultInjector::fired(FaultKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_[static_cast<std::size_t>(kind)];
}

std::size_t FaultInjector::probes(FaultKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  return probes_[static_cast<std::size_t>(kind)];
}

std::size_t FaultInjector::armed_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

FaultInjector::Suspend::Suspend() { ++g_suspended; }
FaultInjector::Suspend::~Suspend() { --g_suspended; }

}  // namespace symcex::guard
