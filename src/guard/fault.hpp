// SymCeX -- deterministic fault injection.
//
// Every recovery path in the engine -- mk()'s GC-and-retry on allocation
// failure, run_apply's recover-and-rethrow on deadline, the reorder
// session teardown in recover_after_abort, the persist layer's atomic
// snapshot writes -- exists for a failure that is hard to produce on
// demand.  This harness makes those failures reproducible: named
// injection points ("sites") throughout the kernel and the persist I/O
// path probe a process-wide injector, and a spec arms countdown-keyed
// faults at them:
//
//   SYMCEX_FAULT_SPEC="alloc@137"            137th fresh node allocation
//                                            anywhere raises bad_alloc
//   SYMCEX_FAULT_SPEC="deadline@apply:500"   500th top-level apply raises
//                                            DeadlineExceeded
//   SYMCEX_FAULT_SPEC="io-short-write@2"     2nd snapshot write truncates
//
// Spec grammar: comma-separated entries, each `kind@count`,
// `kind@site` (count 1) or `kind@site:count`.  A site-less entry matches
// every probe of its kind.  Each entry fires exactly once -- when its
// countdown reaches zero -- then disarms, so "inject, recover, prove the
// recovered state works" is a single deterministic run.
//
// Site taxonomy (DESIGN.md section 13 is the authoritative list):
//
//   alloc     @ mk, cache, table, swap      node/cache/table allocation
//   deadline  @ apply, swap, reachable, eu, eu_rings, eg, fair_eg, ...
//             (fixpoint sites are FixpointGuard loop names)
//   io-short-write @ persist-write          snapshot section write truncates
//   io-fail   @ persist-read                snapshot open/read fails
//
// The injector lives in guard (below bdd) so every layer can probe it
// without cycles.  When nothing is armed a probe is one relaxed atomic
// load -- cheap enough for mk()'s allocation branch.
//
// This is a test/CI harness.  Probes are thread-safe: armed-entry
// matching and the countdown decrement happen under a mutex, so when
// several threads check at once -- the serving daemon's workers, each on
// its own manager (DESIGN.md §15) -- exactly one of them consumes each
// armed entry; which one is scheduling-dependent.  Suspension is
// thread-local: a thread unwinding through recovery code suppresses only
// its own probes, never another's.  configure()/clear() themselves are
// not meant to race with in-flight probes -- arm the injector before the
// run, as config::install does with SYMCEX_FAULT_SPEC.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace symcex::guard {

/// What kind of failure a probe site can simulate.
enum class FaultKind : std::uint8_t {
  kAlloc,         ///< allocation failure (site raises std::bad_alloc or
                  ///< AllocationFailed, matching its real failure mode)
  kDeadline,      ///< wall-clock exhaustion (site raises DeadlineExceeded)
  kIoShortWrite,  ///< snapshot write persists only a prefix, then fails
  kIoFail,        ///< snapshot open/read fails outright
};
inline constexpr std::size_t kNumFaultKinds = 4;

/// Stable spec-grammar name of a kind ("alloc", "deadline", ...).
[[nodiscard]] const char* fault_kind_name(FaultKind kind);

/// One armed fault: fires when `countdown` matching probes have been
/// seen, then disarms.
struct FaultEntry {
  FaultKind kind = FaultKind::kAlloc;
  std::string site;  ///< empty = match every site of this kind
  std::uint64_t countdown = 1;
};

/// The process-wide injector.  Tests configure() it directly; processes
/// under test arm it with SYMCEX_FAULT_SPEC, which config::install
/// passes to configure() (config::parse has already rejected a malformed
/// spec, so the environment cannot throw into a kernel callsite).
class FaultInjector {
 public:
  /// The singleton; nothing is armed until configure().
  static FaultInjector& instance();

  /// Parse `spec` and arm its entries, replacing any current ones.
  /// Throws std::invalid_argument naming the malformed entry.  An empty
  /// spec is equivalent to clear().
  void configure(const std::string& spec);
  /// Disarm everything; probe/fire counters survive for inspection.
  void clear();
  /// Zero the probe/fire counters.
  void reset_counters();

  /// Probe from an injection site: true when an armed entry matched and
  /// its countdown expired (the entry is consumed).  Prefer the free
  /// function fault_fire(), which short-circuits when nothing is armed.
  bool fire(FaultKind kind, const char* site);

  /// Faults actually fired / probes seen for a kind, process lifetime.
  [[nodiscard]] std::size_t fired(FaultKind kind) const;
  [[nodiscard]] std::size_t probes(FaultKind kind) const;
  /// Entries still armed (not yet fired).
  [[nodiscard]] std::size_t armed_entries() const;

  /// Parse a spec string into entries without arming them.  Throws
  /// std::invalid_argument naming the malformed entry.
  [[nodiscard]] static std::vector<FaultEntry> parse_spec(
      const std::string& spec);

  /// RAII probe suspension for recovery code: the rollback that runs
  /// while unwinding from an injected fault must not itself be faulted,
  /// or "recover from one failure" silently becomes "survive arbitrarily
  /// many".  Nestable, and thread-local: a worker suspending its own
  /// probes never masks a sibling's.
  class Suspend {
   public:
    Suspend();
    ~Suspend();
    Suspend(const Suspend&) = delete;
    Suspend& operator=(const Suspend&) = delete;
  };

 private:
  FaultInjector() = default;
  void rearm_flag();

  mutable std::mutex mu_;
  std::vector<FaultEntry> entries_;
  int suspended_ = 0;
  std::size_t fired_[kNumFaultKinds] = {};
  std::size_t probes_[kNumFaultKinds] = {};
};

namespace detail {
/// True while any entry is armed; relaxed loads keep un-armed probes to
/// one atomic read on the kernel's allocation path.
extern std::atomic<bool> g_fault_armed;
}  // namespace detail

/// Injection-site probe: false (for free) when nothing is armed.
inline bool fault_fire(FaultKind kind, const char* site) {
  if (!detail::g_fault_armed.load(std::memory_order_relaxed)) return false;
  return FaultInjector::instance().fire(kind, site);
}

}  // namespace symcex::guard
