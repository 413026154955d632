// symcex-bench -- one job through the public library calls, with failure
// accounting that never aborts a run.
//
//   verdict-deep:   smv::compile -> reachable() -> Checker::check ->
//                   Explainer::explain -> TraceCertifier::certify_path
//   evidence-wide:  the above, then evidence::from_explanation -> to_json
//                   -> file write -> the symcex-verify binary on the file
//
// Every job ends in exactly one Outcome; any exception a stage throws is
// caught here and classified, so one bad job costs one failure, not the
// run.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "families.hpp"
#include "tracer.hpp"

namespace symcex::bench {

enum class Outcome {
  kOk,
  kWrongVerdict,
  kUnknown,
  kUncoverable,  ///< evidence::cover_of passed its cap (std::length_error)
  kCertificateFailed,
  kVerifyRejected,
  kException,
  kCount,  // number of classes, not a class
};
inline constexpr std::size_t kNumOutcomes =
    static_cast<std::size_t>(Outcome::kCount);

/// Stable kebab-case name ("ok", "wrong-verdict", ...).
[[nodiscard]] const char* outcome_name(Outcome o);

/// Work counters of one job, read from the public stats structs after each
/// stage.  Every field is a deterministic function of the job's input.
struct Counters {
  std::uint64_t state_vars = 0;
  std::uint64_t conjuncts = 0;
  std::uint64_t clusters = 0;
  std::uint64_t apply_calls = 0;
  std::uint64_t and_exists_calls = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t unique_hits = 0;
  std::uint64_t unique_misses = 0;
  std::uint64_t peak_nodes = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t eu_iterations = 0;
  std::uint64_t eg_iterations = 0;
  std::uint64_t preimage_calls = 0;
  std::uint64_t faireg_reuse_hits = 0;
  std::uint64_t witness_restarts = 0;
  std::uint64_t trace_len = 0;
  std::uint64_t certify_obligations = 0;
  std::uint64_t bundle_bytes = 0;
  std::uint64_t bundle_fnv = 0;  ///< FNV-1a of the bundle bytes

  friend bool operator==(const Counters&, const Counters&) = default;
};

struct JobResult {
  Outcome outcome = Outcome::kOk;
  std::string detail;   ///< why the job failed ("" when ok)
  std::string verdict;  ///< "true" / "false" / "unknown" / ""
  double job_ms = 0.0;
  double gc_pause_ms = 0.0;  ///< wall time, so kept out of Counters
  Counters counters;
};

struct Paths {
  std::string verify;  ///< the symcex-verify binary
  std::string models;  ///< bundled SMV example files
  std::string run;     ///< this run's scratch directory (bundles, logs)
};

/// Run one job.  `evidence` adds the bundle, file and verify stages.
/// Spans go to `tracer` under `job_id` when it is enabled.
[[nodiscard]] JobResult run_job(const Job& job, bool evidence,
                                const Paths& paths, Tracer& tracer,
                                std::uint64_t job_id);

/// Spawn `program args...` with stdout and stderr appended to `log`, wait,
/// and return its exit status (-1 when it could not run or was signalled).
int spawn_and_wait(const std::string& program,
                   const std::vector<std::string>& args,
                   const std::string& log);

}  // namespace symcex::bench
