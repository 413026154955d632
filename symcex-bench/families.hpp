// symcex-bench -- seeded SMV input generation.
//
// Every job the benchmark runs is SMV source text plus one CTL spec with a
// known verdict.  The parameterised families are written here as SMV text
// (not taken from src/models), so each job exercises the front end the way
// a user's model file does; the bundled examples/models files ship
// verbatim under symcex-bench/models/.  The seed picks which replicated
// component a spec talks about (see Draw) and the order jobs run in; it
// never changes which families or sizes a pool contains, so the job mix --
// and with it every percentile -- is the same shape under every seed.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace symcex::bench {

/// One check job: SMV text in, a verdict with a known answer out.
struct Job {
  std::string family;      ///< generator family, e.g. "round_robin"
  unsigned n = 0;          ///< replicated-component count (0 = fixed size)
  std::string model;       ///< display name, unique per model text
  std::string model_text;  ///< SMV source without SPEC sections
  std::string spec;        ///< CTL text; atoms are DEFINE or boolean names
  bool expected = false;   ///< the known verdict
  /// For a bundled example the SPEC comes from the file itself:
  /// `model_text` is the whole file and `spec_index` selects the SPEC
  /// (-1 for generated jobs, whose SPEC is appended from `spec`).
  int spec_index = -1;

  /// The SMV text one job hands to smv::compile.
  [[nodiscard]] std::string smv_text() const;
  /// Inline (model, spec) pairs the serve protocol accepts; bundled
  /// examples write SMV expressions in their SPECs, which the serve
  /// protocol's plain CTL parser cannot resolve, so they stay off it.
  [[nodiscard]] bool servable() const { return spec_index < 0; }
};

/// A family and why the benchmark includes it.
struct Family {
  std::string name;
  std::string why;
};

/// Every family with the reason it is in the benchmark.
[[nodiscard]] const std::vector<Family>& families();

/// Which component a spec names.  Each (model, slot) gets a phase from the
/// seed, and pass p takes index phase + p: a run's passes walk the indices
/// in turn, so the component costs -- which differ with the variable order
/// -- average out the same way under every seed.
class Draw {
 public:
  Draw(std::uint64_t seed, unsigned pass) : seed_(seed), pass_(pass) {}
  /// An index in [lo, hi] for `slot`.
  [[nodiscard]] unsigned index(const std::string& slot, unsigned lo,
                               unsigned hi) const;

 private:
  std::uint64_t seed_;
  unsigned pass_;
};

// -- generators (SMV text) ----------------------------------------------------

/// n-bit ripple counter, one boolean per bit.  DEFINEs: zero, max.
[[nodiscard]] std::string counter_smv(unsigned width);
/// n-user round-robin arbiter; rotate=false is the camping bug.
/// DEFINEs: req<i> (variables), gnt<i>.
[[nodiscard]] std::string round_robin_smv(unsigned users, bool rotate);
/// Dining philosophers on a ring, interleaved with fair scheduling, the
/// whole relation written as one TRANS.
/// DEFINEs: hungry<i>, eat<i>.
[[nodiscard]] std::string philosophers_smv(unsigned count);
/// `banks` independent `width`-bit counters, each free to hold or step.
/// DEFINEs: all_zero, all_max, zero<k>, max<k> for the banks in `watched`.
[[nodiscard]] std::string counter_bank_smv(unsigned banks, unsigned width,
                                           const std::vector<unsigned>& watched);
/// Gate-level speed-independent arbiter with a shared server (Seitz
/// style), fixed-priority ME element.  Variables r1 r2 g1 g2 sr sa a1 a2.
[[nodiscard]] std::string seitz_arbiter_smv();

// -- pools --------------------------------------------------------------------

/// The bundled example files (examples/models minus the lint fixture), read
/// from `models_dir`, one job per SPEC.  Throws std::runtime_error when a
/// file is missing.
[[nodiscard]] std::vector<Job> bundled_jobs(const std::string& models_dir);

/// verdict-deep: mostly true properties with deep or wide fixpoints.
[[nodiscard]] std::vector<Job> verdict_deep_pool(const Draw& draw,
                                                 const std::string& models_dir);
/// evidence-wide: failing specs with fair-lasso counterexamples at growing N.
[[nodiscard]] std::vector<Job> evidence_wide_pool(const Draw& draw);

/// Smallest-N instance of every family spec, for the explicit cross-check.
[[nodiscard]] std::vector<Job> smallest_instances(const std::string& models_dir);

}  // namespace symcex::bench
