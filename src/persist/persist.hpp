// SymCeX -- crash-safe snapshot persistence.
//
// An aborted run used to lose everything: PR 3 made exhaustion
// recoverable in-process, but the reachability and fixpoint work died
// with the process.  This layer gives in-flight state a durable form --
// the prerequisite the ROADMAP's check-serving direction names ("a
// serialization format for BDDs/traces, which also unlocks checkpointing
// aborted runs").
//
// The format (version 1; DESIGN.md section 13 has the byte-level layout):
//
//   "SYMCEXSN" magic | u32 version | u32 flags
//   sections: { 4-byte tag | u64 payload length | payload | u64 FNV-1a }
//   terminated by an END section
//
// Everything is little-endian, explicitly packed.  The BDD DAG is
// encoded shared (one (var, lo, hi) triple per node, children-first,
// deterministic traversal numbering) together with the level map and
// pair-group metadata; a check snapshot adds the transition system's
// construction data (variable names, init/parts/fairness/labels, cluster
// threshold), the finalized cluster/schedule roots for verification,
// completed results (reachable set, fair states), and the in-flight
// fixpoint frontiers {Z, rings, iteration} plus the BudgetSpent at the
// interruption.
//
// Trust argument: a snapshot is self-produced state, not foreign input,
// but it is still parsed defensively -- magic/version negotiation,
// per-section checksums, truncation and bounds checks, and a post-load
// Manager::audit() gate mean a corrupt or torn file surfaces as a typed
// SnapshotError, never UB.  What checksums cannot prove is semantic
// fidelity; that comes from two independent directions: the loader
// re-derives the cluster schedules from the decoded parts and insists on
// handle equality with the stored roots (canonicity makes the comparison
// exact), and a resumed verdict's trace re-certifies against the raw
// relation under SYMCEX_CERTIFY exactly like an uninterrupted one.
//
// Writes are atomic: a temp file in the target directory, fsync-free but
// fully checksummed, renamed into place only after a clean close.  A
// crash mid-write leaves a *.tmp the loader never looks at; a torn or
// bit-flipped file fails its checksums.

#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "ctl/formula.hpp"
#include "guard/guard.hpp"
#include "ts/transition_system.hpp"

namespace symcex::persist {

/// Snapshot format version this build writes and accepts.
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// Typed, recoverable snapshot failure.  `check` is a short stable name
/// of the violated property -- "magic", "version", "checksum", "truncated",
/// "oversized-length", "duplicate-section", "unknown-section", "node-ref",
/// "node-order", "root", "meta", "group-map", "order-map", "audit",
/// "cluster-schedule", "io" -- so tests and tools can assert on the
/// failure mode, not the prose.
class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(std::string check, const std::string& what)
      : std::runtime_error("snapshot: " + check + ": " + what),
        check_(std::move(check)) {}

  [[nodiscard]] const std::string& check() const { return check_; }

 private:
  std::string check_;
};

/// One interrupted fixpoint loop: the bdd-level record a FixpointGuard
/// publishes, stored in the FRNT section.
using Frontier = bdd::Frontier;

/// Everything a check snapshot stores, in loaded (owning) form.  The
/// transition system is freshly rebuilt -- finalized, schedules verified
/// -- and all Bdd handles live in its manager.
struct CheckSnapshot {
  std::string model_name;
  std::string formula;      // display text (ctl::to_string of spec)
  ctl::Formula::Ptr spec;   // the exact AST, atoms by name (FORM section)
  std::uint8_t image_method = 0;  // core::ImageMethod as its underlying value
  bool use_care_set = false;
  bool coi = false;
  bool reorder = false;
  guard::BudgetSpent spent;  // consumption of the interrupted run
  std::unique_ptr<ts::TransitionSystem> system;
  bdd::Bdd reachable;  // completed reachable set, when the run got that far
  bdd::Bdd fair;       // completed fair-states set, likewise
  std::vector<Frontier> frontiers;
};

/// Save-side view of the same data: non-owning, assembled by
/// core::Checker at the moment of interruption.
struct CheckSnapshotInput {
  const ts::TransitionSystem* system = nullptr;
  std::string model_name;
  ctl::Formula::Ptr spec;
  std::uint8_t image_method = 0;
  bool use_care_set = false;
  bool coi = false;
  bool reorder = false;
  guard::BudgetSpent spent;
  bdd::Bdd reachable;  // null when not yet computed
  bdd::Bdd fair;       // null when not yet computed
  std::vector<Frontier> frontiers;
};

/// Write a check snapshot atomically (temp file + rename).  Throws
/// SnapshotError("io", ...) on any write failure; the destination is
/// never left half-written.
void save_check_snapshot(const std::string& path,
                         const CheckSnapshotInput& input);

/// Load a check snapshot: validates the container, rebuilds and
/// finalizes the transition system, decodes all roots, gates the result
/// on Manager::audit() and on cluster-schedule equality.  Throws
/// SnapshotError on any corruption or incompatibility.
[[nodiscard]] CheckSnapshot load_check_snapshot(const std::string& path);

/// Human-readable validation summary of any snapshot file (manager- or
/// check-kind): header, section table, counts.  Validates exactly like
/// the loaders; throws SnapshotError on a bad file.  Used by symcex-snap.
[[nodiscard]] std::string describe_snapshot(const std::string& path);

/// The directory checkpoints default to: config::current().checkpoint_dir
/// (SYMCEX_CHECKPOINT_DIR), "" (checkpointing disabled) when unset.
[[nodiscard]] std::string default_checkpoint_dir();

/// Deterministic checkpoint filename for a (model, formula) pair:
/// "<sanitized-model>-<fnv64(formula) hex>.sxsnap".  Sanitization is
/// lossy, so two distinct models can share a sanitized name; pass the
/// transition system's structural fingerprint (ts::TransitionSystem::
/// fingerprint()) to keep their checkpoints from clobbering each other
/// in one SYMCEX_CHECKPOINT_DIR:
/// "<sanitized-model>-<fnv64(fingerprint^formula) hex>.sxsnap".
[[nodiscard]] std::string checkpoint_basename(const std::string& model_name,
                                              const std::string& formula);
[[nodiscard]] std::string checkpoint_basename(const std::string& model_name,
                                              const std::string& formula,
                                              std::uint64_t ts_fingerprint);

/// FNV-1a 64-bit, the checksum the snapshot sections use.
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t size);

}  // namespace symcex::persist
