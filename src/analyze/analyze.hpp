// SymCeX -- static model analysis (DESIGN.md §12).
//
// Three analyses over finalized models, all computed before any fixpoint
// runs:
//
//   * DepGraph -- the variable dependency graph mined from per-conjunct
//     supports of the transition partition: state variable w depends on
//     state variable r when some conjunct constrains w's next-rail bit
//     and reads r's current-rail bit.  The graph carries a stable FNV-1a
//     fingerprint that evidence bundles record, so a consumer can tell
//     which model structure a reduction was derived from.
//
//   * Cone / Reduction -- the cone of influence of a property: starting
//     from the state variables the formula's atoms (and every fairness
//     constraint) mention, pull in every conjunct whose support touches
//     the cone, then that conjunct's full support, to a fixpoint.  The
//     closure is coarse but sound: a dropped conjunct's support is fully
//     disjoint from the cone, so the exact relation factors as
//
//         R(s,s')  =  R_kept(c,c')  &  R_dropped(d,d')
//
//     with c the cone variables and d the dropped ones.  The Reduction
//     holds the kept conjuncts as ts::Relations (re-clustered under the
//     system's threshold, and in one cluster) that core::EvalContext
//     sweeps in place of the system's; it has no sweep code of its own.  The
//     soundness argument (verdict preservation, trace re-inflation, and
//     why certification still replays against the raw unreduced relation)
//     is DESIGN.md §12.
//
//   * Linter -- file/line diagnostics over SMV sources: duplicate
//     declarations, DEFINE cycles, shadowed enum literals, unused
//     variables, uninitialized reads, unreachable case arms, range-dead
//     comparisons and provably constant next-state functions.  Exposed as
//     the symcex-lint tool and `smv_check --lint`.
//
// Layering: this library sits on bdd/ts/smv only.  core links it (the
// checker installs reductions into its EvalContext); certify deliberately
// does NOT -- certification must replay re-inflated traces against the
// raw relation with no reduction machinery in the loop.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "smv/smv.hpp"
#include "ts/transition_system.hpp"

namespace symcex::analyze {

// ---------------------------------------------------------------------------
// Dependency graph
// ---------------------------------------------------------------------------

/// The per-conjunct support structure of a finalized transition system,
/// folded into a variable dependency graph.
struct DepGraph {
  /// Support of one transition conjunct, as state-variable ids.
  struct PartSupport {
    std::vector<ts::VarId> reads;   ///< current-rail variables (sorted)
    std::vector<ts::VarId> writes;  ///< next-rail variables (sorted)
    std::vector<ts::VarId> all;     ///< union of the two (sorted)
  };

  std::size_t num_vars = 0;
  std::vector<PartSupport> parts;  ///< parallel to ts.trans_parts()
  /// deps[w] = sorted set of variables some conjunct writing w reads.
  std::vector<std::vector<ts::VarId>> deps;

  /// Stable FNV-1a hash of (num_vars, every part's read/write sets).
  /// Identical models hash identically across runs; evidence bundles
  /// record it as the provenance of a COI reduction.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// Mine the dependency graph from ts.trans_parts() rail metadata.
[[nodiscard]] DepGraph build_dep_graph(const ts::TransitionSystem& ts);

// ---------------------------------------------------------------------------
// Cone of influence
// ---------------------------------------------------------------------------

/// The result of the cone closure: which variables and conjuncts survive.
struct Cone {
  std::vector<bool> in_cone;           ///< by VarId
  std::vector<ts::VarId> dropped;      ///< out-of-cone variables (sorted)
  std::vector<std::size_t> kept_parts; ///< indices into ts.trans_parts()

  /// Does dropping buy anything?  (False when every variable is in cone.)
  [[nodiscard]] bool reduces() const { return !dropped.empty(); }
};

/// Compute the cone of influence of `seeds` (state predicates -- typically
/// the resolved atoms of the formula under check).  Every fairness
/// constraint registered on `ts` is seeded implicitly: fair-path semantics
/// read them in every fixpoint.  Constant-false conjuncts are always kept
/// (dropping one would add behaviour).
[[nodiscard]] Cone cone_of_influence(const ts::TransitionSystem& ts,
                                     const DepGraph& graph,
                                     const std::vector<bdd::Bdd>& seeds);

/// A cone-reduced view of a transition system: the kept conjuncts as
/// relations, plus the reduced reachable set (the care set under COI).
/// The underlying TransitionSystem is never modified; certify and the
/// evidence exporters keep seeing the raw relation.
class Reduction {
 public:
  Reduction(const ts::TransitionSystem& ts, Cone cone, const DepGraph& graph);

  [[nodiscard]] const ts::TransitionSystem& system() const { return ts_; }
  [[nodiscard]] const Cone& cone() const { return cone_; }
  /// Dependency-graph fingerprint recorded at construction (provenance).
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }
  /// Names of the dropped state variables, in VarId order.
  [[nodiscard]] std::vector<std::string> dropped_names() const;

  /// The reduced relation under `method`: the kept conjuncts merged under
  /// the system's cluster threshold (built at construction), or those
  /// clusters conjoined into one (built on first use).  With every
  /// conjunct dropped it is the one cluster `true`.
  [[nodiscard]] const ts::Relation& relation(ts::ImageMethod method) const;
  /// States reachable from init under the reduced relation (lazy; this is
  /// the care set when COI and care-set simplification combine).  Closed
  /// under the reduced relation by construction.
  [[nodiscard]] const bdd::Bdd& reachable() const;

  /// Existentially quantify the dropped current-rail variables out of a
  /// state set: the projection of a reduced-trace state onto the cone.
  [[nodiscard]] bdd::Bdd project(const bdd::Bdd& states) const;
  /// Cube of the dropped current-rail BDD variables (one() if none).
  [[nodiscard]] const bdd::Bdd& dropped_cur_cube() const {
    return dropped_cur_cube_;
  }

 private:
  const ts::TransitionSystem& ts_;
  Cone cone_;
  std::uint64_t fingerprint_;
  ts::Relation clustered_;
  bdd::Bdd dropped_cur_cube_;
  mutable std::optional<ts::Relation> monolithic_;  // built on first use
  mutable bdd::Bdd reachable_;  // lazy reduced reachable set
};

// ---------------------------------------------------------------------------
// Trace re-inflation
// ---------------------------------------------------------------------------

/// Re-inflate a reduced-model trace to a full-model trace: the cone
/// projection of every state is preserved exactly, and the dropped
/// variables are re-simulated pointwise against the RAW relation (each
/// step picks the lexicographically-least full successor matching the
/// reduced state's cone values, so inflation is deterministic).  Lassos
/// are unrolled until the full state at the cycle head repeats; the
/// deterministic pick makes that sequence eventually periodic.
///
/// Returns false (with `error` set) when a step cannot be inflated --
/// i.e. the dropped component blocks, which the COI soundness argument
/// excludes for deadlock-free models (DESIGN.md §12); callers escalate
/// that to a certification failure.  On success *prefix/*cycle hold the
/// full-model trace.
[[nodiscard]] bool inflate_trace(const ts::TransitionSystem& ts,
                                 const Reduction& reduction,
                                 const std::vector<bdd::Bdd>& prefix,
                                 const std::vector<bdd::Bdd>& cycle,
                                 std::vector<bdd::Bdd>* out_prefix,
                                 std::vector<bdd::Bdd>* out_cycle,
                                 std::string* error);

// ---------------------------------------------------------------------------
// Linter
// ---------------------------------------------------------------------------

/// One lint diagnostic (shared with the SMV compiler's findings sink).
using Finding = smv::LintFinding;

/// The outcome of linting one SMV source.
struct LintReport {
  std::vector<Finding> findings;  ///< sorted by line, then check name

  [[nodiscard]] bool clean() const { return findings.empty(); }
  /// "file:line: warning: [check] message" lines, one per finding.
  [[nodiscard]] std::string to_string(const std::string& filename) const;
  /// Machine-readable form:
  ///   {"file": ..., "findings": [{"check","severity","line","message"}]}
  void write_json(std::ostream& os, const std::string& filename) const;
};

/// Static linter over SMV sources.  Structural passes (duplicates, DEFINE
/// cycles, shadowing, unused variables, uninitialized reads) run on the
/// flattened AST; semantic passes (unreachable case arms, range-dead
/// comparisons, constant next-state functions) ride the compiler's
/// findings sink.  A source that fails to parse/flatten/compile yields a
/// single error-severity finding naming the failure.
class Linter {
 public:
  [[nodiscard]] LintReport run(const std::string& source) const;
};

}  // namespace symcex::analyze
