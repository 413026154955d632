// SymCeX -- evidence as a product: exportable certificate bundles and
// structured witness renderings.
//
// The paper's contribution is the *witness itself* -- evidence a user can
// inspect and trust without reading a BDD.  This module turns a checked
// result into a first-class external artifact:
//
//   * a stable, versioned JSON **bundle** containing the verdict, the
//     witness/counterexample trace with its prefix + lasso-ring structure
//     preserved, the per-obligation Certificates the certify layer
//     produced, the semantic duties the trace discharges, and the model
//     metadata needed to interpret it (variable names, fairness count,
//     the finalized cluster schedule's hash);
//   * structured renderings generated from the same data: an annotated
//     Graphviz DOT lasso view (states as boxes of changed variables, the
//     loop-back edge marked, per-step obligation annotations) and a
//     self-contained HTML report;
//   * an engine-independent encoding of everything semantic: the
//     transition relation's raw conjunct list and every duty predicate are
//     exported as canonical DNF covers (disjoint-cube Shannon expansions),
//     so the standalone `symcex-verify` checker (tools/) can replay the
//     trace and re-check every duty with no BDD library at all -- the
//     iSMC self-certifying-checker model: trust the evidence, not the
//     engine.
//
// Determinism contract: two emissions of the same checked result are
// byte-identical.  Everything is ordered (schema-ordered keys, sorted
// annotation maps, declaration-ordered variables, add-ordered predicates)
// and all numbers go through the locale-independent diag/json writer.
//
// Schema versioning policy (see DESIGN.md §11): `symcex_evidence_version`
// is bumped on any change that could make an existing consumer misread a
// bundle; adding new optional fields is allowed within a version.

#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bdd/bdd.hpp"
#include "certify/certify.hpp"
#include "core/checker.hpp"
#include "core/explain.hpp"
#include "core/trace.hpp"
#include "ts/transition_system.hpp"

namespace symcex::evidence {

/// Current bundle schema version (the `symcex_evidence_version` field).
inline constexpr int kBundleVersion = 1;

/// One literal of an exported cube: state variable `var` on `rail`
/// (0 = current state, 1 = next state) must equal `value`.
struct Literal {
  std::uint32_t var = 0;
  std::uint32_t rail = 0;
  bool value = false;
};

/// Engine-independent DNF encoding of a boolean function over the two
/// variable rails: true iff the literals of some cube are all satisfied.
/// Cubes are pairwise disjoint (Shannon expansion picks the lowest-index
/// support variable first), so the cover is canonical for the function and
/// independent of the manager's current variable order.
struct Cover {
  std::vector<std::vector<Literal>> cubes;
};

/// Expand `f` (over the interleaved two-rail encoding of `ts`) into its
/// canonical DNF cover.  Throws std::length_error if the expansion would
/// exceed `max_cubes` cubes -- bundles are meant to stay inspectable, and
/// the raw conjunct list of every bundled model is far below this cap.
[[nodiscard]] Cover cover_of(const bdd::Bdd& f, std::size_t max_cubes = 65536);

/// A semantic duty the trace must discharge; `symcex-verify` re-checks
/// each one from the exported covers.  Predicate fields are indices into
/// the bundle's predicate table (-1 = absent).
struct Duty {
  enum class Kind {
    kEg,              ///< invariant on every state, fairness visited on cycle
    kEu,              ///< invariant until some state satisfies target
    kEx,              ///< the second state satisfies target
    kVisits,          ///< some trace state satisfies predicate (labelled)
    kPrefixInvariant  ///< partial evidence: invariant on the salvaged prefix
  };
  Kind kind = Kind::kVisits;
  std::string label;          ///< human-readable annotation (kVisits)
  int invariant = -1;
  int target = -1;
  std::vector<int> fairness;  ///< predicate index per constraint (kEg)
};

/// Stable name of a duty kind as it appears in the JSON ("eg", "eu", "ex",
/// "visits", "prefix-invariant").
[[nodiscard]] const char* duty_kind_name(Duty::Kind k);

/// Accumulates one checked result into an exportable bundle.  Bind it to
/// the finalized system, describe the check, attach the trace, duties and
/// certificates, then write.  All add_* calls append in deterministic
/// order; write_json may be called repeatedly and always produces the
/// same bytes.
class BundleBuilder {
 public:
  /// Captures the model metadata and the engine-independent export of the
  /// raw transition conjunct list (ts.trans_parts()) immediately.
  BundleBuilder(const ts::TransitionSystem& ts, std::string model_name);

  /// Describe the check: the spec text, the verdict ("true" / "false" /
  /// "unknown"), what the attached trace is ("counterexample", "witness",
  /// "partial", or "none"), and the one-line note.
  void set_check(std::string spec, std::string verdict,
                 std::string evidence_kind, std::string note);

  /// Attach the trace (decoded to concrete per-variable values; the ring
  /// structure -- prefix vs cycle -- is preserved, never flattened).
  void set_trace(const core::Trace& trace);

  /// Intern a current-rail state predicate into the predicate table;
  /// returns its index (deduplicated by function identity).
  int add_predicate(const bdd::Bdd& states);

  // -- semantic duties -------------------------------------------------------
  void add_duty_eg(const bdd::Bdd& invariant,
                   const std::vector<bdd::Bdd>& constraints);
  void add_duty_eu(const bdd::Bdd& invariant, const bdd::Bdd& target);
  void add_duty_ex(const bdd::Bdd& target);
  void add_duty_visits(const bdd::Bdd& predicate, std::string label);
  void add_duty_prefix_invariant(const bdd::Bdd& invariant);

  /// Attach a named certificate (the certify layer's per-obligation
  /// pass/fail list) verbatim.
  void add_certificate(std::string name, certify::Certificate certificate);

  /// Free-form model annotation (emitted under model.annotations, sorted
  /// by key) -- e.g. the SMV front end's per-variable domain renderings.
  void add_annotation(std::string key, std::string value);

  // -- introspection (renderers, tests) --------------------------------------
  [[nodiscard]] const ts::TransitionSystem& system() const { return ts_; }
  [[nodiscard]] const std::string& model_name() const { return model_name_; }
  [[nodiscard]] const std::string& spec() const { return spec_; }
  [[nodiscard]] const std::string& verdict() const { return verdict_; }
  [[nodiscard]] const std::string& evidence_kind() const {
    return evidence_kind_;
  }
  [[nodiscard]] const std::string& note() const { return note_; }
  [[nodiscard]] const core::Trace& trace() const { return trace_; }
  [[nodiscard]] bool has_trace() const { return !trace_.prefix.empty() ||
                                                !trace_.cycle.empty(); }
  [[nodiscard]] const std::vector<Duty>& duties() const { return duties_; }
  [[nodiscard]] const bdd::Bdd& predicate(int index) const;
  [[nodiscard]] const std::vector<std::pair<std::string, certify::Certificate>>&
  certificates() const {
    return certificates_;
  }

  /// The FNV-1a hash of the finalized cluster schedule (threshold, cluster
  /// count, per-cluster support sets) as 16 lowercase hex digits.  Order-
  /// independent model fingerprint for cache keys and bundle matching.
  [[nodiscard]] std::string cluster_schedule_hash() const;

  // -- output ----------------------------------------------------------------
  void write_json(std::ostream& os) const;
  [[nodiscard]] std::string to_json() const;

 private:
  const ts::TransitionSystem& ts_;
  std::string model_name_;
  std::string spec_;
  std::string verdict_ = "unknown";
  std::string evidence_kind_ = "none";
  std::string note_;
  core::Trace trace_;
  std::vector<std::vector<bool>> prefix_values_;  // decoded trace states
  std::vector<std::vector<bool>> cycle_values_;
  std::vector<Cover> conjuncts_;                  // ts.trans_parts() covers
  std::vector<bdd::Bdd> predicate_bdds_;
  std::vector<Cover> predicate_covers_;
  std::map<bdd::Bdd, int> predicate_index_;
  std::vector<Duty> duties_;
  std::vector<std::pair<std::string, certify::Certificate>> certificates_;
  std::map<std::string, std::string> annotations_;
};

// -- convenience constructors -------------------------------------------------

/// Bundle an Explainer result: verdict + note + trace, a fresh
/// certify_path certificate over the stitched trace, and one labelled
/// "visits" duty per demonstrating obligation.
[[nodiscard]] BundleBuilder from_explanation(const ts::TransitionSystem& ts,
                                             std::string model_name,
                                             const std::string& spec_text,
                                             const core::Explanation& result);

/// Bundle a budgeted CheckOutcome: like from_explanation, with kUnknown
/// outcomes exporting their salvaged partial prefix as "partial" evidence.
[[nodiscard]] BundleBuilder from_outcome(const ts::TransitionSystem& ts,
                                         std::string model_name,
                                         const std::string& spec_text,
                                         const core::CheckOutcome& outcome);

// -- renderers ----------------------------------------------------------------

struct DotOptions {
  /// Print every variable in the first state (later states always print
  /// only the changed ones).
  bool full_first_state = true;
};

/// Annotated Graphviz lasso/tree view of the bundle's trace: one box per
/// step listing the variables that changed, the loop-back edge drawn bold
/// and labelled, cycle states shaded, and obligation / fairness duties
/// annotated on the states that discharge them.  All labels are
/// dot_escape()d.  No-op body (a header-only digraph) when the bundle has
/// no trace.
void render_dot(std::ostream& os, const BundleBuilder& bundle,
                const DotOptions& options = {});

/// Self-contained HTML report generated from the same bundle data: model
/// and check header, the trace as a step table with the cycle marked, the
/// duty list, and every certificate obligation.  No external assets.
void render_html(std::ostream& os, const BundleBuilder& bundle);

/// Escape `s` for HTML text content (&, <, >, ", ').
[[nodiscard]] std::string html_escape(std::string_view s);

// -- emission plumbing --------------------------------------------------------

/// config::current().evidence_dir (SYMCEX_EVIDENCE_DIR), "" when unset.
[[nodiscard]] std::string default_dir();

/// Turn an arbitrary spec/model string into a filesystem-safe basename:
/// alphanumerics kept, everything else collapsed to '_', length-capped,
/// suffixed with a short hash so distinct specs never collide.
[[nodiscard]] std::string sanitize_basename(std::string_view s);

/// Write `<dir>/<basename>.json`, `.dot` and `.html` (creating `dir` if
/// needed).  Returns false (after reporting to stderr) when any file
/// cannot be written.
bool emit_files(const BundleBuilder& bundle, const std::string& dir,
                const std::string& basename);

/// emit_files into `preferred_dir`, falling back to SYMCEX_EVIDENCE_DIR
/// when it is empty; returns false without writing when both are empty.
/// This is the hook drivers call after every check
/// (CheckOptions::evidence_dir rides through `preferred_dir`).
bool emit_if_configured(const BundleBuilder& bundle,
                        const std::string& preferred_dir,
                        const std::string& basename);

}  // namespace symcex::evidence
