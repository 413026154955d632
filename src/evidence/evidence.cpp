#include "evidence/evidence.hpp"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "diag/json.hpp"
#include "fnv1a.hpp"
#include "guard/config.hpp"
#include "version.hpp"

namespace symcex::evidence {

// version.hpp duplicates the schema version so the zero-dependency tools
// can report it; this pin makes a bump that forgets the copy fail here.
static_assert(version::kEvidenceSchemaVersion ==
                  static_cast<unsigned>(kBundleVersion),
              "src/version.hpp kEvidenceSchemaVersion is out of date");

namespace {

/// Append `n` in decimal.
void append_decimal(std::string& out, std::uint32_t n) {
  char digits[10];
  const char* end = std::to_chars(digits, digits + sizeof digits, n).ptr;
  out.append(digits, static_cast<std::size_t>(end - digits));
}

/// Stream `f`'s cover cube by cube, each cube rendered into the one
/// reused `cube_text` buffer.
void write_cover(diag::JsonWriter& w, const bdd::Bdd& f,
                 std::string& cube_text) {
  w.begin_object();
  w.key("cubes");
  w.begin_array();
  f.for_each_cube([&](const std::vector<bdd::CubeLiteral>& cube) {
    cube_text.assign(1, '[');
    for (std::size_t i = 0; i < cube.size(); ++i) {
      const Literal lit = literal_of(cube[i]);
      if (i != 0) cube_text += ", ";
      cube_text += '[';
      append_decimal(cube_text, lit.var);
      cube_text += lit.rail != 0 ? ", 1, " : ", 0, ";
      cube_text += lit.value ? '1' : '0';
      cube_text += ']';
    }
    cube_text += ']';
    w.raw(cube_text);
    return true;
  });
  w.end_array();
  w.end_object();
}

void write_state_rows(diag::JsonWriter& w,
                      const std::vector<std::vector<bool>>& rows) {
  w.begin_array();
  for (const auto& row : rows) {
    w.begin_array();
    for (const bool bit : row) w.value(bit ? 1 : 0);
    w.end_array();
  }
  w.end_array();
}

}  // namespace

std::size_t cover_size(const bdd::Bdd& f, std::size_t max_cubes) {
  std::size_t seen = 0;
  const std::size_t cubes =
      f.for_each_cube([&](const std::vector<bdd::CubeLiteral>&) {
        return ++seen <= max_cubes;
      });
  if (cubes > max_cubes) {
    throw std::length_error(
        "evidence::cover_size: DNF cover exceeds the cube cap");
  }
  return cubes;
}

const char* duty_kind_name(Duty::Kind k) {
  switch (k) {
    case Duty::Kind::kEg:
      return "eg";
    case Duty::Kind::kEu:
      return "eu";
    case Duty::Kind::kEx:
      return "ex";
    case Duty::Kind::kVisits:
      return "visits";
    case Duty::Kind::kPrefixInvariant:
      return "prefix-invariant";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// BundleBuilder
// ---------------------------------------------------------------------------

BundleBuilder::BundleBuilder(const ts::TransitionSystem& ts,
                             std::string model_name)
    : ts_(ts), model_name_(std::move(model_name)) {
  for (const bdd::Bdd& part : ts_.trans_parts()) (void)cover_size(part);
}

void BundleBuilder::set_check(std::string spec, std::string verdict,
                              std::string evidence_kind, std::string note) {
  spec_ = std::move(spec);
  verdict_ = std::move(verdict);
  evidence_kind_ = std::move(evidence_kind);
  note_ = std::move(note);
}

void BundleBuilder::set_trace(const core::Trace& trace) {
  trace_ = trace;
  prefix_values_.clear();
  cycle_values_.clear();
  for (const bdd::Bdd& s : trace.prefix) {
    prefix_values_.push_back(ts_.state_values(s));
  }
  for (const bdd::Bdd& s : trace.cycle) {
    cycle_values_.push_back(ts_.state_values(s));
  }
}

int BundleBuilder::add_predicate(const bdd::Bdd& states) {
  if (const auto it = predicate_index_.find(states);
      it != predicate_index_.end()) {
    return it->second;
  }
  (void)cover_size(states);
  const int index = static_cast<int>(predicate_bdds_.size());
  predicate_bdds_.push_back(states);
  predicate_index_.emplace(states, index);
  return index;
}

void BundleBuilder::add_duty_eg(const bdd::Bdd& invariant,
                                const std::vector<bdd::Bdd>& constraints) {
  Duty d;
  d.kind = Duty::Kind::kEg;
  d.invariant = add_predicate(invariant);
  for (const bdd::Bdd& c : constraints) d.fairness.push_back(add_predicate(c));
  duties_.push_back(std::move(d));
}

void BundleBuilder::add_duty_eu(const bdd::Bdd& invariant,
                                const bdd::Bdd& target) {
  Duty d;
  d.kind = Duty::Kind::kEu;
  d.invariant = add_predicate(invariant);
  d.target = add_predicate(target);
  duties_.push_back(std::move(d));
}

void BundleBuilder::add_duty_ex(const bdd::Bdd& target) {
  Duty d;
  d.kind = Duty::Kind::kEx;
  d.target = add_predicate(target);
  duties_.push_back(std::move(d));
}

void BundleBuilder::add_duty_visits(const bdd::Bdd& predicate,
                                    std::string label) {
  Duty d;
  d.kind = Duty::Kind::kVisits;
  d.label = std::move(label);
  d.target = add_predicate(predicate);
  duties_.push_back(std::move(d));
}

void BundleBuilder::add_duty_prefix_invariant(const bdd::Bdd& invariant) {
  Duty d;
  d.kind = Duty::Kind::kPrefixInvariant;
  d.invariant = add_predicate(invariant);
  duties_.push_back(std::move(d));
}

void BundleBuilder::add_certificate(std::string name,
                                    certify::Certificate certificate) {
  certificates_.emplace_back(std::move(name), std::move(certificate));
}

void BundleBuilder::add_annotation(std::string key, std::string value) {
  annotations_[std::move(key)] = std::move(value);
}

const bdd::Bdd& BundleBuilder::predicate(int index) const {
  if (index < 0 || static_cast<std::size_t>(index) >= predicate_bdds_.size()) {
    throw std::out_of_range("BundleBuilder: predicate index out of range");
  }
  return predicate_bdds_[static_cast<std::size_t>(index)];
}

std::string BundleBuilder::cluster_schedule_hash() const {
  Fnv1a h(Fnv1a::kLegacyBasis);
  h.le(ts_.cluster_threshold());
  const auto& clusters = ts_.trans_clusters();
  h.le(clusters.size());
  for (const bdd::Bdd& cluster : clusters) {
    // support() is sorted by variable index, so the fingerprint is stable
    // under dynamic reordering of the manager's levels.
    const auto support = cluster.support();
    h.le(support.size());
    for (const std::uint32_t v : support) h.le(v, 4);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h.value()));
  return buf;
}

void BundleBuilder::write_json(std::ostream& os) const {
  diag::JsonWriter w(os);
  w.begin_object();
  w.member("symcex_evidence_version", kBundleVersion);

  w.key("model");
  w.begin_object();
  w.member("name", model_name_);
  w.key("variables");
  w.begin_array();
  for (const std::string& name : ts_.var_names()) w.value(name);
  w.end_array();
  w.member("fairness_count",
           static_cast<std::uint64_t>(ts_.fairness().size()));
  w.key("cluster_schedule");
  w.begin_object();
  w.member("threshold", static_cast<std::uint64_t>(ts_.cluster_threshold()));
  w.member("clusters",
           static_cast<std::uint64_t>(ts_.trans_clusters().size()));
  w.member("hash", cluster_schedule_hash());
  w.end_object();
  w.key("annotations");
  w.begin_object();
  for (const auto& [key, value] : annotations_) w.member(key, value);
  w.end_object();
  w.end_object();

  w.key("check");
  w.begin_object();
  w.member("spec", spec_);
  w.member("verdict", verdict_);
  w.member("evidence_kind", evidence_kind_);
  w.member("note", note_);
  w.end_object();

  w.key("trace");
  w.begin_object();
  w.key("prefix");
  write_state_rows(w, prefix_values_);
  w.key("cycle");
  write_state_rows(w, cycle_values_);
  w.end_object();

  std::string cube_text;
  w.key("transition_relation");
  w.begin_object();
  w.key("conjuncts");
  w.begin_array();
  for (const bdd::Bdd& part : ts_.trans_parts()) {
    write_cover(w, part, cube_text);
  }
  w.end_array();
  w.end_object();

  w.key("predicates");
  w.begin_array();
  for (const bdd::Bdd& p : predicate_bdds_) write_cover(w, p, cube_text);
  w.end_array();

  w.key("duties");
  w.begin_array();
  for (const Duty& d : duties_) {
    w.begin_object();
    w.member("kind", duty_kind_name(d.kind));
    switch (d.kind) {
      case Duty::Kind::kEg:
        w.member("invariant", d.invariant);
        w.key("fairness");
        w.begin_array();
        for (const int p : d.fairness) w.value(p);
        w.end_array();
        break;
      case Duty::Kind::kEu:
        w.member("invariant", d.invariant);
        w.member("target", d.target);
        break;
      case Duty::Kind::kEx:
        w.member("target", d.target);
        break;
      case Duty::Kind::kVisits:
        w.member("label", d.label);
        w.member("predicate", d.target);
        break;
      case Duty::Kind::kPrefixInvariant:
        w.member("invariant", d.invariant);
        break;
    }
    w.end_object();
  }
  w.end_array();

  w.key("certificates");
  w.begin_array();
  for (const auto& [name, cert] : certificates_) {
    w.begin_object();
    w.member("name", name);
    w.key("obligations");
    std::ostringstream obligations;
    cert.write_json(obligations);
    w.raw(obligations.str());
    w.end_object();
  }
  w.end_array();

  w.end_object();
}

namespace {

/// Counts the bytes written through it and keeps none.
class CountingBuf : public std::streambuf {
 public:
  std::size_t count = 0;

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    count += static_cast<std::size_t>(n);
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++count;
    return traits_type::not_eof(c);
  }
};

/// Appends the bytes written through it to a string.
class AppendBuf : public std::streambuf {
 public:
  explicit AppendBuf(std::string& out) : out_(out) {}

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    out_.append(s, static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      out_.push_back(traits_type::to_char_type(c));
    }
    return traits_type::not_eof(c);
  }

 private:
  std::string& out_;
};

}  // namespace

std::string BundleBuilder::to_json() const {
  // Two passes: the first sizes the string, so the bundle is allocated once
  // at its length instead of doubling past it and holding both copies.
  CountingBuf counter;
  std::ostream sizing(&counter);
  write_json(sizing);
  std::string json;
  json.reserve(counter.count);
  AppendBuf sink(json);
  std::ostream os(&sink);
  write_json(os);
  return json;
}

// ---------------------------------------------------------------------------
// convenience constructors
// ---------------------------------------------------------------------------

namespace {

/// The body of from_explanation and from_outcome: the check header, and
/// with a trace its path certificate and one "visits" duty per obligation.
BundleBuilder bundle_check(const ts::TransitionSystem& ts,
                           std::string model_name,
                           const std::string& spec_text, std::string verdict,
                           std::string kind, std::string note,
                           const std::optional<core::Trace>& trace,
                           const std::vector<bdd::Bdd>& obligations,
                           const std::vector<std::string>& labels) {
  BundleBuilder b(ts, std::move(model_name));
  b.set_check(spec_text, std::move(verdict), std::move(kind), std::move(note));
  if (trace.has_value()) {
    b.set_trace(*trace);
    certify::TraceCertifier certifier(ts);
    b.add_certificate("path", certifier.certify_path(*trace));
    for (std::size_t i = 0; i < obligations.size(); ++i) {
      std::string label = i < labels.size()
                              ? labels[i]
                              : "obligation " + std::to_string(i);
      b.add_duty_visits(obligations[i], std::move(label));
    }
  }
  return b;
}

}  // namespace

BundleBuilder from_explanation(const ts::TransitionSystem& ts,
                               std::string model_name,
                               const std::string& spec_text,
                               const core::Explanation& result) {
  const char* kind = !result.trace.has_value() ? "none"
                     : result.holds            ? "witness"
                                               : "counterexample";
  return bundle_check(ts, std::move(model_name), spec_text,
                      result.holds ? "true" : "false", kind, result.note,
                      result.trace, result.obligations,
                      result.obligation_labels);
}

BundleBuilder from_outcome(const ts::TransitionSystem& ts,
                           std::string model_name,
                           const std::string& spec_text,
                           const core::CheckOutcome& outcome) {
  const char* kind = !outcome.trace.has_value() ? "none"
                     : outcome.trace_is_partial ? "partial"
                     : outcome.verdict == core::Verdict::kTrue
                         ? "witness"
                         : "counterexample";
  return bundle_check(ts, std::move(model_name), spec_text,
                      core::verdict_name(outcome.verdict), kind,
                      outcome.reason, outcome.trace, outcome.obligations,
                      outcome.obligation_labels);
}

// ---------------------------------------------------------------------------
// emission plumbing
// ---------------------------------------------------------------------------

std::string default_dir() { return config::current().evidence_dir; }

std::string sanitize_basename(std::string_view s) {
  Fnv1a h(Fnv1a::kLegacyBasis);
  h.bytes(s);
  std::string out;
  for (const char c : s) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-';
    out.push_back(keep ? c : '_');
    if (out.size() >= 48) break;
  }
  if (out.empty()) out = "bundle";
  char buf[10];
  std::snprintf(buf, sizeof buf, "-%08x",
                static_cast<unsigned>(h.value() & 0xffffffffu));
  return out + buf;
}

bool emit_files(const BundleBuilder& bundle, const std::string& dir,
                const std::string& basename) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::cerr << "symcex: cannot create evidence directory " << dir << ": "
              << ec.message() << "\n";
    return false;
  }
  const std::string base = (std::filesystem::path(dir) / basename).string();
  const auto write_file = [&](const char* ext, const auto& writer) {
    const std::string path = base + ext;
    std::ofstream os(path, std::ios::binary);
    writer(os);
    os.flush();
    if (!os) {
      std::cerr << "symcex: cannot write evidence file " << path << "\n";
      return false;
    }
    return true;
  };
  return write_file(".json",
                    [&](std::ostream& os) { bundle.write_json(os); }) &&
         write_file(".dot",
                    [&](std::ostream& os) { render_dot(os, bundle); }) &&
         write_file(".html",
                    [&](std::ostream& os) { render_html(os, bundle); });
}

bool emit_if_configured(const BundleBuilder& bundle,
                        const std::string& preferred_dir,
                        const std::string& basename) {
  const std::string dir =
      preferred_dir.empty() ? default_dir() : preferred_dir;
  if (dir.empty()) return false;
  return emit_files(bundle, dir, basename);
}

}  // namespace symcex::evidence
