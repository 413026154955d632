// Tests for the evidence subsystem (src/evidence) and the standalone
// symcex-verify checker (tools/): bundle schema round trips, byte-stable
// emission, engine-free re-verification of every bundled model's
// witness/counterexample, and rejection of tampered bundles with a named
// failure.  The strict JSON parser shared with symcex-verify
// (tools/json_mini.hpp) doubles as the round-trip oracle.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/explain.hpp"
#include "evidence/evidence.hpp"
#include "json_mini.hpp"
#include "models/models.hpp"
#include "test_util.hpp"

#ifndef SYMCEX_VERIFY_BIN
#error "SYMCEX_VERIFY_BIN must point at the symcex-verify executable"
#endif

namespace symcex {
namespace {

std::string fresh_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = ::testing::TempDir() + "symcex_evidence_" +
                          info->test_suite_name() + "_" + info->name();
  std::filesystem::remove_all(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  ASSERT_TRUE(out) << "cannot write " << path;
}

/// Run symcex-verify on `paths`; returns the exit status with the captured
/// stdout+stderr in *output.  The log lives in the test's own `dir`:
/// test cases may run as concurrent processes.
int run_verify(const std::string& dir, const std::string& paths,
               std::string* output) {
  const std::string log = dir + "/verify.log";
  const std::string cmd =
      std::string(SYMCEX_VERIFY_BIN) + " " + paths + " > " + log + " 2>&1";
  const int status = std::system(cmd.c_str());
  *output = read_file(log);
  return status;
}

/// Explain `spec` on `system` and return the emitted bundle's basename-less
/// directory, asserting the full loop: emit, strict-parse, re-verify,
/// byte-stable re-emission.
void round_trip(ts::TransitionSystem& system, const std::string& model_name,
                const std::string& spec, bool expect_holds,
                bool expect_trace) {
  core::Checker checker(system);
  core::Explainer explainer(checker);
  const core::Explanation result = explainer.explain(spec);
  ASSERT_EQ(result.holds, expect_holds) << spec;
  ASSERT_EQ(result.trace.has_value(), expect_trace) << spec;

  evidence::BundleBuilder bundle =
      evidence::from_explanation(system, model_name, spec, result);

  // Determinism: two renderings of the same bundle are byte-identical.
  const std::string json = bundle.to_json();
  EXPECT_EQ(json, bundle.to_json());

  // Strict round trip through the shared RFC 8259 parser.
  const jsonmini::Value root = jsonmini::parse(json);
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.find("symcex_evidence_version")->number,
            evidence::kBundleVersion);
  EXPECT_EQ(root.find("check")->find("spec")->string, spec);
  EXPECT_EQ(root.find("model")->find("variables")->array.size(),
            system.num_state_vars());

  const std::string dir = fresh_dir();
  ASSERT_TRUE(evidence::emit_files(bundle, dir, "bundle"));
  const std::string first = read_file(dir + "/bundle.json");
  EXPECT_EQ(first, json);
  ASSERT_TRUE(evidence::emit_files(bundle, dir, "bundle"));
  EXPECT_EQ(read_file(dir + "/bundle.json"), first);

  // The standalone checker accepts the bundle with no engine involved.
  std::string output;
  EXPECT_EQ(run_verify(dir, dir + "/bundle.json", &output), 0) << output;
  EXPECT_NE(output.find("OK "), std::string::npos) << output;
}

TEST(EvidenceBundle, ArbiterCounterexampleRoundTrips) {
  auto system = models::seitz_arbiter();
  round_trip(*system, "seitz_arbiter", "AG (r1 -> AF a1)", false, true);
}

TEST(EvidenceBundle, FixedArbiterTrueVerdictRoundTrips) {
  // A true universal property has no single-path witness: the bundle's
  // evidence_kind is "none" and the verifier accepts the empty trace.
  auto system = models::seitz_arbiter({.fair_me = true});
  round_trip(*system, "seitz_arbiter_fair", "AG (r1 -> AF a1)", true, false);
}

TEST(EvidenceBundle, CounterWitnessRoundTrips) {
  auto system = models::counter({.width = 3});
  round_trip(*system, "counter", "EF max", true, true);
}

TEST(EvidenceBundle, PetersonCounterexampleRoundTrips) {
  auto system = models::peterson({.buggy = true});
  round_trip(*system, "peterson_buggy", "AG (try0 -> AF crit0)", false, true);
}

TEST(EvidenceBundle, RoundRobinCounterexampleRoundTrips) {
  auto system = models::round_robin_arbiter({.users = 3, .rotate = false});
  round_trip(*system, "round_robin_camping", "AG (req1 -> AF gnt1)", false,
             true);
}

TEST(EvidenceBundle, TamperedStateAssignmentIsRejectedByName) {
  // The counter's relation is deterministic, so flipping one bit of one
  // trace state must break a replayed transition.
  auto system = models::counter({.width = 3});
  core::Checker checker(*system);
  core::Explainer explainer(checker);
  evidence::BundleBuilder bundle = evidence::from_explanation(
      *system, "counter", "EF max", explainer.explain("EF max"));
  std::string json = bundle.to_json();

  const std::size_t trace_at = json.find("\"trace\"");
  const std::size_t relation_at = json.find("\"transition_relation\"");
  ASSERT_NE(trace_at, std::string::npos);
  // The counter counts 0, 1, 2, ...: step 1 is exactly [1, 0, 0].
  const std::size_t row = json.find("[1, 0, 0]", trace_at);
  ASSERT_NE(row, std::string::npos);
  ASSERT_LT(row, relation_at) << "tampering must hit the trace section";
  json.replace(row, 9, "[0, 1, 0]");

  const std::string dir = fresh_dir();
  std::filesystem::create_directories(dir);
  write_file(dir + "/tampered.json", json);
  std::string output;
  EXPECT_NE(run_verify(dir, dir + "/tampered.json", &output), 0);
  EXPECT_NE(output.find("FAIL transition["), std::string::npos) << output;
}

TEST(EvidenceBundle, TamperedObligationIsRejectedByName) {
  auto system = models::counter({.width = 3});
  core::Checker checker(*system);
  core::Explainer explainer(checker);
  evidence::BundleBuilder bundle = evidence::from_explanation(
      *system, "counter", "EF max", explainer.explain("EF max"));
  std::string json = bundle.to_json();

  // "ok" keys only occur inside recorded certificate obligations.
  const std::size_t ok_at = json.find("\"ok\": true");
  ASSERT_NE(ok_at, std::string::npos);
  json.replace(ok_at, 10, "\"ok\": false");

  const std::string dir = fresh_dir();
  std::filesystem::create_directories(dir);
  write_file(dir + "/tampered.json", json);
  std::string output;
  EXPECT_NE(run_verify(dir, dir + "/tampered.json", &output), 0);
  EXPECT_NE(output.find("FAIL certificate[path]"), std::string::npos)
      << output;
}

TEST(EvidenceBundle, CoverAgreesWithBddOnEveryAssignment) {
  ts::TransitionSystem system;
  const auto x = system.add_var("x");
  const auto y = system.add_var("y");
  const bdd::Bdd f = (system.cur(x) & !system.next(y)) |
                     (system.next(x) ^ system.cur(y));
  const evidence::Cover cover = evidence::cover_of(f);
  // 2 state vars -> 4 BDD variables -> 16 assignments.
  for (unsigned bits = 0; bits < 16; ++bits) {
    std::vector<bool> assignment(4);
    for (unsigned v = 0; v < 4; ++v) assignment[v] = (bits >> v) & 1u;
    bool cover_value = false;
    for (const auto& cube : cover.cubes) {
      bool sat = true;
      for (const evidence::Literal& lit : cube) {
        if (assignment[2 * lit.var + lit.rail] != lit.value) {
          sat = false;
          break;
        }
      }
      if (sat) {
        cover_value = true;
        break;
      }
    }
    EXPECT_EQ(cover_value, f.eval(assignment)) << "assignment " << bits;
  }
}

TEST(EvidenceBundle, CoverConstantsAndCubeCap) {
  ts::TransitionSystem system;
  const auto a = system.add_var("a");
  const auto b = system.add_var("b");
  const auto c = system.add_var("c");
  EXPECT_TRUE(evidence::cover_of(system.manager().zero()).cubes.empty());
  ASSERT_EQ(evidence::cover_of(system.manager().one()).cubes.size(), 1u);
  EXPECT_TRUE(evidence::cover_of(system.manager().one()).cubes[0].empty());
  // Parity of three variables has four disjoint cubes.
  const bdd::Bdd parity = system.cur(a) ^ system.cur(b) ^ system.cur(c);
  EXPECT_EQ(evidence::cover_of(parity).cubes.size(), 4u);
  EXPECT_THROW((void)evidence::cover_of(parity, 3), std::length_error);
}

TEST(EvidenceBundle, ClusterScheduleHashIsAModelFingerprint) {
  const auto build = [](std::size_t threshold) {
    auto system = std::make_unique<ts::TransitionSystem>();
    const auto x = system->add_var("x");
    const auto y = system->add_var("y");
    system->set_init(!system->cur(x) & !system->cur(y));
    system->add_trans(system->next(x) ^ system->cur(x));
    system->add_trans(system->next(y) ^ system->cur(y) ^ system->cur(x));
    if (threshold != 0) system->set_cluster_threshold(threshold);
    system->finalize();
    return system;
  };
  auto one = build(0);
  auto two = build(0);
  const std::string hash =
      evidence::BundleBuilder(*one, "m").cluster_schedule_hash();
  EXPECT_EQ(hash.size(), 16u);
  EXPECT_EQ(hash, evidence::BundleBuilder(*two, "m").cluster_schedule_hash());
  // A different cluster schedule (merging disabled via a tiny threshold)
  // must change the fingerprint.
  auto three = build(1);
  EXPECT_NE(hash,
            evidence::BundleBuilder(*three, "m").cluster_schedule_hash());
}

TEST(EvidenceBundle, SanitizeBasenameIsSafeAndCollisionResistant) {
  const std::string hostile = evidence::sanitize_basename("AG (r1 -> AF a1)");
  for (const char ch : hostile) {
    EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' ||
                ch == '-')
        << hostile;
  }
  EXPECT_EQ(hostile, evidence::sanitize_basename("AG (r1 -> AF a1)"));
  EXPECT_NE(hostile, evidence::sanitize_basename("AG (r1 => AF a1)"));
  EXPECT_NE(evidence::sanitize_basename(""), "");
}

TEST(EvidenceBundle, DotRenderingMarksLoopAndEscapesLabels) {
  auto system = models::seitz_arbiter();
  core::Checker checker(*system);
  core::Explainer explainer(checker);
  const core::Explanation result = explainer.explain("AG (r1 -> AF a1)");
  ASSERT_TRUE(result.trace.has_value());
  ASSERT_TRUE(result.trace->is_lasso());

  evidence::BundleBuilder bundle = evidence::from_explanation(
      *system, "evil\"model", "AG \"quoted\" spec", result);
  std::ostringstream dot;
  evidence::render_dot(dot, bundle);
  const std::string text = dot.str();
  EXPECT_NE(text.find("digraph"), std::string::npos);
  EXPECT_NE(text.find("label=\"loop\""), std::string::npos);
  EXPECT_NE(text.find("[cycle]"), std::string::npos);
  // Hostile quotes must arrive escaped, never raw.
  EXPECT_NE(text.find("evil\\\"model"), std::string::npos);
  EXPECT_EQ(text.find("evil\"model"), std::string::npos);
}

TEST(EvidenceBundle, HtmlRenderingIsSelfContainedAndEscaped) {
  auto system = models::counter({.width = 3});
  core::Checker checker(*system);
  core::Explainer explainer(checker);
  evidence::BundleBuilder bundle = evidence::from_explanation(
      *system, "counter<b>", "EF max", explainer.explain("EF max"));
  std::ostringstream html;
  evidence::render_html(html, bundle);
  const std::string text = html.str();
  EXPECT_NE(text.find("<!doctype html>"), std::string::npos);
  EXPECT_NE(text.find("counter&lt;b&gt;"), std::string::npos);
  EXPECT_EQ(text.find("counter<b>"), std::string::npos);
  // Self-contained: no external assets.
  EXPECT_EQ(text.find("href="), std::string::npos);
  EXPECT_EQ(text.find("src="), std::string::npos);
}

TEST(EvidenceBundle, PartialOutcomeExportsPrefixEvidence) {
  auto system = models::counter({.width = 3});
  // Hand-build the outcome a budget abort produces: a salvaged two-state
  // prefix, verdict unknown.
  core::CheckOutcome outcome;
  outcome.verdict = core::Verdict::kUnknown;
  outcome.reason = "node budget exhausted (synthetic)";
  core::Trace partial;
  partial.prefix.push_back(system->pick_state(system->init()));
  partial.prefix.push_back(
      system->pick_state(system->image(partial.prefix.back())));
  outcome.trace = partial;
  outcome.trace_is_partial = true;

  evidence::BundleBuilder bundle =
      evidence::from_outcome(*system, "counter", "AG EF max", outcome);
  EXPECT_EQ(bundle.verdict(), "unknown");
  EXPECT_EQ(bundle.evidence_kind(), "partial");
  bundle.add_duty_prefix_invariant(system->manager().one());

  const std::string dir = fresh_dir();
  ASSERT_TRUE(evidence::emit_files(bundle, dir, "partial"));
  std::string output;
  EXPECT_EQ(run_verify(dir, dir + "/partial.json", &output), 0) << output;
}

TEST(EvidenceBundle, ExplicitDutiesAreReVerified) {
  auto system = models::counter({.width = 3});
  core::Checker checker(*system);
  core::Explainer explainer(checker);
  const core::Explanation result = explainer.explain("EF max");
  evidence::BundleBuilder bundle =
      evidence::from_explanation(*system, "counter", "EF max", result);
  bundle.add_duty_eu(system->manager().one(), *system->label("max"));
  bundle.add_duty_visits(*system->label("zero"), "starts at zero");
  const std::string dir = fresh_dir();
  ASSERT_TRUE(evidence::emit_files(bundle, dir, "duties"));
  std::string output;
  EXPECT_EQ(run_verify(dir, dir + "/duties.json", &output), 0) << output;
}

TEST(EvidenceBundle, UnfulfilledDutyIsRejectedByName) {
  // A "visits" duty over the empty predicate (empty cover) is satisfied by
  // no state, so the replay must flag it even though the trace itself is a
  // perfectly legal execution.
  auto system = models::counter({.width = 3});
  core::Checker checker(*system);
  core::Explainer explainer(checker);
  evidence::BundleBuilder bundle = evidence::from_explanation(
      *system, "counter", "EF max", explainer.explain("EF max"));
  bundle.add_duty_visits(system->manager().zero(), "impossible state");
  const std::string dir = fresh_dir();
  ASSERT_TRUE(evidence::emit_files(bundle, dir, "unfulfilled"));
  std::string output;
  EXPECT_NE(run_verify(dir, dir + "/unfulfilled.json", &output), 0);
  EXPECT_NE(output.find("FAIL duty:visits"), std::string::npos) << output;
}

TEST(EvidenceBundle, EmitIfConfiguredHonoursEnvironment) {
  auto system = models::counter({.width = 2});
  core::Checker checker(*system);
  core::Explainer explainer(checker);
  evidence::BundleBuilder bundle = evidence::from_explanation(
      *system, "counter", "EF max", explainer.explain("EF max"));

  // Neither a directory nor the configured variable: no emission.
  {
    const test::ScopedConfig scope(
        [](config::Config& c) { c.evidence_dir.clear(); });
    EXPECT_EQ(evidence::default_dir(), "");
    EXPECT_FALSE(evidence::emit_if_configured(bundle, "", "nowhere"));
  }

  const std::string dir = fresh_dir();
  {
    const test::ScopedConfig scope(
        [&dir](config::Config& c) { c.evidence_dir = dir; });
    EXPECT_EQ(evidence::default_dir(), dir);
    EXPECT_TRUE(evidence::emit_if_configured(bundle, "", "via_env"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/via_env.json"));
  }

  // An explicit directory wins over the configured one.
  const std::string other = dir + "_explicit";
  EXPECT_TRUE(evidence::emit_if_configured(bundle, other, "explicit"));
  EXPECT_TRUE(std::filesystem::exists(other + "/explicit.json"));
}

TEST(EvidenceBundle, CertificateJsonHookIsStrictlyValid) {
  certify::Certificate cert;
  cert.require("edge[0]", true, "0 -> 1");
  cert.require("hostile \"name\"\n", true, "detail with \\ backslash");
  std::ostringstream os;
  cert.write_json(os);
  const jsonmini::Value parsed = jsonmini::parse(os.str());
  ASSERT_TRUE(parsed.is_array());
  ASSERT_EQ(parsed.array.size(), 2u);
  EXPECT_EQ(parsed.array[1].find("name")->string, "hostile \"name\"\n");
  EXPECT_TRUE(parsed.array[0].find("ok")->boolean);
}

}  // namespace
}  // namespace symcex
