// Tests for the evidence subsystem (src/evidence) and the standalone
// symcex-verify checker (tools/): bundle schema round trips, byte-stable
// emission, engine-free re-verification of every bundled model's
// witness/counterexample, and rejection of tampered bundles with a named
// failure.  The strict JSON parser shared with symcex-verify
// (tools/json_mini.hpp) doubles as the round-trip oracle.

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/explain.hpp"
#include "evidence/evidence.hpp"
#include "json_mini.hpp"
#include "models/models.hpp"
#include "order/order.hpp"
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

using Cube = std::vector<evidence::Literal>;
using Cover = std::vector<Cube>;

/// The cover as the evidence layer first defined it, kept as the reference
/// for Bdd::for_each_cube: split on the lowest-index variable of a freshly
/// computed support, false branch first, and cofactor with restrict_var.
void reference_cover_rec(const bdd::Bdd& f, Cube& cube, Cover& out) {
  if (f.is_false()) return;
  if (f.is_true()) {
    out.push_back(cube);
    return;
  }
  const std::uint32_t bv = f.support().front();
  for (const bool value : {false, true}) {
    cube.push_back(evidence::Literal{bv / 2, bv % 2, value});
    reference_cover_rec(f.restrict_var(bv, value), cube, out);
    cube.pop_back();
  }
}

Cover reference_cover(const bdd::Bdd& f) {
  Cover out;
  Cube cube;
  reference_cover_rec(f, cube, out);
  return out;
}

/// The cover the bundle exports: the walk's cubes as evidence literals.
Cover walked_cover(const bdd::Bdd& f) {
  Cover out;
  f.for_each_cube([&](const std::vector<bdd::CubeLiteral>& cube) {
    Cube& c = out.emplace_back();
    for (const bdd::CubeLiteral& l : cube) {
      c.push_back(evidence::literal_of(l));
    }
    return true;
  });
  return out;
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
  EXPECT_EQ(test::run_verify(dir, dir + "/bundle.json", &output), 0) << output;
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
  EXPECT_NE(test::run_verify(dir, dir + "/tampered.json", &output), 0);
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
  EXPECT_NE(test::run_verify(dir, dir + "/tampered.json", &output), 0);
  EXPECT_NE(output.find("FAIL certificate[path]"), std::string::npos)
      << output;
}

TEST(EvidenceBundle, CoverAgreesWithBddOnEveryAssignment) {
  ts::TransitionSystem system;
  const auto x = system.add_var("x");
  const auto y = system.add_var("y");
  const bdd::Bdd f = (system.cur(x) & !system.next(y)) |
                     (system.next(x) ^ system.cur(y));
  const Cover cover = walked_cover(f);
  // 2 state vars -> 4 BDD variables -> 16 assignments.
  for (unsigned bits = 0; bits < 16; ++bits) {
    std::vector<bool> assignment(4);
    for (unsigned v = 0; v < 4; ++v) assignment[v] = (bits >> v) & 1u;
    bool cover_value = false;
    for (const auto& cube : cover) {
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
  EXPECT_TRUE(walked_cover(system.manager().zero()).empty());
  ASSERT_EQ(walked_cover(system.manager().one()).size(), 1u);
  EXPECT_TRUE(walked_cover(system.manager().one())[0].empty());
  // Parity of three variables has four disjoint cubes.
  const bdd::Bdd parity = system.cur(a) ^ system.cur(b) ^ system.cur(c);
  EXPECT_EQ(evidence::cover_size(parity), 4u);
  EXPECT_THROW((void)evidence::cover_size(parity, 3), std::length_error);
  // A cap the cover exactly meets is no overflow.
  EXPECT_EQ(evidence::cover_size(parity, 4), 4u);
}

/// A random function over both rails of `system`'s variables: a
/// disjunction of up to four random cubes.
bdd::Bdd random_two_rail(ts::TransitionSystem& system, std::mt19937& rng) {
  bdd::Bdd f = system.manager().zero();
  const int terms = 1 + static_cast<int>(rng() % 4);
  for (int t = 0; t < terms; ++t) {
    bdd::Bdd cube = system.manager().one();
    for (std::size_t v = 0; v < system.num_state_vars(); ++v) {
      for (const bool next : {false, true}) {
        const bdd::Bdd x = next ? system.next(v) : system.cur(v);
        switch (rng() % 3) {
          case 0:
            cube &= x;
            break;
          case 1:
            cube &= !x;
            break;
          default:
            break;
        }
      }
    }
    f |= cube;
  }
  return f;
}

TEST(EvidenceBundle, CoverIsCanonicalUnderReordering) {
  for (unsigned seed = 1; seed <= 12; ++seed) {
    ts::TransitionSystem system;
    for (const char* name : {"w", "x", "y", "z"}) system.add_var(name);
    std::mt19937 rng(seed);
    std::vector<bdd::Bdd> fs;
    for (int i = 0; i < 6; ++i) fs.push_back(random_two_rail(system, rng));
    fs.push_back(system.manager().one());
    fs.push_back(system.manager().zero());
    bdd::Manager& m = system.manager();
    ASSERT_TRUE(m.identity_order());
    std::vector<Cover> expected;
    for (const bdd::Bdd& f : fs) {
      expected.push_back(reference_cover(f));
      EXPECT_EQ(walked_cover(f), expected.back()) << "seed " << seed;
    }

    // Move the pair block of w below the pair of x: order 2, 3, 0, 1, ...
    m.reorder_session_begin();
    for (const std::uint32_t lvl : {1u, 0u, 2u, 1u}) m.swap_levels(lvl);
    m.reorder_session_end();
    ASSERT_FALSE(m.identity_order());
    for (std::size_t i = 0; i < fs.size(); ++i) {
      EXPECT_EQ(reference_cover(fs[i]), expected[i]) << "seed " << seed;
      EXPECT_EQ(walked_cover(fs[i]), expected[i]) << "seed " << seed;
    }

    (void)order::sift(m);
    for (std::size_t i = 0; i < fs.size(); ++i) {
      EXPECT_EQ(walked_cover(fs[i]), expected[i]) << "seed " << seed;
      EXPECT_EQ(evidence::cover_size(fs[i]), expected[i].size());
    }
  }
}

TEST(EvidenceBundle, CoverWalkBuildsNoNodeUnderTheIdentityOrder) {
  // SYMCEX_REORDER would sift the model away from the identity order.
  const test::ScopedConfig scope([](config::Config& c) { c.reorder = false; });
  auto system = models::dining_philosophers({.count = 4});
  bdd::Manager& m = system->manager();
  ASSERT_TRUE(m.identity_order());
  const bdd::ManagerStats before = m.stats();
  std::size_t cubes = 0;
  for (const bdd::Bdd& part : system->trans_parts()) {
    cubes += part.for_each_cube(
        [](const std::vector<bdd::CubeLiteral>&) { return true; });
  }
  EXPECT_GT(cubes, 0u);
  EXPECT_EQ(m.stats().unique_hits, before.unique_hits);
  EXPECT_EQ(m.stats().unique_misses, before.unique_misses);
  EXPECT_EQ(m.stats().apply(bdd::ApplyOp::kRestrictVar),
            before.apply(bdd::ApplyOp::kRestrictVar));
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
  EXPECT_EQ(test::run_verify(dir, dir + "/partial.json", &output), 0) << output;
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
  EXPECT_EQ(test::run_verify(dir, dir + "/duties.json", &output), 0) << output;
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
  EXPECT_NE(test::run_verify(dir, dir + "/unfulfilled.json", &output), 0);
  EXPECT_NE(output.find("FAIL duty:visits"), std::string::npos) << output;
}

/// A 3-bit counter's EF max witness whose predicate 0 is the label max,
/// a cube of three current-rail literals.
std::string counter_bundle_with_predicate() {
  auto system = models::counter({.width = 3});
  core::Checker checker(*system);
  core::Explainer explainer(checker);
  const core::Explanation result = explainer.explain("EF max");
  evidence::BundleBuilder bundle(*system, "counter");
  bundle.set_check("EF max", "true", "witness", result.note);
  bundle.set_trace(*result.trace);
  bundle.add_duty_visits(*system->label("max"), "reaches max");
  return bundle.to_json();
}

/// Where the value of the first "cubes" member after `anchor` starts.
std::size_t cubes_at(const std::string& json, const std::string& anchor) {
  const std::size_t at = json.find(anchor);
  EXPECT_NE(at, std::string::npos) << anchor;
  const std::size_t cubes = json.find("\"cubes\": ", at);
  EXPECT_NE(cubes, std::string::npos) << anchor;
  return cubes + 9;
}

/// Replace the first literal of the first cube at `anchor`'s cover.
std::string with_first_literal(std::string json, const std::string& anchor,
                               const std::string& literal) {
  const std::size_t at = cubes_at(json, anchor);
  EXPECT_EQ(json.compare(at, 3, "[[["), 0) << json.substr(at, 40);
  const std::size_t end = json.find(']', at);
  json.replace(at + 2, end + 1 - (at + 2), literal);
  return json;
}

TEST(EvidenceBundle, TamperedCoversAreRejectedByName) {
  const std::string json = counter_bundle_with_predicate();
  const std::string conjunct = "\"conjuncts\": [";
  const std::string predicate = "\"predicates\": [";
  // The counter's conjuncts read both rails, and its predicate 0 is max.
  const std::size_t cubes = cubes_at(json, conjunct);
  const std::size_t cubes_end = json.find("]]]", cubes) + 3;
  struct Case {
    std::string name;
    std::string bundle;
    std::string failure;
  };
  const std::vector<Case> cases{
      {"var out of range", with_first_literal(json, conjunct, "[3, 0, 1]"),
       "FAIL cover[conjunct 0]: conjunct 0.cubes[0]: variable index 3 out of "
       "range (3 variables)"},
      {"rail 1 in a predicate",
       with_first_literal(json, predicate, "[0, 1, 1]"),
       "FAIL cover[predicate 0]: predicate 0.cubes[0]: invalid rail 1"},
      {"value 2", with_first_literal(json, conjunct, "[0, 0, 2]"),
       "FAIL cover[conjunct 0]: conjunct 0.cubes[0]: expected a 0/1 bit"},
      {"2-element literal", with_first_literal(json, predicate, "[0, 0]"),
       "FAIL cover[predicate 0]: predicate 0.cubes[0]: literal is not a "
       "[var, rail, value] triple"},
      // A cover's type is part of the schema, as before the flat reader.
      {"cubes not an array",
       json.substr(0, cubes) + "7" + json.substr(cubes_end),
       "FAIL schema: conjunct 0: member \"cubes\" has the wrong type"},
  };
  const std::string dir = fresh_dir();
  std::filesystem::create_directories(dir);
  std::string output;
  write_file(dir + "/intact.json", json);
  ASSERT_EQ(test::run_verify(dir, dir + "/intact.json", &output), 0) << output;
  for (const Case& c : cases) {
    write_file(dir + "/tampered.json", c.bundle);
    const int status = test::run_verify(dir, dir + "/tampered.json", &output);
    ASSERT_TRUE(WIFEXITED(status)) << c.name;
    EXPECT_EQ(WEXITSTATUS(status), 1) << c.name << ": " << output;
    EXPECT_NE(output.find(c.failure), std::string::npos)
        << c.name << ": " << output;
  }
}

TEST(EvidenceBundle, TruncatedBundlesFailWithoutCrashing) {
  const std::string json = counter_bundle_with_predicate();
  const std::string dir = fresh_dir();
  std::filesystem::create_directories(dir);
  std::mt19937 rng(64);
  std::string output;
  for (int i = 0; i < 64; ++i) {
    const std::size_t cut = rng() % json.size();
    write_file(dir + "/truncated.json", json.substr(0, cut));
    const int status = test::run_verify(dir, dir + "/truncated.json", &output);
    ASSERT_TRUE(WIFEXITED(status)) << "cut at " << cut << ": " << output;
    EXPECT_EQ(WEXITSTATUS(status), 1) << "cut at " << cut << ": " << output;
    EXPECT_NE(output.find("FAIL json"), std::string::npos)
        << "cut at " << cut << ": " << output;
  }
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
