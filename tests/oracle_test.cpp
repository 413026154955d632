// The cross-mode oracle (DESIGN.md §9, §10, §12): no engine option changes
// a verdict or a certified trace.  Every input runs under all sixteen
// corners of {care set} x {COI} x {forced reorder} x {monolithic,
// partitioned} with certification on, and each corner is compared with the
// default one (every option off, monolithic):
//
//   * the verdict;
//   * the rendered trace, which must also certify against the raw relation;
//   * the evidence::from_explanation bundle bytes;
//   * on AG p with a propositional p, core::check_invariant's verdict,
//     depth and counterexample;
//   * on random systems and the invariant counter, the verdict and the
//     satisfying set against the explicit-state engine, state by state.
//
// The only tolerated difference: under COI, a dropped component that is
// deterministic may make the reduced run close a lasso elsewhere.  Those
// (input, spec) pairs are pinned exactly in kCoiDivergent; their traces
// must still certify and their bundles replay.  Every distinct bundle is
// replayed by symcex-verify once: the default corner's by the test that
// runs the default corner, a divergent one by the corner that produced it.
//
// An engine option that goes away takes one axis out of all_corners() and
// the test that owns its zoo corners.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/explain.hpp"
#include "core/invariant.hpp"
#include "evidence/evidence.hpp"
#include "explicit/explicit_checker.hpp"
#include "explicit/explicit_graph.hpp"
#include "models/models.hpp"
#include "smv/smv.hpp"
#include "test_util.hpp"

#ifndef SYMCEX_VERIFY_BIN
#error "SYMCEX_VERIFY_BIN must point at the symcex-verify executable"
#endif

namespace symcex {
namespace {

// -- corners ------------------------------------------------------------------

struct Corner {
  bool care = false;
  bool coi = false;
  bool reorder = false;
  ts::ImageMethod method = ts::ImageMethod::kMonolithic;

  bool operator==(const Corner&) const = default;
};

std::vector<Corner> all_corners() {
  std::vector<Corner> out;
  for (const bool care : {false, true}) {
    for (const bool coi : {false, true}) {
      for (const bool reorder : {false, true}) {
        for (const auto method : {ts::ImageMethod::kMonolithic,
                                  ts::ImageMethod::kPartitioned}) {
          out.push_back({care, coi, reorder, method});
        }
      }
    }
  }
  return out;
}

std::string corner_name(const Corner& c) {
  std::string name =
      c.method == ts::ImageMethod::kMonolithic ? "mono" : "part";
  if (c.care) name += "_care";
  if (c.coi) name += "_coi";
  if (c.reorder) name += "_reorder";
  return name;
}

// -- inputs -------------------------------------------------------------------

struct Input {
  std::string name;
  std::function<std::shared_ptr<ts::TransitionSystem>()> build;
  std::vector<ctl::Formula::Ptr> specs;
  /// SYMCEX_CLUSTER_THRESHOLD for the run (unset: the configured one).
  std::optional<std::size_t> cluster_threshold;
  /// Compare every spec with the explicit-state engine.
  bool explicit_reference = false;
};

std::vector<ctl::Formula::Ptr> parse_all(
    const std::vector<const char*>& texts) {
  std::vector<ctl::Formula::Ptr> out;
  for (const char* text : texts) out.push_back(ctl::parse(text));
  return out;
}

/// The spec battery of each bundled model, in models::bundled_names order.
const std::vector<std::pair<const char*, std::vector<const char*>>>&
zoo_battery() {
  static const std::vector<std::pair<const char*, std::vector<const char*>>>
      battery = {
          {"counter", {"AG EF zero", "EF max", "E [!max U max]", "AG !max"}},
          // values >= 40 unreachable: a proper care set
          {"counter_mod", {"AG !max", "EF max", "EF wrap", "AG EF zero"}},
          {"counter_fair", {"AF max", "AG EF zero", "AG AF ticked"}},
          {"counter_bank", {"AG EF all_zero", "EF max0", "EF all_max"}},
          {"peterson", {"AG !(crit0 & crit1)", "AG (try0 -> AF crit0)"}},
          {"peterson_buggy",
           {"AG !(crit0 & crit1)", "AG (try0 -> AF crit0)"}},
          {"philosophers", {"AG !(eat0 & eat1)", "AG (hungry0 -> AF eat0)"}},
          {"round_robin", {"AG (req0 -> AF gnt0)", "AG !(gnt0 & gnt1)"}},
          {"abp", {"AG EF accept", "AG AF accept"}},
          {"seitz_arbiter", {"AG (r1 -> AF a1)", "AG !(g1 & g2)"}},
          {"scc_chain", {"EG true", "EF in_cycle"}},
      };
  return battery;
}

std::vector<Input> zoo_inputs() {
  std::vector<Input> out;
  for (const auto& [model, specs] : zoo_battery()) {
    const std::string name = model;
    out.push_back({name, [name] { return models::bundled(name); },
                   parse_all(specs)});
  }
  return out;
}

/// A 5-bit counter wrapping at 20: its forward invariant checks run against
/// a proper care set, one holding and one failing, as the explicit-state
/// engine confirms.
Input invariant_input() {
  return {"counter_mod20",
          [] { return models::counter({.width = 5, .modulus = 20}); },
          parse_all({"AG !max", "AG !wrap"}), std::nullopt, true};
}

/// Three counter banks whose first specs read bank 0 only: COI drops the
/// other banks, which may stutter.
Input counter_bank_input() {
  return {"counter_bank3",
          [] { return models::counter_bank({.banks = 3, .width = 2}); },
          parse_all({"EF max0", "AG EF zero0", "EF all_max",
                     "AG (zero0 -> EX !zero0)", "EG zero0"})};
}

/// A request/grant pair beside a free-running 3-bit watchdog that no spec
/// reads: COI drops the watchdog, which is deterministic.
Input watchdog_input() {
  constexpr const char* source = R"(MODULE main
VAR
  req  : boolean;
  gnt  : boolean;
  tick : 0..7;
ASSIGN
  init(gnt)  := FALSE;
  next(req)  := case req = gnt : {TRUE, FALSE}; TRUE : req; esac;
  next(gnt)  := req;
  init(tick) := 0;
  next(tick) := case tick < 7 : tick + 1; TRUE : 0; esac;
)";
  return {"watchdog",
          [] {
            auto model = std::make_shared<smv::SmvModel>(smv::compile(source));
            return std::shared_ptr<ts::TransitionSystem>(model,
                                                         &model->system());
          },
          parse_all({"AG (gnt -> req)", "AG !gnt", "EF gnt", "EG !gnt"})};
}

/// The two partitioned zoo models at the clustering extremes: merging
/// disabled, every part its own cluster, and merge-everything.
std::vector<Input> threshold_inputs() {
  std::vector<Input> out;
  for (const Input& zoo : zoo_inputs()) {
    if (zoo.name != "counter_bank" && zoo.name != "peterson_buggy") continue;
    for (const std::size_t threshold : {0u, 1u, 1000000000u}) {
      Input in = zoo;
      in.name.append("@").append(std::to_string(threshold));
      in.cluster_threshold = threshold;
      out.push_back(std::move(in));
    }
  }
  return out;
}

/// test::random_ts(seed) with `fairness` constraints and `rounds` random
/// CTL formulas drawn from `formula_seed`, checked against the
/// explicit-state engine.
Input random_input(unsigned seed, std::uint32_t fairness,
                   unsigned formula_seed, int rounds) {
  std::mt19937 rng(formula_seed);
  std::vector<ctl::Formula::Ptr> specs;
  for (int round = 0; round < rounds; ++round) {
    specs.push_back(test::random_ctl(rng));
  }
  return {"random" + std::to_string(seed) + "f" + std::to_string(fairness),
          [seed, fairness]() -> std::shared_ptr<ts::TransitionSystem> {
            return test::random_ts(seed,
                                   {.num_vars = 4, .num_fairness = fairness});
          },
          std::move(specs), std::nullopt, true};
}

/// The (input, spec) pairs whose trace differs from the default one under
/// every COI corner: the cone drops a deterministic component, so the
/// reduced run closes its lasso where the cone repeats, not where the full
/// state does.
constexpr std::pair<const char*, const char*> kCoiDivergent[] = {
    {"watchdog", "AG !gnt"},
    {"watchdog", "EF gnt"},
};

bool coi_may_diverge(const std::string& input, const std::string& spec) {
  return std::any_of(std::begin(kCoiDivergent), std::end(kCoiDivergent),
                     [&](const auto& pinned) {
                       return input == pinned.first && spec == pinned.second;
                     });
}

// -- one run ------------------------------------------------------------------

/// What one spec showed under one corner, rendered so it compares across
/// independently built systems (and thus across BDD managers).
struct Outcome {
  bool holds = false;
  std::string trace;      ///< empty when no trace was emitted
  std::string bundle;     ///< evidence::from_explanation JSON
  std::string invariant;  ///< check_invariant's verdict and depth on AG p
  std::string invariant_trace;  ///< and its counterexample, if any
};

void check_invariant(core::Checker& checker,
                     const ts::TransitionSystem& system,
                     const ctl::Formula::Ptr& p, bool holds, Outcome& o) {
  const core::InvariantResult r =
      core::check_invariant(checker, checker.states(p));
  EXPECT_EQ(r.verdict, holds ? core::Verdict::kTrue : core::Verdict::kFalse);
  o.invariant = std::string(core::verdict_name(r.verdict)) + " at depth " +
                std::to_string(r.depth);
  if (r.counterexample) {
    EXPECT_TRUE(test::certified_path(system, *r.counterexample));
    o.invariant_trace = r.counterexample->to_string(system);
  }
}

std::vector<Outcome> run(const Input& in, const Corner& corner) {
  SCOPED_TRACE(in.name + " under " + corner_name(corner));
  const test::ScopedConfig scope([&](config::Config& c) {
    c.certify = true;
    if (in.cluster_threshold) c.cluster_threshold = *in.cluster_threshold;
  });
  const std::shared_ptr<ts::TransitionSystem> m = in.build();
  core::Checker checker(*m, {.image_method = corner.method,
                             .use_care_set = corner.care,
                             .reorder = corner.reorder,
                             .coi = corner.coi});
  if (corner.reorder) {
    // The growth watermark never fires on models this small; force one
    // sift so the run executes under the order it settles on.
    EXPECT_TRUE(m->manager().reorder());
    m->audit();
  }
  std::optional<enumerative::Enumerated> enumerated;
  std::optional<enumerative::Checker> reference;
  if (in.explicit_reference) {
    enumerated = enumerative::enumerate(*m, 1u << 12);
    reference.emplace(enumerated->graph);
  }

  core::Explainer explainer(checker);
  std::vector<Outcome> out;
  for (const ctl::Formula::Ptr& spec : in.specs) {
    const std::string text = ctl::to_string(spec);
    SCOPED_TRACE(text);
    const core::Explanation e = explainer.explain(spec);
    Outcome o;
    o.holds = e.holds;
    if (e.trace) {
      EXPECT_TRUE(test::certified_path(*m, *e.trace));
      o.trace = e.trace->to_string(*m);
    }
    o.bundle = evidence::from_explanation(*m, in.name, text, e).to_json();
    if (spec->kind() == ctl::Kind::kAG && ctl::is_propositional(spec->lhs())) {
      check_invariant(checker, *m, spec->lhs(), e.holds, o);
    }
    if (reference) {
      EXPECT_EQ(e.holds, reference->holds(spec));
      const bdd::Bdd sat = checker.states(spec);
      const auto bits = reference->states(spec);
      for (std::size_t i = 0; i < enumerated->concrete.size(); ++i) {
        EXPECT_EQ(enumerated->concrete[i].intersects(sat), bits[i])
            << "state " << i;
      }
    }
    out.push_back(std::move(o));
  }
  return out;
}

// -- the sweep ----------------------------------------------------------------

/// Replay `bundles` through one symcex-verify process.
void replay(const std::set<std::string>& bundles) {
  if (bundles.empty()) return;
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string tag = std::string(info->test_suite_name()) + "_" + info->name();
  std::replace(tag.begin(), tag.end(), '/', '_');
  const std::string dir = ::testing::TempDir() + "symcex_oracle_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string paths;
  std::size_t n = 0;
  for (const std::string& bundle : bundles) {
    const std::string path = dir + "/" + std::to_string(n++) + ".json";
    std::ofstream(path, std::ios::binary) << bundle;
    paths += " " + path;
  }
  std::string output;
  EXPECT_EQ(test::run_verify(dir, paths, &output), 0) << output;
}

/// Run every input under the default corner and under each of `corners`,
/// compare every corner with the default, and replay each distinct bundle.
void sweep(const std::vector<Input>& inputs,
           const std::vector<Corner>& corners) {
  std::set<std::string> bundles;
  for (const Input& in : inputs) {
    const std::vector<Outcome> base = run(in, Corner{});
    for (const Corner& corner : corners) {
      if (corner == Corner{}) {
        for (const Outcome& o : base) bundles.insert(o.bundle);
        continue;
      }
      const std::vector<Outcome> got = run(in, corner);
      ASSERT_EQ(got.size(), base.size());
      for (std::size_t i = 0; i < base.size(); ++i) {
        const std::string spec = ctl::to_string(in.specs[i]);
        SCOPED_TRACE(in.name + " / " + spec + " under " + corner_name(corner));
        EXPECT_EQ(base[i].holds, got[i].holds);
        EXPECT_EQ(base[i].invariant, got[i].invariant);
        if (corner.coi && coi_may_diverge(in.name, spec)) {
          // Pinned exactly: a pair that stops diverging leaves the list.
          EXPECT_NE(base[i].trace, got[i].trace);
          bundles.insert(got[i].bundle);
          continue;
        }
        EXPECT_EQ(base[i].trace, got[i].trace);
        EXPECT_EQ(base[i].invariant_trace, got[i].invariant_trace);
        EXPECT_EQ(base[i].bundle, got[i].bundle);
      }
    }
  }
  replay(bundles);
}

/// The corners of all_corners() that `keep` selects.
std::vector<Corner> corners_where(
    const std::function<bool(const Corner&)>& keep) {
  std::vector<Corner> out;
  for (const Corner& c : all_corners()) {
    if (keep(c)) out.push_back(c);
  }
  return out;
}

/// The zoo under the corners that `keep` selects.
void sweep_zoo(const std::function<bool(const Corner&)>& keep) {
  // Every zoo model has a battery, in the zoo's order.
  std::vector<std::string> battery_names;
  for (const auto& entry : zoo_battery()) battery_names.push_back(entry.first);
  ASSERT_EQ(battery_names, models::bundled_names());
  sweep(zoo_inputs(), corners_where(keep));
}

// The zoo's sixteen corners are split over three tests so that ctest -j
// spreads them: the care-set corners, the reorder corners without the care
// set, and the rest (COI and image method), which holds the default corner.

TEST(CaresetCrossMode, IdenticalVerdictsAndTracesOnEveryModel) {
  sweep_zoo([](const Corner& c) { return c.care; });
}

TEST(OrderCrossMode, IdenticalVerdictsAndTracesWithReorderOnAndOff) {
  sweep_zoo([](const Corner& c) { return !c.care && c.reorder; });
}

TEST(CrossMode, BundledZooUnderCoiAndImageMethod) {
  sweep_zoo([](const Corner& c) { return !c.care && !c.reorder; });
}

// Each input beyond the zoo sweeps all sixteen corners in one test.

TEST(CaresetCrossMode, InvariantCheckerAgreesAcrossModes) {
  sweep({invariant_input()}, all_corners());
}

TEST(CrossMode, CounterBankVerdictsAndTracesMatch) {
  sweep({counter_bank_input()}, all_corners());
}

TEST(CrossMode, SmvModelWithIndependentWatchdogMatches) {
  sweep({watchdog_input()}, all_corners());
}

TEST(CaresetCrossMode, ClusterThresholdExtremesDoNotChangeResults) {
  sweep(threshold_inputs(), all_corners());
}

/// Random systems sweep every corner per seed, so the explicit reference
/// of one seed is one test: seeds 0-14 with 0-2 fairness constraints and
/// 25 formulas each.
class SymbolicVsExplicit : public ::testing::TestWithParam<int> {};

TEST_P(SymbolicVsExplicit, VerdictsAgreeOnRandomModels) {
  const auto seed = static_cast<unsigned>(GetParam());
  sweep({random_input(seed, seed % 3, seed * 977 + 13, 25)}, all_corners());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymbolicVsExplicit, ::testing::Range(0, 15));

/// Seeds 0-7 with 0-1 fairness constraints and 10 formulas each.
class ImageMethodProperty : public ::testing::TestWithParam<int> {};

TEST_P(ImageMethodProperty, PartitionedAndMonolithicAgree) {
  const auto seed = static_cast<unsigned>(GetParam());
  sweep({random_input(seed, seed % 2, seed + 17, 10)}, all_corners());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImageMethodProperty, ::testing::Range(0, 8));

}  // namespace
}  // namespace symcex
