// Cross-mode equivalence for the don't-care-aware evaluation core
// (DESIGN.md §9): for every bundled model, checking a battery of specs
// must produce the SAME verdict and the SAME certified trace whether
// care-set simplification (SYMCEX_CARE_SET / CheckOptions::use_care_set)
// is on or off and whether the sweep is monolithic or clustered, across
// cluster-threshold extremes.  Certification is force-enabled for every
// run, so each emitted trace is independently re-checked against the raw,
// unsimplified relation.

#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "certify/certify.hpp"
#include "core/checker.hpp"
#include "core/explain.hpp"
#include "core/invariant.hpp"
#include "models/models.hpp"
#include "test_util.hpp"

namespace symcex {
namespace {

class ScopedCertify {
 public:
  ScopedCertify() : old_(certify::enabled()) { certify::set_enabled(true); }
  ~ScopedCertify() { certify::set_enabled(old_); }

 private:
  bool old_;
};

using Builder = std::function<std::unique_ptr<ts::TransitionSystem>()>;

struct ModelCase {
  const char* name;
  Builder build;
  std::vector<const char*> specs;
};

std::vector<ModelCase> model_cases() {
  return {
      {"counter",
       [] { return models::counter({.width = 4}); },
       {"AG EF zero", "EF max", "E [!max U max]", "AG !max"}},
      {"counter_mod",  // values >= 40 unreachable: a proper care set
       [] { return models::counter({.width = 6, .modulus = 40}); },
       {"AG !max", "EF max", "EF wrap", "AG EF zero"}},
      {"counter_fair",
       [] {
         return models::counter(
             {.width = 3, .stutter = true, .fair_ticking = true});
       },
       {"AF max", "AG EF zero", "AG AF ticked"}},
      {"counter_bank",
       [] { return models::counter_bank({.banks = 4, .width = 2}); },
       {"AG EF all_zero", "EF max0", "EF all_max"}},
      {"peterson",
       [] { return models::peterson({}); },
       {"AG !(crit0 & crit1)", "AG (try0 -> AF crit0)"}},
      {"peterson_buggy",
       [] { return models::peterson({.buggy = true}); },
       {"AG !(crit0 & crit1)", "AG (try0 -> AF crit0)"}},
      {"philosophers",
       [] { return models::dining_philosophers({.count = 3}); },
       {"AG !(eat0 & eat1)", "AG (hungry0 -> AF eat0)"}},
      {"round_robin",
       [] { return models::round_robin_arbiter({.users = 3}); },
       {"AG (req0 -> AF gnt0)", "AG !(gnt0 & gnt1)"}},
      {"abp",
       [] { return models::abp({}); },
       {"AG EF accept", "AG AF accept"}},
      {"seitz_arbiter",
       [] { return models::seitz_arbiter({}); },
       {"AG (r1 -> AF a1)", "AG !(g1 & g2)"}},
      {"scc_chain",
       [] { return models::scc_chain({}); },
       {"EG true", "EF in_cycle"}},
  };
}

struct Config {
  const char* name;
  ts::ImageMethod method;
  bool care;
};

constexpr Config kBaseline = {"mono", ts::ImageMethod::kMonolithic, false};

std::vector<Config> variant_configs() {
  return {
      {"mono+care", ts::ImageMethod::kMonolithic, true},
      {"part", ts::ImageMethod::kPartitioned, false},
      {"part+care", ts::ImageMethod::kPartitioned, true},
  };
}

/// One spec's observable outcome, rendered so it compares across
/// independently built systems (and thus across BDD managers).
struct Snapshot {
  core::Verdict verdict = core::Verdict::kUnknown;
  std::string trace;  // full rendering; empty when no trace was emitted
};

std::vector<Snapshot> run_config(const ModelCase& mc, const Config& cfg) {
  auto m = mc.build();
  core::Checker checker(
      *m, {.image_method = cfg.method, .use_care_set = cfg.care});
  core::Explainer explainer(checker);
  std::vector<Snapshot> out;
  out.reserve(mc.specs.size());
  for (const char* spec : mc.specs) {
    const core::CheckOutcome outcome = explainer.check(spec);
    Snapshot snap;
    snap.verdict = outcome.verdict;
    if (outcome.trace) snap.trace = outcome.trace->to_string(*m);
    out.push_back(std::move(snap));
  }
  return out;
}

void expect_same(const ModelCase& mc, const Config& cfg,
                 const std::vector<Snapshot>& base,
                 const std::vector<Snapshot>& got) {
  ASSERT_EQ(base.size(), got.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].verdict, got[i].verdict)
        << mc.name << " / " << mc.specs[i] << " under " << cfg.name;
    EXPECT_EQ(base[i].trace, got[i].trace)
        << mc.name << " / " << mc.specs[i] << " under " << cfg.name;
  }
}

TEST(CaresetCrossMode, IdenticalVerdictsAndTracesOnEveryModel) {
  ScopedCertify certify_every_trace;
  for (const auto& mc : model_cases()) {
    SCOPED_TRACE(mc.name);
    const auto base = run_config(mc, kBaseline);
    for (const auto& cfg : variant_configs()) {
      expect_same(mc, cfg, base, run_config(mc, cfg));
    }
  }
}

TEST(CaresetCrossMode, ClusterThresholdExtremesDoNotChangeResults) {
  ScopedCertify certify_every_trace;
  // A partitioned model (one conjunct per bank / per process) exercises
  // the merge loop; thresholds: merging disabled, every part its own
  // cluster, and merge-everything.
  std::vector<ModelCase> cases;
  for (auto& mc : model_cases()) {
    if (std::string(mc.name) == "counter_bank" ||
        std::string(mc.name) == "peterson_buggy") {
      cases.push_back(std::move(mc));
    }
  }
  ASSERT_EQ(cases.size(), 2u);
  for (const auto& mc : cases) {
    SCOPED_TRACE(mc.name);
    const auto base = run_config(mc, kBaseline);
    for (const std::size_t threshold : {0u, 1u, 1000000000u}) {
      SCOPED_TRACE(threshold);
      const test::ScopedConfig scope(
          [threshold](config::Config& c) { c.cluster_threshold = threshold; });
      for (const auto& cfg : variant_configs()) {
        expect_same(mc, cfg, base, run_config(mc, cfg));
      }
    }
  }
}

TEST(CaresetCrossMode, InvariantCheckerAgreesAcrossModes) {
  ScopedCertify certify_every_trace;
  const auto run = [](const Config& cfg) {
    auto m = models::counter({.width = 5, .modulus = 20});
    core::Checker checker(
        *m, {.image_method = cfg.method, .use_care_set = cfg.care});
    const auto good =
        core::check_invariant(checker, !checker.resolve_atom("max"));
    const auto bad =
        core::check_invariant(checker, !checker.resolve_atom("wrap"));
    std::string cex;
    if (bad.counterexample) cex = bad.counterexample->to_string(*m);
    return std::tuple(good.verdict, bad.verdict, bad.depth, cex);
  };
  const auto base = run(kBaseline);
  EXPECT_EQ(std::get<0>(base), core::Verdict::kTrue);
  EXPECT_EQ(std::get<1>(base), core::Verdict::kFalse);
  for (const auto& cfg : variant_configs()) {
    EXPECT_EQ(base, run(cfg)) << cfg.name;
  }
}

TEST(CaresetCrossMode, ContextPreimageIsExactPreimageOnCare) {
  // The EvalContext contract (DESIGN.md §9): preimage == (EX Z) & C for
  // arbitrary Z, and image is exact on operands inside C.
  auto m = models::counter({.width = 6, .modulus = 40});
  core::Checker checker(*m, {.image_method = ts::ImageMethod::kPartitioned,
                             .use_care_set = true});
  core::EvalContext& context = checker.context();
  EXPECT_TRUE(context.care_requested());
  ASSERT_TRUE(context.care_active());  // modulus < 2^width: nontrivial care
  const bdd::Bdd reach = m->reachable();
  EXPECT_EQ(context.care_set(), reach);
  std::mt19937 rng(7);
  for (int i = 0; i < 10; ++i) {
    const bdd::Bdd z = test::random_predicate(*m, rng);
    EXPECT_EQ(context.preimage(z),
              m->preimage(z, ts::ImageMethod::kPartitioned) & reach);
    const bdd::Bdd s = z & reach;
    EXPECT_EQ(context.image(s), m->image(s, ts::ImageMethod::kPartitioned));
  }
}

TEST(CaresetCrossMode, CareInactiveWhenNotRequested) {
  auto m = models::counter({.width = 4, .modulus = 10});
  core::Checker checker(*m, {.use_care_set = false});
  EXPECT_FALSE(checker.context().care_requested());
  EXPECT_FALSE(checker.context().care_active());
  EXPECT_TRUE(checker.context().care_set().is_true());
}

TEST(CaresetCrossMode, CareTrivialOnFullyReachableModels) {
  // The plain counter reaches every valuation: the care set degenerates to
  // `one` and the context must skip the restricted-copy machinery.
  auto m = models::counter({.width = 4});
  core::Checker checker(*m, {.use_care_set = true});
  EXPECT_TRUE(checker.context().care_requested());
  EXPECT_FALSE(checker.context().care_active());
  EXPECT_TRUE(checker.context().care_set().is_true());
}

TEST(CaresetCrossMode, FairEGMemoServesCheckThenExplain) {
  // check() first computes AG(try0 -> AF crit0) -- one fair-EG fixpoint --
  // then the witness generator asks for the same EG with rings.  The memo
  // must serve the second request.
  auto m = models::peterson({.buggy = true});
  core::Checker checker(*m);
  core::Explainer explainer(checker);
  const auto outcome = explainer.check("AG (try0 -> AF crit0)");
  EXPECT_EQ(outcome.verdict, core::Verdict::kFalse);
  ASSERT_TRUE(outcome.trace.has_value());
  EXPECT_GE(checker.stats().faireg_reuse_hits, 1u);
}

}  // namespace
}  // namespace symcex
