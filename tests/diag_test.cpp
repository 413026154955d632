// Tests for the diagnostics layer (src/diag) and its BDD-manager hooks.

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "diag/json.hpp"
#include "diag/metrics.hpp"
#include "guard/config.hpp"
#include "json_mini.hpp"  // tools/: the strict parser symcex-verify uses

namespace symcex {
namespace {

/// Turns collection on for the test body and restores the previous state;
/// the global registry is cleared on both ends so tests stay independent.
class DiagTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = diag::enabled();
    diag::set_enabled(true);
    diag::Registry::global().reset();
  }
  void TearDown() override {
    diag::Registry::global().reset();
    diag::set_enabled(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
};

TEST_F(DiagTest, CounterAccumulatesUnderCurrentPhase) {
  diag::Registry r;
  r.add("events");
  r.add("events", 4);
  EXPECT_EQ(r.counter("", "events"), 5u);
  EXPECT_EQ(r.counter("", "absent"), 0u);
  EXPECT_EQ(r.counter("nophase", "events"), 0u);
}

TEST_F(DiagTest, PhaseScopesNest) {
  diag::Registry r;
  EXPECT_EQ(diag::Registry::current_phase(), "");
  {
    const diag::PhaseScope outer("check");
    EXPECT_EQ(diag::Registry::current_phase(), "check");
    r.add("iterations");
    {
      const diag::PhaseScope inner("eg");
      EXPECT_EQ(diag::Registry::current_phase(), "check/eg");
      r.add("iterations", 2);
    }
    {
      // A segment may itself contain '/'.
      const diag::PhaseScope deep("eg/fixpoint");
      EXPECT_EQ(diag::Registry::current_phase(), "check/eg/fixpoint");
      r.add("iterations", 3);
    }
    EXPECT_EQ(diag::Registry::current_phase(), "check");
  }
  EXPECT_EQ(diag::Registry::current_phase(), "");
  EXPECT_EQ(r.counter("check", "iterations"), 1u);
  EXPECT_EQ(r.counter("check/eg", "iterations"), 2u);
  EXPECT_EQ(r.counter("check/eg/fixpoint", "iterations"), 3u);
}

TEST_F(DiagTest, DisabledRecordsNothing) {
  diag::set_enabled(false);
  diag::Registry r;
  r.add("events");
  r.gauge_set("g", 7.0);
  r.timer_add("t", 100);
  {
    const diag::PhaseScope scope("phase");
    EXPECT_EQ(diag::Registry::current_phase(), "");
    r.add("events");
  }
  diag::set_enabled(true);
  EXPECT_EQ(r.counter("", "events"), 0u);
  EXPECT_EQ(r.gauge("", "g").max, 0.0);
  EXPECT_EQ(r.timer("", "t").ns, 0u);
}

TEST_F(DiagTest, GaugeTracksLastAndMax) {
  diag::Registry r;
  r.gauge_set("dag", 5.0);
  r.gauge_set("dag", 3.0);
  const diag::GaugeValue g = r.gauge("", "dag");
  EXPECT_EQ(g.last, 3.0);
  EXPECT_EQ(g.max, 5.0);
}

TEST_F(DiagTest, TimerScopeRecordsElapsedTime) {
  diag::Registry r;
  {
    const diag::TimerScope t("work", r);
    // Burn a little time so the reading is strictly positive.
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 100000; ++i) {
      sink = sink + static_cast<std::uint64_t>(i);
    }
    (void)sink;
  }
  const diag::TimerValue v = r.timer("", "work");
  EXPECT_EQ(v.count, 1u);
  EXPECT_GT(v.ns, 0u);
}

TEST_F(DiagTest, ExplicitPhaseVariantsBypassTheStack) {
  diag::Registry r;
  const diag::PhaseScope scope("elsewhere");
  r.add_in("bdd", "gc_runs", 2);
  r.gauge_set_in("bdd", "peak_nodes", 42.0);
  r.timer_add_in("bdd", "gc_pause", 1000, 2);
  EXPECT_EQ(r.counter("bdd", "gc_runs"), 2u);
  EXPECT_EQ(r.gauge("bdd", "peak_nodes").last, 42.0);
  EXPECT_EQ(r.timer("bdd", "gc_pause").ns, 1000u);
  EXPECT_EQ(r.timer("bdd", "gc_pause").count, 2u);
  EXPECT_EQ(r.counter("elsewhere", "gc_runs"), 0u);
}

TEST_F(DiagTest, JsonShape) {
  diag::Registry r;
  {
    const diag::PhaseScope scope("check/eg");
    r.add("fixpoint.eg_iterations", 7);
    r.gauge_set("image.peak_dag", 12.0);
    r.timer_add("image.time", 345, 2);
  }
  std::ostringstream os;
  r.to_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"symcex_stats_version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  // The effective configuration heads the document: one member per
  // SYMCEX_* variable.
  const jsonmini::Value root = jsonmini::parse(json);
  const jsonmini::Value* config = root.find("config");
  ASSERT_NE(config, nullptr);
  ASSERT_TRUE(config->is_object());
  EXPECT_EQ(config->object.size(), 17u);
  EXPECT_TRUE(config->find("coi")->is_bool());
  EXPECT_EQ(config->find("cluster_threshold")->number,
            static_cast<double>(config::current().cluster_threshold));
  EXPECT_EQ(config->find("evidence_dir")->string,
            config::current().evidence_dir);
  EXPECT_NE(json.find("\"check/eg\""), std::string::npos);
  EXPECT_NE(json.find("\"fixpoint.eg_iterations\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"image.peak_dag\""), std::string::npos);
  EXPECT_NE(json.find("\"max\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"ns\": 345"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
}

TEST_F(DiagTest, JsonEscapesStrings) {
  diag::Registry r;
  r.add("weird\"name\\with\ncontrol");
  std::ostringstream os;
  r.to_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("weird\\\"name\\\\with\\ncontrol"), std::string::npos);
}

TEST_F(DiagTest, NumberTokenClampsNonFiniteDoubles) {
  // C++ streams print "inf"/"nan", which are not JSON.  The shared token
  // renderer must clamp: infinities to +/-DBL_MAX, NaN to 0.
  constexpr double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(diag::json_number_token(inf), "1.7976931348623157e308");
  EXPECT_EQ(diag::json_number_token(-inf), "-1.7976931348623157e308");
  EXPECT_EQ(diag::json_number_token(std::nan("")), "0");
  EXPECT_EQ(diag::json_number_token(0.5), "0.5");
  EXPECT_EQ(diag::json_number_token(-0.0), "-0");
}

TEST_F(DiagTest, NonFiniteGaugesExportStrictlyValidJson) {
  // A saturated sat_count (or any runaway gauge) used to leak a bare `inf`
  // token into the export; the strict parser shared with symcex-verify is
  // the oracle that the whole document now parses.
  diag::Registry r;
  {
    const diag::PhaseScope scope("check");
    r.gauge_set("states.sat_count", std::numeric_limits<double>::infinity());
    r.gauge_set("heuristic.score", std::nan(""));
    r.gauge_set("depth.bias", -std::numeric_limits<double>::infinity());
  }
  std::ostringstream os;
  r.to_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  const jsonmini::Value root = jsonmini::parse(json);
  ASSERT_TRUE(root.is_object());
  const jsonmini::Value* gauges =
      root.find("phases")->find("check")->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->find("states.sat_count")->find("last")->number,
            std::numeric_limits<double>::max());
  EXPECT_EQ(gauges->find("heuristic.score")->find("last")->number, 0.0);
  EXPECT_EQ(gauges->find("depth.bias")->find("last")->number,
            -std::numeric_limits<double>::max());
}

TEST_F(DiagTest, JsonWriterDocumentRoundTripsThroughStrictParser) {
  std::ostringstream os;
  diag::JsonWriter w(os);
  w.begin_object();
  w.member("text", "quote \" slash \\ newline \n tab \t bell \x07 done");
  w.member("big", std::uint64_t{18446744073709551615ull});
  w.member("neg", std::int64_t{-42});
  w.member("tiny", 5e-324);
  w.member("flag", false);
  w.key("nested");
  w.begin_array();
  w.value(1.5);
  w.raw("{\"pre\": [true, null]}");
  w.end_array();
  w.end_object();

  const jsonmini::Value root = jsonmini::parse(os.str());
  EXPECT_EQ(root.find("text")->string,
            "quote \" slash \\ newline \n tab \t bell \x07 done");
  EXPECT_EQ(root.find("big")->number, 18446744073709551615.0);
  EXPECT_EQ(root.find("neg")->number, -42.0);
  EXPECT_EQ(root.find("tiny")->number, 5e-324);
  EXPECT_FALSE(root.find("flag")->boolean);
  ASSERT_EQ(root.find("nested")->array.size(), 2u);
  EXPECT_TRUE(root.find("nested")->array[1].find("pre")->array[0].boolean);
}

TEST_F(DiagTest, ResetClearsMetricsButKeepsSources) {
  diag::Registry r;
  int calls = 0;
  const int id = r.register_source([&calls](diag::Registry& out) {
    ++calls;
    out.add_in("src", "folded", 1);
  });
  r.add("before");
  r.reset();
  EXPECT_EQ(r.counter("", "before"), 0u);
  std::ostringstream os;
  r.to_json(os);
  EXPECT_EQ(calls, 1);
  EXPECT_NE(os.str().find("\"folded\": 1"), std::string::npos);
  // Folding at export time must not mutate the registry itself.
  EXPECT_EQ(r.counter("src", "folded"), 0u);
  r.unregister_source(id);
  std::ostringstream os2;
  r.to_json(os2);
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------------------
// BDD manager integration
// ---------------------------------------------------------------------------

TEST_F(DiagTest, ManagerCountsCachedAndUncachedApplies) {
  bdd::Manager m(8);
  const bdd::Bdd a = m.var(0);
  const bdd::Bdd b = m.var(1);

  const bdd::ManagerStats before = m.stats();
  const bdd::Bdd ab1 = a & b;
  const bdd::ManagerStats mid = m.stats();
  EXPECT_EQ(mid.apply(bdd::ApplyOp::kAnd),
            before.apply(bdd::ApplyOp::kAnd) + 1);
  EXPECT_GT(mid.cache_lookups, before.cache_lookups);
  EXPECT_GT(mid.unique_misses, before.unique_misses);

  // Recomputing the same conjunction must be answered from the cache:
  // no new node, at least one more cache hit.
  const bdd::Bdd ab2 = a & b;
  const bdd::ManagerStats after = m.stats();
  EXPECT_EQ(ab1, ab2);
  EXPECT_EQ(after.apply(bdd::ApplyOp::kAnd),
            mid.apply(bdd::ApplyOp::kAnd) + 1);
  EXPECT_GT(after.cache_hits, mid.cache_hits);
  EXPECT_EQ(after.unique_misses, mid.unique_misses);
}

TEST_F(DiagTest, ManagerStatsSurviveGc) {
  bdd::Manager m(16);
  {
    // Build garbage: the handles die with this scope.
    bdd::Bdd acc = m.zero();
    for (std::uint32_t i = 0; i + 1 < 16; ++i) {
      acc |= m.var(i) & !m.var(i + 1);
    }
  }
  const bdd::ManagerStats before = m.stats();
  m.gc();
  const bdd::ManagerStats after = m.stats();
  EXPECT_EQ(after.gc_runs, before.gc_runs + 1);
  EXPECT_EQ(after.cache_clears, before.cache_clears + 1);
  EXPECT_GT(after.gc_reclaimed, before.gc_reclaimed);
  EXPECT_GE(after.gc_pause_ns, before.gc_pause_ns);
  // Apply counters are cumulative: GC must not reset them.
  EXPECT_EQ(after.apply(bdd::ApplyOp::kAnd), before.apply(bdd::ApplyOp::kAnd));
}

TEST_F(DiagTest, GcPauseIsAttributedToTheCurrentPhase) {
  auto& r = diag::Registry::global();
  bdd::Manager m(16);
  {
    bdd::Bdd acc = m.zero();
    for (std::uint32_t i = 0; i + 1 < 16; ++i) {
      acc |= m.var(i) & !m.var(i + 1);
    }
  }
  {
    const diag::PhaseScope scope("check/eg");
    m.gc();
  }
  EXPECT_EQ(r.timer("check/eg", "gc_pause").count, 1u);
}

TEST_F(DiagTest, ManagerFoldsFinalStatsOnDestruction) {
  auto& r = diag::Registry::global();
  const std::uint64_t before = r.counter("bdd", "unique_misses");
  {
    bdd::Manager m(4);
    const bdd::Bdd f = m.var(0) & m.var(1);
    (void)f;
  }
  EXPECT_GT(r.counter("bdd", "unique_misses"), before);
  EXPECT_GT(r.counter("bdd", "apply.and"), 0u);
}

TEST_F(DiagTest, LiveManagerIsFoldedIntoJsonExports) {
  bdd::Manager m(4);
  const bdd::Bdd f = m.var(0) | m.var(1);
  (void)f;
  std::ostringstream os;
  diag::Registry::global().to_json(os);
  EXPECT_NE(os.str().find("\"apply.or\""), std::string::npos);
  // Exporting twice must not double-count: the manager's live numbers are
  // folded into a scratch copy, never into the registry itself.
  EXPECT_EQ(diag::Registry::global().counter("bdd", "apply.or"), 0u);
}

// ---------------------------------------------------------------------------
// sat_count saturation (regression: used to overflow to inf via std::pow)
// ---------------------------------------------------------------------------

TEST(SatCountSaturation, HugeManagersStayFinite) {
  bdd::Manager m(1100);
  const double huge = m.var(0).sat_count(1100);
  EXPECT_TRUE(std::isfinite(huge));
  EXPECT_EQ(huge, std::numeric_limits<double>::max());
  EXPECT_EQ(m.zero().sat_count(1100), 0.0);
  EXPECT_EQ(m.one().sat_count(1100), std::numeric_limits<double>::max());
}

TEST(SatCountSaturation, ExactBelowTheSaturationPoint) {
  bdd::Manager m(1000);
  // var(0) constrains one of 1000 variables: 2^999 assignments, which is
  // representable exactly in a double.
  EXPECT_EQ(m.var(0).sat_count(1000), std::ldexp(1.0, 999));
}

// ---------------------------------------------------------------------------
// Concurrency: the global registry is shared by every worker of a parallel
// sweep (DESIGN.md §14), so all recording paths must be safe -- and lossless
// -- under concurrent use.  Run under TSan (-DSYMCEX_TSAN=ON) this is the
// data-race oracle for the whole diag layer.
// ---------------------------------------------------------------------------

TEST_F(DiagTest, RegistryIsRaceFreeAndLosslessUnderEightThreads) {
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kIters = 2000;
  diag::Registry r;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&r, t] {
      // Each thread hammers one private counter (checks nothing is lost),
      // one shared counter (checks increments do not race each other), a
      // shared gauge, a shared timer, and the thread-local phase stack.
      const std::string mine = "hammer.t" + std::to_string(t);
      for (std::uint64_t i = 0; i < kIters; ++i) {
        r.add(mine);
        r.add("hammer.shared");
        r.gauge_set("hammer.gauge", static_cast<double>(t));
        r.timer_add("hammer.timer", 1, 1);
        {
          const diag::PhaseScope phase("hammer");
          r.add("hammer.phased");
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(r.counter("", "hammer.t" + std::to_string(t)), kIters);
  }
  EXPECT_EQ(r.counter("", "hammer.shared"), kThreads * kIters);
  EXPECT_EQ(r.counter("hammer", "hammer.phased"), kThreads * kIters);
  EXPECT_EQ(r.timer("", "hammer.timer").count, kThreads * kIters);
  EXPECT_EQ(r.timer("", "hammer.timer").ns, kThreads * kIters);
  // The gauge's last writer is scheduling-dependent, but both last and max
  // must be one of the written values, and max is the largest thread id.
  const diag::GaugeValue g = r.gauge("", "hammer.gauge");
  EXPECT_GE(g.last, 0.0);
  EXPECT_LT(g.last, static_cast<double>(kThreads));
  EXPECT_EQ(g.max, static_cast<double>(kThreads - 1));
}

}  // namespace
}  // namespace symcex
