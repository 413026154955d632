// E6 -- Section 9's remark: "Finding a counterexample can sometimes take
// most of the execution time required for model checking."
//
// For each zoo model we split total time into (a) computing the verdict
// and (b) generating the witness/counterexample, and report the witness
// share.  The DESIGN.md onion-ring ablation is also measured: a lasso
// built from saved Q_i^h approximation sequences vs one that pays for a
// fresh fair-EG fixpoint and its rings.  BM_CertifyPath times certifying
// one counterexample with a fresh certifier, as the pipeline does.

#include <chrono>
#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include "certify/certify.hpp"
#include "core/checker.hpp"
#include "core/explain.hpp"
#include "core/invariant.hpp"
#include "models/models.hpp"

namespace {

using namespace symcex;

void report_e6() {
  std::printf("== E6: verdict time vs counterexample-generation time ==\n");
  std::printf("%-22s %-28s %-12s %-12s %s\n", "model", "spec", "verdict(ms)",
              "witness(ms)", "witness share");
  struct Row {
    const char* name;
    std::unique_ptr<ts::TransitionSystem> model;
    const char* spec;
  };
  std::vector<Row> rows;
  rows.push_back({"arbiter(buggy)", models::seitz_arbiter(),
                  "AG (r1 -> AF a1)"});
  rows.push_back({"philosophers-4",
                  models::dining_philosophers({.count = 4}),
                  "AG (hungry0 -> AF eat0)"});
  rows.push_back({"peterson(buggy)", models::peterson({.buggy = true}),
                  "AG (try0 -> AF crit0)"});
  rows.push_back({"counter-12", models::counter({.width = 12}),
                  "AG !max"});
  for (auto& row : rows) {
    (void)row.model->reachable();
    core::Checker verdict_checker(*row.model);
    const auto t0 = std::chrono::steady_clock::now();
    const bool holds = verdict_checker.holds(row.spec);
    const auto t1 = std::chrono::steady_clock::now();
    core::Checker witness_checker(*row.model);
    (void)witness_checker.holds(row.spec);  // verdict work, warm caches
    const auto t2 = std::chrono::steady_clock::now();
    core::Explainer explainer(witness_checker);
    const auto explanation = explainer.explain(row.spec);
    const auto t3 = std::chrono::steady_clock::now();
    const double verdict_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double witness_ms =
        std::chrono::duration<double, std::milli>(t3 - t2).count();
    std::printf("%-22s %-28s %-12.2f %-12.2f %.0f%%  (holds=%s, len=%zu)\n",
                row.name, row.spec, verdict_ms, witness_ms,
                100.0 * witness_ms / (verdict_ms + witness_ms),
                holds ? "true" : "false",
                explanation.trace ? explanation.trace->length() : 0);
  }
  std::printf("\n");
}

void BM_VerdictOnly(benchmark::State& state) {
  auto m = models::seitz_arbiter();
  (void)m->reachable();
  for (auto _ : state) {
    core::Checker ck(*m);
    benchmark::DoNotOptimize(ck.holds("AG (r1 -> AF a1)"));
  }
}
BENCHMARK(BM_VerdictOnly);

void BM_VerdictPlusCounterexample(benchmark::State& state) {
  auto m = models::seitz_arbiter();
  (void)m->reachable();
  for (auto _ : state) {
    core::Checker ck(*m);
    core::Explainer ex(ck);
    benchmark::DoNotOptimize(ex.explain("AG (r1 -> AF a1)"));
  }
}
BENCHMARK(BM_VerdictPlusCounterexample);

/// Ablation: a lasso from saved rings vs one that recomputes them.
void BM_WitnessFromSavedRings(benchmark::State& state) {
  auto m = models::dining_philosophers({.count = 4});
  core::Checker ck(*m);
  const bdd::Bdd f = !*m->label("eat0");
  const core::FairEG info = ck.eg_with_rings(f);
  for (auto _ : state) {
    core::WitnessGenerator wg(ck);
    benchmark::DoNotOptimize(wg.eg(info, f, info.states));
  }
}
BENCHMARK(BM_WitnessFromSavedRings);

void BM_WitnessRecomputingRings(benchmark::State& state) {
  auto m = models::dining_philosophers({.count = 4});
  const bdd::Bdd f = !*m->label("eat0");
  for (auto _ : state) {
    // A fresh Checker has an empty FairEG memo, so the fixpoint and its
    // rings are recomputed each time.
    core::Checker fresh(*m);
    core::WitnessGenerator wg(fresh);
    benchmark::DoNotOptimize(wg.eg(f, fresh.eg(f)));
  }
}
BENCHMARK(BM_WitnessRecomputingRings);

/// Certify one counterexample lasso with a fresh certifier per iteration.
/// The cost should track the trace length, not the model's state count.
void BM_CertifyPath(benchmark::State& state, bool counter_bank) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  auto m = counter_bank
               ? models::counter_bank({.banks = n, .width = 4})
               : models::round_robin_arbiter({.users = n, .rotate = false});
  core::Checker ck(*m);
  core::Explainer explainer(ck);
  const auto out = explainer.explain(counter_bank ? "AG (zero0 -> AF max0)"
                                                  : "AG (req1 -> AF gnt1)");
  if (!out.trace) {
    state.SkipWithError("spec unexpectedly holds");
    return;
  }
  std::size_t obligations = 0;
  for (auto _ : state) {
    const certify::TraceCertifier certifier(*m);
    const certify::Certificate cert = certifier.certify_path(*out.trace);
    obligations = cert.obligations.size();
    benchmark::DoNotOptimize(cert);
  }
  state.counters["obligations"] = static_cast<double>(obligations);
  state.counters["trace_len"] = static_cast<double>(out.trace->length());
}
BENCHMARK_CAPTURE(BM_CertifyPath, counter_bank, true)
    ->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CertifyPath, round_robin_camping, false)
    ->Arg(8)->Arg(10)->Unit(benchmark::kMillisecond);

/// Forward invariant checking vs the backward AG fixpoint: the forward
/// engine stops at the violation depth instead of closing the whole
/// backward fixpoint, and its counterexample prefix is minimal.
void BM_InvariantForward(benchmark::State& state) {
  auto m = models::counter(
      {.width = static_cast<std::uint32_t>(state.range(0))});
  core::Checker ck(*m);
  // Violated at depth 2^(w-1): the top bit rises halfway through.
  const bdd::Bdd top = m->cur(static_cast<ts::VarId>(state.range(0)) - 1);
  std::size_t len = 0;
  for (auto _ : state) {
    core::Checker fresh(*m);
    const auto r = core::check_invariant(fresh, !top,
                                         /*extend_to_fair=*/false);
    len = r.counterexample ? r.counterexample->length() : 0;
    benchmark::DoNotOptimize(r);
  }
  state.counters["cex_len"] = static_cast<double>(len);
}
BENCHMARK(BM_InvariantForward)->Arg(6)->Arg(8)->Arg(10);

void BM_InvariantBackward(benchmark::State& state) {
  auto m = models::counter(
      {.width = static_cast<std::uint32_t>(state.range(0))});
  const bdd::Bdd top = m->cur(static_cast<ts::VarId>(state.range(0)) - 1);
  for (auto _ : state) {
    core::Checker fresh(*m);
    // The backward AG check: close the full E[true U violation] fixpoint.
    benchmark::DoNotOptimize(
        fresh.eu_raw(m->manager().one(), top & fresh.fair_states()));
  }
}
BENCHMARK(BM_InvariantBackward)->Arg(6)->Arg(8)->Arg(10);

}  // namespace

int main(int argc, char** argv) {
  symcex::bench::StatsExport stats(&argc, argv);
  report_e6();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
