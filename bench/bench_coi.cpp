// What cone-of-influence reduction buys (DESIGN.md §12): the same
// end-to-end checks with COI on vs off, on properties that touch a strict
// subset of the model's variables, reporting wall time plus the substrate
// numbers the ablation story turns on -- peak live BDD nodes, nodes
// created, total top-level apply calls, AndExists calls -- and the number
// of variables the cone dropped.  Under --stats_json the per-mode metrics
// land under a coi_on/ or coi_off/ phase.
//
// Both checks run in the engine's don't-care-aware configuration
// (use_care_set on, DESIGN.md §9), because that is where the out-of-cone
// variables hurt most: the care set is the reachable state set, and when
// the dropped components march in lockstep with the kept ones the full
// reachable set must represent the correlation ("all banks hold the same
// value") -- a BDD that is exponential in the bank count under the
// sequential variable order -- while the reduced system's reachable set
// collapses to the kept component alone.  The models:
//
//   * a lockstep counter bank (8 banks x 8 bits stepping together)
//     checked on bank 0 alone ("AG EF zero0"): the cone keeps 8 of 64
//     variables, and with them goes the all-banks-equal care set;
//   * an SMV arbiter carrying an unrelated watchdog counter and a shadow
//     register (next(echo) := tick), checked on the grant exclusivity
//     invariant: the cone keeps the four handshake variables and drops
//     the 16 watchdog bits, whose echo = tick - 1 correlation is what
//     makes the full reachable set expensive.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include "bdd/bdd.hpp"
#include "core/checker.hpp"
#include "diag/metrics.hpp"
#include "smv/smv.hpp"
#include "ts/transition_system.hpp"

namespace {

using namespace symcex;

// The arbiter with dead weight: fixed-priority two-user handshake (the
// property's cone) plus a free-running watchdog counter and its shadow
// register (droppable, but correlated with each other).
constexpr const char* kArbiterWithWatchdog = R"(MODULE main
VAR
  req1 : boolean;
  req2 : boolean;
  gnt1 : boolean;
  gnt2 : boolean;
  tick : 0..255;
  echo : 0..255;
ASSIGN
  init(gnt1) := FALSE;
  init(gnt2) := FALSE;
  next(req1) := case req1 = gnt1 : {TRUE, FALSE}; TRUE : req1; esac;
  next(req2) := case req2 = gnt2 : {TRUE, FALSE}; TRUE : req2; esac;
  next(gnt1) := req1;
  next(gnt2) := req2 & !req1;
  init(tick) := 0;
  next(tick) := case tick < 255 : tick + 1; TRUE : 0; esac;
  init(echo) := 0;
  next(echo) := tick;
SPEC AG !(gnt1 & gnt2)
)";

/// A counter bank whose banks all step together (deterministic increment,
/// one transition conjunct per bank so the cone can drop whole conjuncts).
/// Unlike models::counter_bank the banks are synchronised, so the full
/// reachable set is "every bank holds the same value".
std::unique_ptr<ts::TransitionSystem> lockstep_bank(std::uint32_t banks,
                                                    std::uint32_t width) {
  auto m = std::make_unique<ts::TransitionSystem>();
  std::vector<std::vector<ts::VarId>> bank_bits;
  bank_bits.reserve(banks);
  for (std::uint32_t k = 0; k < banks; ++k) {
    bank_bits.push_back(
        m->add_vector(std::string("c").append(std::to_string(k)), width));
  }
  bdd::Bdd init = m->manager().one();
  for (const auto& bits : bank_bits) {
    for (const ts::VarId b : bits) init &= !m->cur(b);
  }
  m->set_init(init);
  for (const auto& bits : bank_bits) {
    bdd::Bdd inc = m->manager().one();
    bdd::Bdd carry = m->manager().one();
    for (const ts::VarId b : bits) {
      inc &= !(m->next(b) ^ (m->cur(b) ^ carry));
      carry &= m->cur(b);
    }
    m->add_trans(inc);
  }
  bdd::Bdd zero0 = m->manager().one();
  bdd::Bdd max0 = m->manager().one();
  for (const ts::VarId b : bank_bits[0]) {
    zero0 &= !m->cur(b);
    max0 &= m->cur(b);
  }
  m->add_label("zero0", zero0);
  m->add_label("max0", max0);
  m->finalize();
  return m;
}

std::uint64_t total_applies(const bdd::ManagerStats& s) {
  std::uint64_t total = 0;
  for (std::size_t op = 0; op < bdd::kNumApplyOps; ++op) {
    total += s.apply_calls[op];
  }
  return total;
}

struct Instance {
  std::unique_ptr<ts::TransitionSystem> owned;  // programmatic models
  std::unique_ptr<smv::SmvModel> model;         // SMV models
  ts::TransitionSystem* system = nullptr;
};

using Builder = std::function<Instance()>;

/// One fresh model + checker per iteration (cache-cold, comparable across
/// modes): the point is the whole check including the care-set and
/// fixpoint computations, so no state is shared between COI-on and
/// COI-off runs.
void run_check(benchmark::State& state, const Builder& build,
               const char* spec, bool coi) {
  const char* phase_name = coi ? "coi_on" : "coi_off";
  for (auto _ : state) {
    state.PauseTiming();
    Instance instance = build();
    core::Checker checker(*instance.system,
                          {.image_method = ts::ImageMethod::kPartitioned,
                           .use_care_set = true,
                           .coi = coi});
    const auto& ms = instance.system->manager().stats();
    const std::uint64_t applies0 = total_applies(ms);
    const std::uint64_t andex0 = ms.apply(bdd::ApplyOp::kAndExists);
    const std::uint64_t created0 = ms.unique_misses;
    state.ResumeTiming();

    const diag::PhaseScope phase(phase_name);
    const core::CheckOutcome outcome = checker.check(spec);
    benchmark::DoNotOptimize(outcome);

    state.PauseTiming();
    const double peak = static_cast<double>(ms.peak_nodes);
    const double created =
        static_cast<double>(ms.unique_misses - created0);
    const double applies = static_cast<double>(total_applies(ms) - applies0);
    const double andex =
        static_cast<double>(ms.apply(bdd::ApplyOp::kAndExists) - andex0);
    const double dropped =
        checker.reduction() != nullptr
            ? static_cast<double>(checker.reduction()->cone().dropped.size())
            : 0.0;
    state.counters["peak_nodes"] = peak;
    state.counters["nodes_created"] = created;
    state.counters["apply_calls"] = applies;
    state.counters["and_exists"] = andex;
    state.counters["vars_dropped"] = dropped;
    auto& r = diag::Registry::global();
    r.gauge_set("peak_nodes", peak);
    r.gauge_set("nodes_created", created);
    r.gauge_set("apply_calls", applies);
    r.gauge_set("and_exists", andex);
    r.gauge_set("vars_dropped", dropped);
    state.ResumeTiming();
  }
}

Builder counter_bank() {
  return [] {
    Instance instance;
    instance.owned = lockstep_bank(8, 8);
    instance.system = instance.owned.get();
    return instance;
  };
}

Builder arbiter_watchdog() {
  return [] {
    Instance instance;
    instance.model =
        std::make_unique<smv::SmvModel>(smv::compile(kArbiterWithWatchdog));
    instance.system = &instance.model->system();
    return instance;
  };
}

void BM_CounterBankSingleBankExact(benchmark::State& state) {
  run_check(state, counter_bank(), "AG EF zero0", false);
}
BENCHMARK(BM_CounterBankSingleBankExact);

void BM_CounterBankSingleBankCoi(benchmark::State& state) {
  run_check(state, counter_bank(), "AG EF zero0", true);
}
BENCHMARK(BM_CounterBankSingleBankCoi);

void BM_ArbiterWatchdogExclusivityExact(benchmark::State& state) {
  run_check(state, arbiter_watchdog(), "AG !(gnt1 & gnt2)", false);
}
BENCHMARK(BM_ArbiterWatchdogExclusivityExact);

void BM_ArbiterWatchdogExclusivityCoi(benchmark::State& state) {
  run_check(state, arbiter_watchdog(), "AG !(gnt1 & gnt2)", true);
}
BENCHMARK(BM_ArbiterWatchdogExclusivityCoi);

}  // namespace

int main(int argc, char** argv) {
  symcex::bench::StatsExport stats(&argc, argv);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
