// E9 -- substrate micro-benchmarks for the BDD package (the machinery
// Sections 2 and 4 of the paper assume from [2, 3]):
//
//   * ITE / apply on random function DAGs,
//   * the fused relational product (AndExists) against the naive
//     conjoin-then-quantify pipeline (DESIGN.md ablation),
//   * symbolic reachability on n-bit counters (image iteration scaling),
//   * monolithic vs conjunctively-partitioned image computation
//     (DESIGN.md ablation) on the Seitz arbiter,
//   * the fused image / preimage kernels (rel_next / rel_prev) against a
//     relational product followed by a separate rail move,
//   * what a fresh manager costs, and a sweep over the computed-cache
//     ceiling (ManagerOptions::cache_log2_size) on deep and wide checks.

#include <random>

#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include "bdd/bdd.hpp"
#include "core/checker.hpp"
#include "models/models.hpp"
#include "ts/transition_system.hpp"

namespace {

using namespace symcex;

bdd::Bdd random_function(bdd::Manager& m, std::mt19937& rng,
                         std::uint32_t vars, int terms) {
  bdd::Bdd f = m.zero();
  for (int t = 0; t < terms; ++t) {
    bdd::Bdd cube = m.one();
    for (std::uint32_t v = 0; v < vars; ++v) {
      switch (rng() % 3) {
        case 0:
          cube &= m.var(v);
          break;
        case 1:
          cube &= m.nvar(v);
          break;
        default:
          break;
      }
    }
    f |= cube;
  }
  return f;
}

/// Rotating operand pools keep the computed cache from reducing the loop
/// to pure cache hits (a separate pass measures the warm-cache case).
void BM_Ite(benchmark::State& state) {
  const auto vars = static_cast<std::uint32_t>(state.range(0));
  bdd::Manager m(vars);
  std::mt19937 rng(1);
  std::vector<bdd::Bdd> pool;
  for (int i = 0; i < 32; ++i) pool.push_back(random_function(m, rng, vars, 16));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.ite(pool[i % 32], pool[(i + 11) % 32],
                                   pool[(i + 23) % 32]));
    ++i;
  }
  state.counters["cache_hit_rate"] =
      static_cast<double>(m.stats().cache_hits) /
      static_cast<double>(m.stats().cache_lookups);
}
BENCHMARK(BM_Ite)->Arg(16)->Arg(32)->Arg(64);

void BM_Apply(benchmark::State& state) {
  const auto vars = static_cast<std::uint32_t>(state.range(0));
  bdd::Manager m(vars);
  std::mt19937 rng(2);
  std::vector<bdd::Bdd> pool;
  for (int i = 0; i < 32; ++i) pool.push_back(random_function(m, rng, vars, 24));
  std::size_t i = 0;
  for (auto _ : state) {
    const bdd::Bdd& f = pool[i % 32];
    const bdd::Bdd& g = pool[(i + 17) % 32];
    benchmark::DoNotOptimize(f & g);
    benchmark::DoNotOptimize(f | g);
    benchmark::DoNotOptimize(f ^ g);
    ++i;
  }
}
BENCHMARK(BM_Apply)->Arg(16)->Arg(32)->Arg(64);

void BM_ApplyWarmCache(benchmark::State& state) {
  const auto vars = static_cast<std::uint32_t>(state.range(0));
  bdd::Manager m(vars);
  std::mt19937 rng(2);
  const bdd::Bdd f = random_function(m, rng, vars, 24);
  const bdd::Bdd g = random_function(m, rng, vars, 24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f & g);
  }
}
BENCHMARK(BM_ApplyWarmCache)->Arg(32);

/// The Coudert-Madre generalized-cofactor kernels (DESIGN.md §9): how
/// much simplifying a random function against a random care set costs,
/// and how much it shrinks the DAG (restrict never enlarges the support;
/// constrain may).
void BM_Restrict(benchmark::State& state) {
  const auto vars = static_cast<std::uint32_t>(state.range(0));
  bdd::Manager m(vars);
  std::mt19937 rng(5);
  std::vector<bdd::Bdd> fs, cs;
  for (int i = 0; i < 32; ++i) {
    fs.push_back(random_function(m, rng, vars, 24));
    bdd::Bdd c = random_function(m, rng, vars, 8);
    cs.push_back(c.is_false() ? m.one() : c);
  }
  std::size_t i = 0;
  double in_nodes = 0;
  double out_nodes = 0;
  for (auto _ : state) {
    const bdd::Bdd r = fs[i % 32].minimize(cs[(i + 13) % 32]);
    benchmark::DoNotOptimize(r);
    in_nodes += static_cast<double>(fs[i % 32].dag_size());
    out_nodes += static_cast<double>(r.dag_size());
    ++i;
  }
  if (in_nodes > 0) state.counters["shrink_ratio"] = out_nodes / in_nodes;
}
BENCHMARK(BM_Restrict)->Arg(16)->Arg(32)->Arg(64);

void BM_Constrain(benchmark::State& state) {
  const auto vars = static_cast<std::uint32_t>(state.range(0));
  bdd::Manager m(vars);
  std::mt19937 rng(5);
  std::vector<bdd::Bdd> fs, cs;
  for (int i = 0; i < 32; ++i) {
    fs.push_back(random_function(m, rng, vars, 24));
    bdd::Bdd c = random_function(m, rng, vars, 8);
    cs.push_back(c.is_false() ? m.one() : c);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs[i % 32].constrain(cs[(i + 13) % 32]));
    ++i;
  }
}
BENCHMARK(BM_Constrain)->Arg(16)->Arg(32)->Arg(64);

/// The ablation pair: image computation as one fused AndExists versus
/// explicitly building the conjunction and quantifying afterwards, on the
/// dining-philosophers relation (wide support, nontrivial conjunction).
void BM_RelationalProductFused(benchmark::State& state) {
  auto m = models::dining_philosophers(
      {.count = static_cast<std::uint32_t>(state.range(0))});
  const bdd::Bdd states_set = m->reachable();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        m->manager().and_exists(states_set, m->trans(), m->cur_cube()));
  }
  state.counters["trans_dag"] = static_cast<double>(m->trans().dag_size());
}
BENCHMARK(BM_RelationalProductFused)->Arg(4)->Arg(6)->Arg(8);

void BM_RelationalProductNaive(benchmark::State& state) {
  auto m = models::dining_philosophers(
      {.count = static_cast<std::uint32_t>(state.range(0))});
  const bdd::Bdd states_set = m->reachable();
  for (auto _ : state) {
    benchmark::DoNotOptimize((states_set & m->trans()).exists(m->cur_cube()));
  }
}
BENCHMARK(BM_RelationalProductNaive)->Arg(4)->Arg(6)->Arg(8);

/// Counter reachability: the BFS diameter is 2^width, so this measures
/// many small image steps (and is the known worst case for symbolic BFS).
void BM_CounterReachability(benchmark::State& state) {
  const auto width = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    auto m = models::counter({.width = width});
    benchmark::DoNotOptimize(m->reachable());
    state.counters["states"] = m->count_states(m->reachable());
  }
}
BENCHMARK(BM_CounterReachability)->Arg(6)->Arg(8)->Arg(10);

void BM_PhilosopherReachability(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    auto m = models::dining_philosophers({.count = n});
    benchmark::DoNotOptimize(m->reachable());
    state.counters["states"] = m->count_states(m->reachable());
  }
}
BENCHMARK(BM_PhilosopherReachability)->Arg(4)->Arg(8)->Arg(12);

/// Monolithic vs partitioned image on the arbiter, whose relation is a
/// genuine conjunctive partition (one conjunct per gate / environment).
void BM_ImageMonolithic(benchmark::State& state) {
  auto m = models::seitz_arbiter();
  const bdd::Bdd reach = m->reachable();
  (void)m->trans();  // pre-build the monolithic relation
  for (auto _ : state) {
    benchmark::DoNotOptimize(m->image(reach, ts::ImageMethod::kMonolithic));
  }
  state.counters["parts"] = static_cast<double>(m->trans_parts().size());
  state.counters["trans_dag"] = static_cast<double>(m->trans().dag_size());
}
BENCHMARK(BM_ImageMonolithic);

void BM_ImagePartitioned(benchmark::State& state) {
  auto m = models::seitz_arbiter();
  const bdd::Bdd reach = m->reachable();
  for (auto _ : state) {
    benchmark::DoNotOptimize(m->image(reach, ts::ImageMethod::kPartitioned));
  }
}
BENCHMARK(BM_ImagePartitioned);

void BM_PreimageMonolithic(benchmark::State& state) {
  auto m = models::seitz_arbiter();
  const bdd::Bdd reach = m->reachable();
  (void)m->trans();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        m->preimage(reach, ts::ImageMethod::kMonolithic));
  }
}
BENCHMARK(BM_PreimageMonolithic);

void BM_PreimagePartitioned(benchmark::State& state) {
  auto m = models::seitz_arbiter();
  const bdd::Bdd reach = m->reachable();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        m->preimage(reach, ts::ImageMethod::kPartitioned));
  }
}
BENCHMARK(BM_PreimagePartitioned);

/// One image or preimage step of the reachable set of N dining
/// philosophers, with the computed cache flushed (by gc, untimed) before
/// every iteration, so a row times a whole recursion rather than a
/// top-level cache hit.  Fused: one rel_next / rel_prev.  Two-pass: the
/// relational product, then a separate rail move (unprime / prime).  The
/// counters are the step's computed-cache probes and mk calls, which do
/// not depend on the machine.
template <typename Step>
void run_cold_step(benchmark::State& state, Step step) {
  auto m = models::dining_philosophers(
      {.count = static_cast<std::uint32_t>(state.range(0))});
  const bdd::Bdd reach = m->reachable();
  (void)m->trans();
  bdd::Manager& mgr = m->manager();
  const auto mk_calls = [&] {
    return mgr.stats().unique_hits + mgr.stats().unique_misses;
  };
  std::size_t lookups = 0;
  std::size_t mks = 0;
  for (auto _ : state) {
    state.PauseTiming();
    mgr.gc();
    const std::size_t lookups0 = mgr.stats().cache_lookups;
    const std::size_t mks0 = mk_calls();
    state.ResumeTiming();
    benchmark::DoNotOptimize(step(*m, mgr, reach));
    lookups = mgr.stats().cache_lookups - lookups0;
    mks = mk_calls() - mks0;
  }
  state.counters["cache_lookups"] = static_cast<double>(lookups);
  state.counters["mk_calls"] = static_cast<double>(mks);
}

void BM_ImageFused(benchmark::State& state) {
  run_cold_step(state, [](const ts::TransitionSystem& m, bdd::Manager& mgr,
                          const bdd::Bdd& s) {
    return mgr.rel_next(s, m.trans(), m.cur_cube());
  });
}
BENCHMARK(BM_ImageFused)->Arg(4)->Arg(6)->Arg(8);

void BM_ImageTwoPass(benchmark::State& state) {
  run_cold_step(state, [](const ts::TransitionSystem& m, bdd::Manager& mgr,
                          const bdd::Bdd& s) {
    return m.unprime(mgr.and_exists(s, m.trans(), m.cur_cube()));
  });
}
BENCHMARK(BM_ImageTwoPass)->Arg(4)->Arg(6)->Arg(8);

void BM_PreimageFused(benchmark::State& state) {
  run_cold_step(state, [](const ts::TransitionSystem& m, bdd::Manager& mgr,
                          const bdd::Bdd& s) {
    return mgr.rel_prev(s, m.trans(), m.next_cube());
  });
}
BENCHMARK(BM_PreimageFused)->Arg(4)->Arg(6)->Arg(8);

void BM_PreimageTwoPass(benchmark::State& state) {
  run_cold_step(state, [](const ts::TransitionSystem& m, bdd::Manager& mgr,
                          const bdd::Bdd& s) {
    return mgr.and_exists(m.prime(s), m.trans(), m.next_cube());
  });
}
BENCHMARK(BM_PreimageTwoPass)->Arg(4)->Arg(6)->Arg(8);

void BM_GarbageCollection(benchmark::State& state) {
  for (auto _ : state) {
    bdd::ManagerOptions options;
    options.gc_threshold = 1u << 12;
    bdd::Manager m(24, options);
    std::mt19937 rng(3);
    bdd::Bdd acc = m.zero();
    for (int i = 0; i < 64; ++i) {
      acc |= random_function(m, rng, 24, 4);
    }
    benchmark::DoNotOptimize(acc);
    state.counters["gc_runs"] =
        static_cast<double>(m.stats().gc_runs);
    state.counters["peak_nodes"] =
        static_cast<double>(m.stats().peak_nodes);
  }
}
BENCHMARK(BM_GarbageCollection);

/// The fixed cost of a small check: build a manager and a 10-bit counter,
/// then run one check.  A manager's tables are sized to its live nodes, so
/// this is mostly the check, not zero-filling an empty computed cache.
void BM_FreshManager(benchmark::State& state) {
  for (auto _ : state) {
    auto m = models::counter({.width = 10});
    core::Checker checker(*m);
    benchmark::DoNotOptimize(checker.holds("AG EF zero"));
    state.counters["memory_kib"] =
        static_cast<double>(m->manager().memory_bytes()) / 1024.0;
  }
}
BENCHMARK(BM_FreshManager)->Unit(benchmark::kMillisecond);

void report_cache(benchmark::State& state, const bdd::Manager& m) {
  const bdd::ManagerStats& s = m.stats();
  state.counters["cache_lookups"] = static_cast<double>(s.cache_lookups);
  state.counters["hit_ratio"] = static_cast<double>(s.cache_hits) /
                                static_cast<double>(s.cache_lookups);
  state.counters["growths"] = static_cast<double>(s.cache_growths);
  state.counters["peak_nodes"] = static_cast<double>(s.peak_nodes);
  state.counters["memory_kib"] =
      static_cast<double>(m.memory_bytes()) / 1024.0;
}

/// Computed-cache ceiling sweep, 2^12 to 2^20 slots.  Deep: counter-14
/// reachability, 16384 small image steps.  Wide: round_robin-12
/// AG (req8 -> AF gnt8), a fair-EG check over a large relation.  The cache
/// only grows while live nodes exceed its slot count, so a ceiling above
/// what the workload's live nodes reach leaves the run unchanged.
void BM_CacheCeilingCounterReach(benchmark::State& state) {
  bdd::ManagerOptions options;
  options.cache_log2_size = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    auto m = models::counter({.width = 14, .manager = options});
    benchmark::DoNotOptimize(m->reachable());
    report_cache(state, m->manager());
  }
}
BENCHMARK(BM_CacheCeilingCounterReach)
    ->DenseRange(12, 20)
    ->Unit(benchmark::kMillisecond);

void BM_CacheCeilingRoundRobin(benchmark::State& state) {
  bdd::ManagerOptions options;
  options.cache_log2_size = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    auto m = models::round_robin_arbiter({.users = 12, .manager = options});
    core::Checker checker(*m);
    benchmark::DoNotOptimize(checker.holds("AG (req8 -> AF gnt8)"));
    report_cache(state, m->manager());
  }
}
BENCHMARK(BM_CacheCeilingRoundRobin)
    ->DenseRange(12, 20)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  symcex::bench::StatsExport stats(&argc, argv);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
