// E4 -- Theorem 1: finding the minimal finite witness is NP-complete, so
// SMV's construction settles for a heuristically short one.  This bench
// quantifies the tradeoff on random fair systems:
//
//   * exact branch-and-bound minimal witness (exponential in the number
//     of fairness constraints) vs the Section 6 heuristic (polynomial),
//   * length gap between the two,
//   * blow-up of the exact search as constraints are added.

#include <cstdio>
#include <random>

#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include "core/checker.hpp"
#include "core/witness.hpp"
#include "explicit/explicit_checker.hpp"
#include "explicit/explicit_graph.hpp"
#include "ts/transition_system.hpp"

namespace {

using namespace symcex;

std::unique_ptr<ts::TransitionSystem> random_fair_system(
    unsigned seed, std::uint32_t vars, std::uint32_t constraints) {
  std::mt19937 rng(seed);
  auto m = std::make_unique<ts::TransitionSystem>();
  for (std::uint32_t v = 0; v < vars; ++v) {
    m->add_var(std::string("x").append(std::to_string(v)));
  }
  bdd::Bdd init = m->manager().one();
  for (std::uint32_t v = 0; v < vars; ++v) init &= !m->cur(v);
  m->set_init(init);
  for (std::uint32_t v = 0; v < vars; ++v) {
    // Each variable may hold or follow a random function: total relation.
    bdd::Bdd f = m->manager().zero();
    for (int t = 0; t < 2; ++t) {
      bdd::Bdd cube = m->manager().one();
      for (std::uint32_t w = 0; w < vars; ++w) {
        switch (rng() % 3) {
          case 0:
            cube &= m->cur(w);
            break;
          case 1:
            cube &= !m->cur(w);
            break;
          default:
            break;
        }
      }
      f |= cube;
    }
    m->add_trans((!(m->next(v) ^ m->cur(v))) | (!(m->next(v) ^ f)));
  }
  for (std::uint32_t k = 0; k < constraints; ++k) {
    // Constraint: variable (k mod vars) has value (k / vars) % 2.
    const std::uint32_t v = k % vars;
    m->add_fairness((k / vars) % 2 == 0 ? m->cur(v) : !m->cur(v));
  }
  m->finalize();
  return m;
}

struct Comparison {
  bool applicable = false;
  std::size_t heuristic_length = 0;
  std::size_t exact_length = 0;
};

Comparison compare_once(unsigned seed, std::uint32_t vars,
                        std::uint32_t constraints) {
  auto m = random_fair_system(seed, vars, constraints);
  core::Checker ck(*m);
  const core::FairEG info = ck.eg_with_rings(m->manager().one());
  Comparison out;
  if (!m->init().intersects(info.states)) return out;
  core::WitnessGenerator wg(ck);
  const core::Trace heuristic = wg.eg(info, m->manager().one(), m->init());
  const auto e = enumerative::enumerate(*m, 1u << 14);
  enumerative::StateId start = 0;
  for (enumerative::StateId i = 0; i < e.concrete.size(); ++i) {
    if (e.concrete[i] == heuristic.prefix.front()) start = i;
  }
  const auto exact = enumerative::minimal_finite_witness(
      e.graph, start, enumerative::StateSet(e.graph.num_states(), true));
  if (!exact.has_value()) return out;
  out.applicable = true;
  out.heuristic_length = heuristic.length();
  out.exact_length = exact->length();
  return out;
}

void report_e4() {
  std::printf("== E4: heuristic vs minimal finite witness (Theorem 1) ==\n");
  std::printf("%-8s %-12s %-12s %-12s %-8s\n", "vars", "constraints",
              "heuristic", "minimal", "ratio");
  for (const std::uint32_t constraints : {1u, 2u, 3u, 4u, 6u}) {
    double h_sum = 0;
    double e_sum = 0;
    int hits = 0;
    for (unsigned seed = 0; seed < 20; ++seed) {
      const Comparison c = compare_once(seed, 4, constraints);
      if (!c.applicable) continue;
      h_sum += static_cast<double>(c.heuristic_length);
      e_sum += static_cast<double>(c.exact_length);
      ++hits;
    }
    if (hits == 0) continue;
    std::printf("%-8u %-12u %-12.2f %-12.2f %-8.2f\n", 4u, constraints,
                h_sum / hits, e_sum / hits, h_sum / e_sum);
  }
  std::printf("\n");
}

/// First seed whose system is nondegenerate (a reasonably large reachable
/// fragment with a fair path from the initial state).
std::unique_ptr<ts::TransitionSystem> find_fair_system(
    std::uint32_t vars, std::uint32_t constraints) {
  for (unsigned seed = 0; seed < 200; ++seed) {
    auto m = random_fair_system(seed, vars, constraints);
    if (m->count_states(m->reachable()) < 8) continue;
    core::Checker ck(*m);
    if (m->init().intersects(ck.eg(m->manager().one()))) return m;
  }
  throw std::runtime_error("find_fair_system: no usable seed");
}

void BM_HeuristicWitness(benchmark::State& state) {
  const auto constraints = static_cast<std::uint32_t>(state.range(0));
  auto m = find_fair_system(4, constraints);
  core::Checker ck(*m);
  const core::FairEG info = ck.eg_with_rings(m->manager().one());
  for (auto _ : state) {
    core::WitnessGenerator wg(ck);
    benchmark::DoNotOptimize(wg.eg(info, m->manager().one(), m->init()));
  }
  state.counters["states"] = m->count_states(m->reachable());
}
BENCHMARK(BM_HeuristicWitness)->Arg(1)->Arg(3)->Arg(6)->Arg(10);

void BM_ExactMinimalWitness(benchmark::State& state) {
  const auto constraints = static_cast<std::uint32_t>(state.range(0));
  auto m = find_fair_system(4, constraints);
  const auto e = enumerative::enumerate(*m, 1u << 14);
  const enumerative::StateSet all(e.graph.num_states(), true);
  const enumerative::StateId start = e.graph.init.front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        enumerative::minimal_finite_witness(e.graph, start, all));
  }
  state.counters["states"] = static_cast<double>(e.graph.num_states());
}
BENCHMARK(BM_ExactMinimalWitness)->Arg(1)->Arg(3)->Arg(6)->Arg(10);

}  // namespace

int main(int argc, char** argv) {
  symcex::bench::StatsExport stats(&argc, argv);
  report_e4();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
