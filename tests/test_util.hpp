// Shared helpers for the SymCeX test suite: random transition systems and
// random CTL formulas, used to cross-check the symbolic checker against
// the independent explicit-state implementation, and a scoped edit of the
// runtime configuration.

#pragma once

#include <memory>
#include <random>
#include <vector>

#include "bdd/bdd.hpp"
#include "ctl/formula.hpp"
#include "guard/config.hpp"
#include "ts/transition_system.hpp"

namespace symcex::test {

/// Installs an edited copy of config::current() for the scope's lifetime;
/// the previous configuration comes back on exit.
class ScopedConfig {
 public:
  template <typename Edit>
  explicit ScopedConfig(Edit edit) : saved_(config::current()) {
    config::Config edited = saved_;
    edit(edited);
    config::install(edited);
  }
  ~ScopedConfig() { config::install(saved_); }
  ScopedConfig(const ScopedConfig&) = delete;
  ScopedConfig& operator=(const ScopedConfig&) = delete;

 private:
  config::Config saved_;
};

/// A random boolean function over the current rail of `m`.
inline bdd::Bdd random_predicate(ts::TransitionSystem& m, std::mt19937& rng) {
  const auto n = static_cast<std::uint32_t>(m.num_state_vars());
  bdd::Bdd f = m.manager().zero();
  const int terms = 1 + static_cast<int>(rng() % 3);
  for (int t = 0; t < terms; ++t) {
    bdd::Bdd cube = m.manager().one();
    for (std::uint32_t v = 0; v < n; ++v) {
      switch (rng() % 3) {
        case 0:
          cube &= m.cur(v);
          break;
        case 1:
          cube &= !m.cur(v);
          break;
        default:
          break;  // don't constrain this variable
      }
    }
    f |= cube;
  }
  return f;
}

struct RandomModelOptions {
  std::uint32_t num_vars = 4;
  std::uint32_t num_fairness = 0;
  bool add_labels = true;  // p, q, r
};

/// A random *total* transition system: every variable may move to one of
/// two random functions of the current state, so every state has at least
/// one successor.  Labels p/q/r are random predicates.
inline std::unique_ptr<ts::TransitionSystem> random_ts(
    unsigned seed, const RandomModelOptions& options = {}) {
  std::mt19937 rng(seed);
  auto m = std::make_unique<ts::TransitionSystem>();
  for (std::uint32_t v = 0; v < options.num_vars; ++v) {
    m->add_var(std::string("x").append(std::to_string(v)));
  }
  // Random nonempty set of initial states.
  bdd::Bdd init = random_predicate(*m, rng);
  if (init.is_false()) init = m->manager().one();
  m->set_init(init);
  for (std::uint32_t v = 0; v < options.num_vars; ++v) {
    const bdd::Bdd f = random_predicate(*m, rng);
    const bdd::Bdd g = random_predicate(*m, rng);
    m->add_trans((!(m->next(v) ^ f)) | (!(m->next(v) ^ g)));
  }
  if (options.add_labels) {
    m->add_label("p", random_predicate(*m, rng));
    m->add_label("q", random_predicate(*m, rng));
    m->add_label("r", random_predicate(*m, rng));
  }
  for (std::uint32_t k = 0; k < options.num_fairness; ++k) {
    bdd::Bdd h = random_predicate(*m, rng);
    if (h.is_false()) h = m->manager().one();
    m->add_fairness(h);
  }
  m->finalize();
  return m;
}

/// A random CTL formula over atoms p, q, r.
inline ctl::Formula::Ptr random_ctl(std::mt19937& rng, int depth = 3) {
  using F = ctl::Formula;
  if (depth == 0 || rng() % 4 == 0) {
    switch (rng() % 5) {
      case 0:
        return F::atom("p");
      case 1:
        return F::atom("q");
      case 2:
        return F::atom("r");
      case 3:
        return F::make_true();
      default:
        return F::make_false();
    }
  }
  const auto sub = [&] { return random_ctl(rng, depth - 1); };
  switch (rng() % 12) {
    case 0:
      return F::negate(sub());
    case 1:
      return F::conj(sub(), sub());
    case 2:
      return F::disj(sub(), sub());
    case 3:
      return F::implies(sub(), sub());
    case 4:
      return F::EX(sub());
    case 5:
      return F::EF(sub());
    case 6:
      return F::EG(sub());
    case 7:
      return F::EU(sub(), sub());
    case 8:
      return F::AX(sub());
    case 9:
      return F::AF(sub());
    case 10:
      return F::AG(sub());
    default:
      return F::AU(sub(), sub());
  }
}

}  // namespace symcex::test
