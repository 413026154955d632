// Tests for the restricted CTL* fragment engine (Section 7): fragment
// recognition, the Emerson-Lei fixpoint (cross-checked against an
// SCC-based explicit oracle), and the case-split witness construction.

#include <random>

#include <gtest/gtest.h>

#include "ctlstar/star_checker.hpp"
#include "explicit/explicit_checker.hpp"
#include "explicit/explicit_graph.hpp"
#include "models/models.hpp"
#include "test_util.hpp"

namespace symcex::ctlstar {
namespace {

TEST(MatchFragment, RecognisesTheFragment) {
  EXPECT_TRUE(match_fragment(ctl::parse("E (G F p)")).has_value());
  EXPECT_TRUE(match_fragment(ctl::parse("E (F G p)")).has_value());
  EXPECT_TRUE(match_fragment(ctl::parse("E (G F p | F G q)")).has_value());
  EXPECT_TRUE(
      match_fragment(ctl::parse("E ((G F p | F G q) & G F r)")).has_value());
  EXPECT_TRUE(
      match_fragment(ctl::parse("E (G F p) | E (F G q)")).has_value());
  // State subformulas may be full CTL.
  EXPECT_TRUE(match_fragment(ctl::parse("E (G F (EF p))")).has_value());
}

TEST(MatchFragment, NormalisesToDnf) {
  const auto spec =
      match_fragment(ctl::parse("E ((G F p | F G q) & (G F r | F G p))"));
  ASSERT_TRUE(spec.has_value());
  ASSERT_EQ(spec->disjuncts.size(), 1u);
  EXPECT_EQ(spec->disjuncts[0].size(), 2u);
  // GF q | GF r collapses to GF (q | r) (pigeonhole), so this is still a
  // single disjunct of two conjuncts.
  const auto spec2 =
      match_fragment(ctl::parse("E (G F p & (G F q | G F r))"));
  ASSERT_TRUE(spec2.has_value());
  ASSERT_EQ(spec2->disjuncts.size(), 1u);
  EXPECT_EQ(spec2->disjuncts[0].size(), 2u);
  // Two FG disjuncts cannot merge: the disjunction must split.
  const auto spec3 =
      match_fragment(ctl::parse("E (G F p & (F G q | F G r))"));
  ASSERT_TRUE(spec3.has_value());
  EXPECT_EQ(spec3->disjuncts.size(), 2u);
}

TEST(MatchFragment, RejectsOutsiders) {
  EXPECT_FALSE(match_fragment(ctl::parse("E (G p)")).has_value());
  EXPECT_FALSE(match_fragment(ctl::parse("E (F p)")).has_value());
  EXPECT_FALSE(match_fragment(ctl::parse("E (p U q)")).has_value());
  EXPECT_FALSE(match_fragment(ctl::parse("A (G F p)")).has_value());
  EXPECT_FALSE(match_fragment(ctl::parse("E (!(G F p))")).has_value());
  EXPECT_FALSE(match_fragment(ctl::parse("AG p")).has_value());
}

TEST(StarChecker, GfOnTheCounter) {
  auto m = models::counter({.width = 3});
  core::Checker base(*m);
  StarChecker star(base);
  // The counter loops through everything: GF max and GF zero both hold.
  EXPECT_TRUE(star.holds(ctl::parse("E (G F max)")));
  EXPECT_TRUE(star.holds(ctl::parse("E (G F max & G F zero)")));
  // FG max is impossible: the counter always leaves max.
  EXPECT_FALSE(star.holds(ctl::parse("E (F G max)")));
  EXPECT_TRUE(star.holds(ctl::parse("E (F G max | G F zero)")));
}

TEST(StarChecker, FgNeedsAnAbsorbingRegion) {
  // A latch: x may rise at any time and then stays high.  Both FG x and
  // FG !x are satisfiable (latch now / never), but x cannot recur high
  // and low forever.
  ts::TransitionSystem m;
  const auto x = m.add_var("x");
  m.set_init(!m.cur(x));
  m.add_trans(!m.cur(x) | m.next(x));  // x high stays high
  m.finalize();
  core::Checker base(m);
  StarChecker star(base);
  EXPECT_TRUE(star.holds(ctl::parse("E (F G x)")));
  EXPECT_TRUE(star.holds(ctl::parse("E (F G !x)")));
  EXPECT_FALSE(star.holds(ctl::parse("E (G F x & G F !x)")));
}

TEST(StarChecker, SystemFairnessIsRespected) {
  // Free bit with fairness "x": E (F G !x) must fail, because fair paths
  // visit x infinitely often.
  ts::TransitionSystem m;
  const auto x = m.add_var("x");
  m.set_init(!m.cur(x));
  m.add_trans(m.manager().one());
  m.add_fairness(m.cur(x));
  m.finalize();
  core::Checker base(m);
  StarChecker star(base);
  EXPECT_FALSE(star.holds(ctl::parse("E (F G !x)")));
  EXPECT_TRUE(star.holds(ctl::parse("E (G F x)")));
  EXPECT_TRUE(star.holds(ctl::parse("E (G F !x)")));  // alternate
}

TEST(StarChecker, ThrowsOutsideFragment) {
  auto m = models::counter({.width = 2});
  core::Checker base(*m);
  StarChecker star(base);
  EXPECT_THROW((void)star.states(ctl::parse("E (G p)")),
               std::invalid_argument);
  EXPECT_THROW((void)star.witness(ctl::parse("AG p"), m->init()),
               std::invalid_argument);
}

TEST(StarWitness, GfWitnessVisitsInfinitelyOften) {
  auto m = models::counter({.width = 3});
  core::Checker base(*m);
  StarChecker star(base);
  const auto f = ctl::parse("E (G F max & G F zero)");
  const core::Trace t = star.witness(f, m->init());
  EXPECT_TRUE(test::certified_path(*m, t));
  ASSERT_TRUE(t.is_lasso());
  EXPECT_TRUE(t.cycle_visits(*m->label("max")));
  EXPECT_TRUE(t.cycle_visits(*m->label("zero")));
}

TEST(StarWitness, FgWitnessSettlesIntoTheInvariant) {
  // Latch: x may rise and then stays; witness for E(FG x) must end in a
  // cycle of x-states.
  ts::TransitionSystem m;
  const auto x = m.add_var("x");
  m.set_init(!m.cur(x));
  m.add_trans(!m.cur(x) | m.next(x));
  m.finalize();
  core::Checker base(m);
  StarChecker star(base);
  const core::Trace t = star.witness(ctl::parse("E (F G x)"), m.init());
  EXPECT_TRUE(test::certified_path(m, t));
  ASSERT_TRUE(t.is_lasso());
  for (const auto& s : t.cycle) EXPECT_TRUE(s.implies(m.cur(x)));
}

TEST(StarWitness, MixedConjunctCaseSplit) {
  // Two bits: x latches high; y toggles freely.
  //   E ((F G x | G F y) & G F !y) is satisfiable by choosing... the case
  //   split must find a consistent assignment and produce a valid lasso.
  ts::TransitionSystem m;
  const auto x = m.add_var("x");
  const auto y = m.add_var("y");
  m.set_init(!m.cur(x) & !m.cur(y));
  m.add_trans(!m.cur(x) | m.next(x));  // x latches
  m.add_trans(m.manager().one());      // y free
  m.finalize();
  core::Checker base(m);
  StarChecker star(base);
  const auto f = ctl::parse("E ((F G x | G F y) & G F !y)");
  ASSERT_TRUE(star.holds(f));
  const core::Trace t = star.witness(f, m.init());
  EXPECT_TRUE(test::certified_path(m, t));
  ASSERT_TRUE(t.is_lasso());
  EXPECT_TRUE(t.cycle_visits(!m.cur(y)));
  // Either x holds on the whole cycle or y recurs on it.
  bool fg_x = true;
  for (const auto& s : t.cycle) fg_x = fg_x && s.implies(m.cur(x));
  EXPECT_TRUE(fg_x || t.cycle_visits(m.cur(y)));
}

TEST(StarWitness, CountsFixpointEvaluations) {
  auto m = models::counter({.width = 2});
  core::Checker base(*m);
  StarChecker star(base);
  const auto f = ctl::parse("E (G F max & (F G true | G F zero))");
  ASSERT_TRUE(star.holds(f));
  const std::size_t before = star.fixpoint_evaluations();
  (void)star.witness(f, m->init());
  // The Section 7 case split re-invokes the model checker (Section 9's
  // cost remark).
  EXPECT_GT(star.fixpoint_evaluations(), before);
}

TEST(NegatePath, FragmentDuals) {
  auto round_trip = [](const char* text) {
    const auto f = ctl::parse(text);
    const auto neg = negate_path(f->lhs());
    return neg ? ctl::to_string(*neg) : std::string("<none>");
  };
  EXPECT_EQ(round_trip("E (G F p)"), "F G !p");
  EXPECT_EQ(round_trip("E (F G p)"), "G F !p");
  EXPECT_EQ(round_trip("E (G F p | F G q)"), "F G !p & G F !q");
  EXPECT_EQ(round_trip("E (G F p & F G q)"), "F G !p | G F !q");
  EXPECT_EQ(round_trip("E (G F (p & EF q))"), "F G !(p & EF q)");
}

TEST(NegatePath, OutsideFragment) {
  const auto f = ctl::parse("E (G p)");
  EXPECT_FALSE(negate_path(f->lhs()).has_value());
}

TEST(StarExplain, WitnessForTrueExistential) {
  auto m = models::counter({.width = 3});
  core::Checker base(*m);
  StarChecker star(base);
  const auto e = star.explain(ctl::parse("E (G F max)"));
  EXPECT_TRUE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  EXPECT_TRUE(test::certified_path(*m, *e.trace));
  EXPECT_TRUE(e.trace->cycle_visits(*m->label("max")));
}

TEST(StarExplain, CounterexampleForFalseUniversal) {
  // A (GF ticked) on the stuttering counter: false, the counterexample is
  // a fair path that eventually stops ticking (E FG !ticked).
  auto m = models::counter({.width = 2, .stutter = true});
  core::Checker base(*m);
  StarChecker star(base);
  const auto e = star.explain(ctl::parse("A (G F ticked)"));
  EXPECT_FALSE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  EXPECT_TRUE(test::certified_path(*m, *e.trace));
  // Eventually the cycle never ticks.
  for (const auto& s : e.trace->cycle) {
    EXPECT_TRUE(s.implies(!*m->label("ticked")));
  }
}

TEST(StarExplain, TrueUniversalHasNoTrace) {
  // The plain counter always cycles through max: A (GF max) holds.
  auto m = models::counter({.width = 2});
  core::Checker base(*m);
  StarChecker star(base);
  const auto e = star.explain(ctl::parse("A (G F max)"));
  EXPECT_TRUE(e.holds);
  EXPECT_FALSE(e.trace.has_value());
}

TEST(StarExplain, UniversalRespectsSystemFairness) {
  // Free bit with fairness GF x: every fair path satisfies GF x, so the
  // universal formula holds even though unfair violating paths exist.
  ts::TransitionSystem m;
  const auto x = m.add_var("x");
  m.set_init(!m.cur(x));
  m.add_trans(m.manager().one());
  m.add_fairness(m.cur(x));
  m.finalize();
  core::Checker base(m);
  StarChecker star(base);
  EXPECT_TRUE(star.explain(ctl::parse("A (G F x)")).holds);
  // And A (FG x) fails: a fair path may visit !x forever too.
  const auto e = star.explain(ctl::parse("A (F G x)"));
  EXPECT_FALSE(e.holds);
  ASSERT_TRUE(e.trace.has_value());
  EXPECT_TRUE(e.trace->cycle_visits(!m.cur(x)));
}

TEST(StarExplain, FalseExistentialHasNoTrace) {
  auto m = models::counter({.width = 2});
  core::Checker base(*m);
  StarChecker star(base);
  const auto e = star.explain(ctl::parse("E (F G max)"));
  EXPECT_FALSE(e.holds);
  EXPECT_FALSE(e.trace.has_value());
}

// ---------------------------------------------------------------------------
// Property: the fixpoint agrees with an SCC-based explicit oracle for
// E AND_j GF p_j on random models.
// ---------------------------------------------------------------------------

/// Explicit oracle: s |= E AND GF p_j iff s reaches a nontrivial SCC
/// containing a state of every p_j.
std::vector<bool> oracle_e_gf(const enumerative::Graph& g,
                              const std::vector<std::vector<bool>>& ps) {
  enumerative::Checker ck(g);
  const auto [comp, n] = ck.scc_of(std::vector<bool>(g.num_states(), true));
  std::vector<bool> comp_ok(n, true);
  std::vector<int> comp_size(n, 0);
  std::vector<bool> comp_cycle(n, false);
  std::vector<std::vector<bool>> hits(ps.size(), std::vector<bool>(n, false));
  for (enumerative::StateId v = 0; v < g.num_states(); ++v) {
    ++comp_size[comp[v]];
    for (const auto w : g.succ[v]) {
      if (w == v) comp_cycle[comp[v]] = true;
    }
    for (std::size_t k = 0; k < ps.size(); ++k) {
      if (ps[k][v]) hits[k][comp[v]] = true;
    }
  }
  std::vector<bool> good(g.num_states(), false);
  for (enumerative::StateId v = 0; v < g.num_states(); ++v) {
    const int c = comp[v];
    if (comp_size[c] == 1 && !comp_cycle[c]) continue;
    bool ok = true;
    for (std::size_t k = 0; k < ps.size() && ok; ++k) ok = hits[k][c];
    if (ok) good[v] = true;
  }
  return ck.eu_raw(std::vector<bool>(g.num_states(), true), good);
}

class StarProperty : public ::testing::TestWithParam<int> {};

TEST_P(StarProperty, GfConjunctionMatchesSccOracle) {
  const unsigned seed = static_cast<unsigned>(GetParam());
  auto m = test::random_ts(seed, {.num_vars = 4});
  core::Checker base(*m);
  StarChecker star(base);
  std::mt19937 rng(seed + 99);
  const auto e = enumerative::enumerate(*m, 1u << 12);
  for (int round = 0; round < 5; ++round) {
    std::vector<Conjunct> cs;
    std::vector<std::vector<bool>> ps;
    const int k = 1 + static_cast<int>(rng() % 3);
    for (int j = 0; j < k; ++j) {
      const bdd::Bdd p = test::random_predicate(*m, rng);
      cs.push_back(Conjunct{p, m->manager().zero()});
      std::vector<bool> bits(e.graph.num_states());
      for (std::size_t i = 0; i < bits.size(); ++i) {
        bits[i] = e.concrete[i].intersects(p);
      }
      ps.push_back(std::move(bits));
    }
    const bdd::Bdd sat = star.check_conjunction(cs);
    const auto want = oracle_e_gf(e.graph, ps);
    for (std::size_t i = 0; i < e.concrete.size(); ++i) {
      EXPECT_EQ(e.concrete[i].intersects(sat), want[i])
          << "seed " << seed << " state " << i;
    }
  }
}

TEST_P(StarProperty, WitnessContract) {
  const unsigned seed = static_cast<unsigned>(GetParam());
  auto m = test::random_ts(seed + 300, {.num_vars = 4});
  core::Checker base(*m);
  StarChecker star(base);
  std::mt19937 rng(seed + 17);
  for (int round = 0; round < 3; ++round) {
    const bdd::Bdd p = test::random_predicate(*m, rng);
    const bdd::Bdd q = test::random_predicate(*m, rng);
    const std::vector<Conjunct> cs{Conjunct{p, q}};
    const bdd::Bdd sat = star.check_conjunction(cs);
    if (!m->init().intersects(sat)) continue;
    const core::Trace t = star.conjunction_witness(cs, m->init());
    EXPECT_TRUE(test::certified_path(*m, t)) << "seed " << seed;
    ASSERT_TRUE(t.is_lasso());
    // The conjunct GF p | FG q holds on the lasso: either p recurs on the
    // cycle or q holds on the whole cycle.
    bool fg_q = true;
    for (const auto& s : t.cycle) fg_q = fg_q && s.implies(q);
    EXPECT_TRUE(fg_q || t.cycle_visits(p)) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StarProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace symcex::ctlstar
