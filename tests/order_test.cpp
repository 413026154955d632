// Dynamic variable reordering (src/order, DESIGN.md §10).
//
// The core contracts under test:
//
//   * an adjacent-level swap is a pure representation change -- every
//     function (truth table), every external handle, and the manager
//     audit survive it;
//   * sifting over an already-optimal order changes nothing (ties keep
//     the earlier position);
//   * sifting a deliberately bad non-interleaved order reclaims at least
//     the 2x the acceptance criterion demands;
//   * pair groups move as blocks, so the transition-system rail
//     discipline survives any reorder;
//   * a budget-aborted pass rolls back cleanly instead of throwing;
//   * a certified trace survives a forced reorder unchanged.
//
// That checking with reordering on or off yields the same verdicts and
// bit-identical certified traces is the cross-mode oracle's job
// (tests/oracle_test.cpp).

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "certify/certify.hpp"
#include "core/checker.hpp"
#include "core/explain.hpp"
#include "guard/guard.hpp"
#include "models/models.hpp"
#include "order/order.hpp"
#include "test_util.hpp"
#include "ts/transition_system.hpp"

namespace symcex {
namespace {

/// Truth table of f over the manager's first `n` variables (by INDEX, not
/// level) -- the observable the reorder must preserve.
std::vector<bool> truth_table(const bdd::Bdd& f, std::uint32_t n) {
  std::vector<bool> table;
  table.reserve(std::size_t{1} << n);
  std::vector<bool> point(n);
  for (std::uint32_t row = 0; row < (1u << n); ++row) {
    for (std::uint32_t v = 0; v < n; ++v) point[v] = ((row >> v) & 1) != 0;
    table.push_back(f.eval(point));
  }
  return table;
}

/// The classic order-sensitive function: (x0&y0) | ... | (xk-1&yk-1) with
/// all x's declared before all y's.  Under that blocked order the BDD is
/// exponential in k; interleaved it is linear.
bdd::Bdd blocked_achilles(bdd::Manager& m, std::uint32_t k) {
  bdd::Bdd f = m.zero();
  for (std::uint32_t i = 0; i < k; ++i) {
    f |= m.var(i) & m.var(k + i);
  }
  return f;
}

TEST(OrderSwap, AdjacentSwapPreservesSemanticsHandlesAndAudit) {
  bdd::Manager m(6);
  // A mix of order-sensitive shapes over 6 variables.
  std::vector<bdd::Bdd> funcs;
  funcs.push_back((m.var(0) & m.var(3)) | (m.var(1) & m.var(4)) |
                  (m.var(2) & m.var(5)));
  funcs.push_back(m.var(0) ^ m.var(1) ^ m.var(2) ^ m.var(5));
  funcs.push_back((m.var(0) | m.var(2)) & (!m.var(1) | m.var(4)) &
                  (m.var(3) ^ !m.var(5)));
  funcs.push_back(m.cube({1, 3, 5}));

  std::vector<std::vector<bool>> tables;
  std::vector<std::uint32_t> raw;
  for (const auto& f : funcs) {
    tables.push_back(truth_table(f, 6));
    raw.push_back(f.raw_index());
  }

  // Walk a pattern of swaps that permutes all levels several times over.
  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t lvl = 0; lvl + 1 < 6; ++lvl) {
      m.swap_levels(lvl);
      EXPECT_EQ(m.audit_check(), "");
      for (std::size_t i = 0; i < funcs.size(); ++i) {
        // External handles are stable: same node index, same function.
        EXPECT_EQ(funcs[i].raw_index(), raw[i]);
        EXPECT_EQ(truth_table(funcs[i], 6), tables[i]);
      }
    }
  }
  EXPECT_GE(m.stats().reorder_swaps, 15u);
  // level maps really moved: after 3 rounds of (0 1)(1 2)...(4 5) the
  // permutation is not the identity.
  EXPECT_FALSE(m.identity_order());
}

TEST(OrderSwap, SwapIsItsOwnInverse) {
  bdd::Manager m(4);
  const bdd::Bdd f = (m.var(0) & m.var(2)) | (m.var(1) & m.var(3));
  const std::size_t before = m.stats().live_nodes;
  m.swap_levels(1);
  m.swap_levels(1);
  EXPECT_TRUE(m.identity_order());
  EXPECT_EQ(m.stats().live_nodes, before);
  EXPECT_EQ(m.audit_check(), "");
}

TEST(OrderSwap, SwapThatGrowsTheUniqueTableKeepsItConsistent) {
  // A swap takes the nodes it rewrites off their chains, then creates
  // nodes; when one of those creations grows the unique table, the rehash
  // must leave the pending nodes out.  Each f = ite(x, B, A) below, with
  // A and B y-nodes kept alive, makes swapping x and y create two nodes;
  // the table is filled until those creations must grow it.
  bdd::ManagerOptions options;
  options.disable_auto_gc = true;
  bdd::Manager m(16, options);
  m.clear_budget();  // SYMCEX_NODE_LIMIT would cap the fill below
  const std::uint32_t x = 0;
  const std::uint32_t y = 1;
  const auto growth_at = [&] {  // four live nodes per bucket
    return std::size_t{4} * (std::size_t{4096} << m.stats().table_growths);
  };
  // A distinct cube over variables 2..15 per number.
  const auto cube_of = [&](std::uint32_t number) {
    bdd::Bdd cube = m.one();
    for (std::uint32_t bit = 0; bit < 14; ++bit) {
      cube &= m.literal(2 + bit, ((number >> bit) & 1) != 0);
    }
    return cube;
  };
  std::vector<bdd::Bdd> keep;
  std::vector<bdd::Bdd> funcs;
  std::uint32_t number = 0;
  while (m.stats().live_nodes + 2 * funcs.size() < growth_at() + 200) {
    const bdd::Bdd a = m.ite(m.var(y), cube_of(number), cube_of(number + 1));
    const bdd::Bdd b =
        m.ite(m.var(y), cube_of(number + 2), cube_of(number + 3));
    number += 4;
    keep.push_back(a);
    keep.push_back(b);
    funcs.push_back(m.ite(m.var(x), b, a));
  }
  std::vector<std::vector<bool>> points;
  for (std::uint32_t row = 0; row < 64; ++row) {
    std::vector<bool> point(16);
    for (std::uint32_t v = 0; v < 16; ++v) {
      point[v] = (((row * 2654435761u) >> v) & 1) != 0;
    }
    points.push_back(point);
  }
  const auto evaluate = [&] {
    std::vector<bool> values;
    for (const bdd::Bdd& f : funcs) {
      for (const auto& point : points) values.push_back(f.eval(point));
    }
    return values;
  };
  const std::vector<bool> before = evaluate();
  const std::size_t growths = m.stats().table_growths;
  m.swap_levels(0);
  ASSERT_GT(m.stats().table_growths, growths);
  EXPECT_EQ(m.audit_check(), "");
  EXPECT_EQ(evaluate(), before);
}

TEST(OrderSift, NoOpOnOptimalOrder) {
  bdd::Manager m(8);
  // Totally symmetric function: every order yields the same size, so with
  // strict-improvement tie-breaking a sift must leave the order untouched.
  bdd::Bdd conj = m.one();
  for (std::uint32_t v = 0; v < 8; ++v) conj &= m.var(v);
  const std::vector<std::uint32_t> order_before = m.current_order();
  const order::SiftResult res = order::sift(m);
  EXPECT_FALSE(res.aborted);
  EXPECT_EQ(res.nodes_before, res.nodes_after);
  EXPECT_EQ(m.current_order(), order_before);
  EXPECT_TRUE(m.identity_order());
}

TEST(OrderSift, RecoversAtLeastTwoFoldFromBlockedOrder) {
  // The acceptance criterion of DESIGN.md §10, enforced deterministically:
  // sifting the blocked achilles function must at least halve live nodes.
  constexpr std::uint32_t kPairs = 8;
  bdd::Manager m(2 * kPairs);
  const bdd::Bdd f = blocked_achilles(m, kPairs);
  const std::vector<bool> table = truth_table(f, 2 * kPairs);
  EXPECT_GT(f.dag_size(), std::size_t{1} << kPairs);  // exponential before

  const order::SiftResult res = order::sift(m);
  EXPECT_FALSE(res.aborted);
  EXPECT_GT(res.swaps, 0u);
  EXPECT_LE(res.nodes_after * 2, res.nodes_before);
  EXPECT_LE(f.dag_size(), std::size_t{4} * kPairs);  // near-linear after
  EXPECT_EQ(m.audit_check(), "");
  EXPECT_EQ(truth_table(f, 2 * kPairs), table);
}

TEST(OrderSift, WindowPermuteNeverGrowsAndPreservesSemantics) {
  bdd::Manager m(10);
  const bdd::Bdd f = blocked_achilles(m, 5);
  const std::vector<bool> table = truth_table(f, 10);
  const std::size_t before = m.stats().live_nodes;
  const order::SiftResult res = order::window_permute(m, 3);
  EXPECT_FALSE(res.aborted);
  EXPECT_LE(res.nodes_after, before);
  EXPECT_EQ(m.audit_check(), "");
  EXPECT_EQ(truth_table(f, 10), table);
  EXPECT_THROW((void)order::window_permute(m, 4), std::invalid_argument);
}

TEST(OrderSift, BudgetAbortRollsBackCleanly) {
  constexpr std::uint32_t kPairs = 6;
  bdd::Manager m(2 * kPairs);
  const bdd::Bdd f = blocked_achilles(m, kPairs);
  const std::vector<bool> table = truth_table(f, 2 * kPairs);

  // A one-swap allowance aborts the very first block mid-walk; the pass
  // must come back (no throw), rolled back to that block's best position,
  // with the manager audit-clean and the function intact.
  order::SiftOptions opts;
  opts.max_swaps = 1;
  const order::SiftResult res = order::sift(m, opts);
  EXPECT_TRUE(res.aborted);
  EXPECT_LE(res.nodes_after, res.nodes_before);
  EXPECT_EQ(m.audit_check(), "");
  EXPECT_EQ(truth_table(f, 2 * kPairs), table);

  // Same via an already-expired deadline on the manager's budget.
  guard::ResourceBudget budget;
  budget.deadline_ms = 1;
  m.install_budget(budget);
  std::size_t waited = 0;
  while (m.budget_spent().elapsed_ms < 2 && waited < 1000000000) ++waited;
  const order::SiftResult res2 = order::sift(m, {});
  EXPECT_TRUE(res2.aborted);
  EXPECT_EQ(m.audit_check(), "");
  EXPECT_EQ(truth_table(f, 2 * kPairs), table);
  m.clear_budget();
}

TEST(OrderGroups, PairsNeverSplitAcrossReorder) {
  auto m = models::counter({.width = 5, .modulus = 20});
  ASSERT_TRUE(m->manager().reorder());
  // Rail discipline survives: each current variable sits directly above
  // its next twin, and the system audit (which checks exactly this plus
  // the renaming round-trip) stays clean.
  bdd::Manager& mgr = m->manager();
  for (std::uint32_t v = 0; v + 1 < mgr.num_vars(); v += 2) {
    EXPECT_EQ(mgr.level_of_var(v) + 1, mgr.level_of_var(v + 1));
    EXPECT_EQ(mgr.var_group(v), mgr.var_group(v + 1));
  }
  EXPECT_EQ(mgr.audit_check(), "");
  EXPECT_EQ(m->audit_check(), "");
  EXPECT_GE(mgr.stats().reorder_runs, 1u);
  // Blocks report pairs, never singleton rails.
  for (const auto& block : order::blocks(mgr)) {
    EXPECT_EQ(block.size(), 2u);
    EXPECT_EQ(block[0] + 1, block[1]);
    EXPECT_EQ(block[0] % 2, 0u);
  }
}

TEST(OrderTrigger, GrowthWatermarkFiresAndShrinksTheTable) {
  bdd::Manager m(0);
  m.set_auto_reorder(true);
  constexpr std::uint32_t kPairs = 12;
  for (std::uint32_t v = 0; v < 2 * kPairs; ++v) (void)m.new_var();
  // Building the blocked achilles function pushes live nodes past the
  // 4096-node floor and 2x the baseline: the trigger must fire inside mk
  // and leave the (order-insensitive observable) function intact.
  const bdd::Bdd f = blocked_achilles(m, kPairs);
  EXPECT_GE(m.stats().reorder_runs, 1u);
  EXPECT_EQ(m.audit_check(), "");
  EXPECT_LT(f.dag_size(), std::size_t{1} << kPairs);
  std::vector<bool> point(2 * kPairs, false);
  point[0] = point[kPairs] = true;  // x0 & y0 -> true
  EXPECT_TRUE(f.eval(point));
  point[kPairs] = false;
  EXPECT_FALSE(f.eval(point));
}

TEST(OrderDot, DumpDotPrintsCurrentLevels) {
  bdd::Manager m(2);
  const bdd::Bdd f = m.var(0) & m.var(1);
  const auto render = [&] {
    std::ostringstream os;
    m.dump_dot(os, {f}, {"a", "b"});
    return os.str();
  };
  const std::string before = render();
  EXPECT_NE(before.find("\"a @0\""), std::string::npos);
  EXPECT_NE(before.find("\"b @1\""), std::string::npos);
  m.swap_levels(0);
  const std::string after = render();
  EXPECT_NE(after.find("\"a @1\""), std::string::npos);
  EXPECT_NE(after.find("\"b @0\""), std::string::npos);
}

TEST(OrderCertify, CertifiedTraceSurvivesForcedReorder) {
  const test::ScopedConfig certify_every_trace(test::certify_on);
  auto m = models::counter({.width = 4});
  core::Checker checker(*m);
  core::Explainer explainer(checker);
  const core::CheckOutcome outcome = explainer.check("AG !max");
  ASSERT_EQ(outcome.verdict, core::Verdict::kFalse);
  ASSERT_TRUE(outcome.trace.has_value());
  const certify::Certificate cert =
      certify::certify_order_independence(*m, *outcome.trace);
  EXPECT_TRUE(cert.ok()) << cert.to_string();
}

}  // namespace
}  // namespace symcex
