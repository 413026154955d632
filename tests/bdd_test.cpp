// Unit and property tests for the BDD package.

#include <algorithm>
#include <functional>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "order/order.hpp"

namespace symcex::bdd {
namespace {

class BddTest : public ::testing::Test {
 protected:
  Manager m{8};
};

TEST_F(BddTest, ConstantsAreDistinctAndIdempotent) {
  EXPECT_TRUE(m.one().is_true());
  EXPECT_TRUE(m.zero().is_false());
  EXPECT_NE(m.one(), m.zero());
  EXPECT_EQ(m.one(), m.one());
  EXPECT_TRUE(m.one().is_constant());
  EXPECT_FALSE(m.var(0).is_constant());
}

TEST_F(BddTest, NullHandleBehaviour) {
  Bdd null;
  EXPECT_TRUE(null.is_null());
  EXPECT_FALSE(null.is_true());
  EXPECT_FALSE(null.is_false());
  EXPECT_EQ(null.manager(), nullptr);
  EXPECT_THROW((void)(!null), std::logic_error);
  EXPECT_THROW((void)(null & null), std::logic_error);
  Bdd copy = null;  // copying null is fine
  EXPECT_TRUE(copy.is_null());
}

TEST_F(BddTest, BasicBooleanIdentities) {
  const Bdd a = m.var(0);
  const Bdd b = m.var(1);
  EXPECT_EQ(a & b, b & a);
  EXPECT_EQ(a | b, b | a);
  EXPECT_EQ(a ^ a, m.zero());
  EXPECT_EQ(a ^ !a, m.one());
  EXPECT_EQ(a & !a, m.zero());
  EXPECT_EQ(a | !a, m.one());
  EXPECT_EQ(!(!a), a);
  EXPECT_EQ(a & m.one(), a);
  EXPECT_EQ(a & m.zero(), m.zero());
  EXPECT_EQ(a | m.zero(), a);
  EXPECT_EQ(a - a, m.zero());
  EXPECT_EQ((a & b) | (a & !b), a);  // Shannon expansion collapses
}

TEST_F(BddTest, CanonicityMeansStructuralEquality) {
  const Bdd a = m.var(0);
  const Bdd b = m.var(1);
  const Bdd c = m.var(2);
  EXPECT_EQ((a & b) & c, a & (b & c));
  EXPECT_EQ(!(a & b), !a | !b);                 // De Morgan
  EXPECT_EQ(a ^ b, (a & !b) | (!a & b));        // xor definition
  EXPECT_EQ(m.ite(a, b, c), (a & b) | (!a & c));  // ite definition
}

TEST_F(BddTest, IteSpecialCases) {
  const Bdd a = m.var(0);
  const Bdd b = m.var(1);
  EXPECT_EQ(m.ite(m.one(), a, b), a);
  EXPECT_EQ(m.ite(m.zero(), a, b), b);
  EXPECT_EQ(m.ite(a, m.one(), m.zero()), a);
  EXPECT_EQ(m.ite(a, m.zero(), m.one()), !a);
  EXPECT_EQ(m.ite(a, b, b), b);
}

TEST_F(BddTest, MixedManagerOperandsThrow) {
  Manager other(4);
  EXPECT_THROW((void)(m.var(0) & other.var(0)), std::invalid_argument);
  EXPECT_THROW((void)m.ite(m.var(0), other.var(1), m.one()),
               std::invalid_argument);
}

TEST_F(BddTest, EvalMatchesConstruction) {
  const Bdd f = (m.var(0) & m.var(1)) | m.var(2);
  EXPECT_TRUE(f.eval({true, true, false, false, false, false, false, false}));
  EXPECT_TRUE(f.eval({false, false, true, false, false, false, false, false}));
  EXPECT_FALSE(
      f.eval({true, false, false, false, false, false, false, false}));
  EXPECT_THROW((void)f.eval({true}), std::invalid_argument);
}

TEST_F(BddTest, ExistsAndForall) {
  const Bdd a = m.var(0);
  const Bdd b = m.var(1);
  const Bdd f = a & b;
  EXPECT_EQ(f.exists(m.cube({0})), b);
  EXPECT_EQ(f.exists(m.cube({0, 1})), m.one());
  EXPECT_EQ(f.forall(m.cube({0})), m.zero());
  EXPECT_EQ((a | b).forall(m.cube({0})), b);
  // Quantifying a variable not in the support is the identity.
  EXPECT_EQ(f.exists(m.cube({5})), f);
  // exists distributes over disjunction.
  const Bdd g = m.var(2) & a;
  EXPECT_EQ((f | g).exists(m.cube({0})), f.exists(m.cube({0})) |
                                            g.exists(m.cube({0})));
}

TEST_F(BddTest, AndExistsEqualsConjoinThenQuantify) {
  std::mt19937 rng(7);
  for (int round = 0; round < 50; ++round) {
    // Random functions over 6 variables.
    auto random_fn = [&] {
      Bdd f = m.zero();
      for (int i = 0; i < 4; ++i) {
        Bdd cube = m.one();
        for (std::uint32_t v = 0; v < 6; ++v) {
          const auto choice = rng() % 3;
          if (choice == 0) cube &= m.var(v);
          if (choice == 1) cube &= m.nvar(v);
        }
        f |= cube;
      }
      return f;
    };
    const Bdd f = random_fn();
    const Bdd g = random_fn();
    std::vector<std::uint32_t> qvars;
    for (std::uint32_t v = 0; v < 6; ++v) {
      if (rng() % 2 == 0) qvars.push_back(v);
    }
    const Bdd cube = m.cube(qvars);
    EXPECT_EQ(m.and_exists(f, g, cube), (f & g).exists(cube));
  }
}

TEST_F(BddTest, RestrictIsCofactor) {
  const Bdd a = m.var(0);
  const Bdd b = m.var(1);
  const Bdd f = (a & b) | (!a & !b);
  EXPECT_EQ(f.restrict_var(0, true), b);
  EXPECT_EQ(f.restrict_var(0, false), !b);
  EXPECT_EQ(f.restrict_var(5, true), f);  // not in support
  // Shannon: f == (x & f|x=1) | (!x & f|x=0)
  EXPECT_EQ(f, (a & f.restrict_var(0, true)) | (!a & f.restrict_var(0, false)));
}

TEST_F(BddTest, SupportAndDagSize) {
  const Bdd f = (m.var(0) & m.var(3)) | m.var(5);
  EXPECT_EQ(f.support(), (std::vector<std::uint32_t>{0, 3, 5}));
  EXPECT_TRUE(m.one().support().empty());
  EXPECT_EQ(m.one().dag_size(), 1u);
  EXPECT_EQ(m.var(0).dag_size(), 3u);  // node + two terminals
}

TEST_F(BddTest, SatCount) {
  EXPECT_EQ(m.one().sat_count(3), 8.0);
  EXPECT_EQ(m.zero().sat_count(3), 0.0);
  EXPECT_EQ(m.var(0).sat_count(3), 4.0);
  EXPECT_EQ((m.var(0) & m.var(1)).sat_count(3), 2.0);
  EXPECT_EQ((m.var(0) | m.var(1)).sat_count(2), 3.0);
}

TEST_F(BddTest, CubeAndMinterm) {
  const Bdd c = m.cube({1, 3});
  EXPECT_EQ(c, m.var(1) & m.var(3));
  const Bdd mt = m.minterm({0, 1, 2}, {true, false, true});
  EXPECT_EQ(mt, m.var(0) & !m.var(1) & m.var(2));
  EXPECT_THROW((void)m.minterm({0}, {true, false}), std::invalid_argument);
  EXPECT_THROW((void)m.cube({99}), std::invalid_argument);
}

TEST_F(BddTest, PickOneMintermSatisfiesFunction) {
  std::mt19937 rng(11);
  const std::vector<std::uint32_t> vars{0, 1, 2, 3, 4, 5};
  for (int round = 0; round < 40; ++round) {
    Bdd f = m.zero();
    for (int i = 0; i < 3; ++i) {
      Bdd cube = m.one();
      for (const std::uint32_t v : vars) {
        const auto choice = rng() % 3;
        if (choice == 0) cube &= m.var(v);
        if (choice == 1) cube &= m.nvar(v);
      }
      f |= cube;
    }
    if (f.is_false()) continue;
    const Bdd pick = m.pick_one_minterm(f, vars);
    EXPECT_TRUE(pick.implies(f));
    EXPECT_EQ(pick.sat_count(6), 1.0);
    const std::vector<bool> assignment = m.pick_one_assignment(f, vars);
    EXPECT_TRUE(f.eval({assignment[0], assignment[1], assignment[2],
                        assignment[3], assignment[4], assignment[5],
                        false, false}));
  }
  EXPECT_THROW((void)m.pick_one_minterm(m.zero(), vars),
               std::invalid_argument);
}

TEST_F(BddTest, PickIsDeterministic) {
  const Bdd f = m.var(0) | m.var(2);
  const std::vector<std::uint32_t> vars{0, 1, 2};
  EXPECT_EQ(m.pick_one_minterm(f, vars), m.pick_one_minterm(f, vars));
}

TEST_F(BddTest, ImplicationAndIntersection) {
  const Bdd a = m.var(0);
  const Bdd b = m.var(1);
  EXPECT_TRUE((a & b).implies(a));
  EXPECT_FALSE(a.implies(a & b));
  EXPECT_TRUE(a.intersects(a | b));
  EXPECT_FALSE(a.intersects(!a));
  EXPECT_TRUE((a & b).is_subset_of(a | b));
}

TEST_F(BddTest, ImpliesAndIntersectsAgreeWithTheBuiltFunctions) {
  std::mt19937 rng(31);
  const auto random_fn = [&] {
    Bdd f = m.zero();
    const int terms = 1 + static_cast<int>(rng() % 4);
    for (int i = 0; i < terms; ++i) {
      Bdd cube = m.one();
      for (std::uint32_t v = 0; v < 8; ++v) {
        const auto choice = rng() % 3;
        if (choice == 0) cube &= m.var(v);
        if (choice == 1) cube &= m.nvar(v);
      }
      f |= cube;
    }
    return f;
  };
  std::vector<Bdd> fns{m.zero(), m.one()};
  for (int i = 0; i < 40; ++i) fns.push_back(random_fn());
  // Nested pairs, so that implication holds in a good share of the cases.
  for (int i = 0; i < 20; ++i) fns.push_back(fns[2 + i] | fns[3 + i]);
  std::size_t implied = 0;
  for (const Bdd& f : fns) {
    for (const Bdd& g : fns) {
      const bool expect_implies = (f - g).is_false();
      const bool expect_intersects = !(f & g).is_false();
      // The decisions read the diagram only: no node, found or built.
      const ManagerStats before = m.stats();
      EXPECT_EQ(f.implies(g), expect_implies);
      EXPECT_EQ(f.intersects(g), expect_intersects);
      EXPECT_EQ(m.stats().unique_hits, before.unique_hits);
      EXPECT_EQ(m.stats().unique_misses, before.unique_misses);
      implied += expect_implies ? 1 : 0;
    }
  }
  EXPECT_GT(implied, fns.size());  // more than the reflexive pairs
}

TEST_F(BddTest, GarbageCollectionReclaimsDeadNodes) {
  ManagerOptions options;
  options.disable_auto_gc = true;
  Manager local(16, options);
  const std::size_t baseline = local.stats().live_nodes;
  {
    Bdd junk = local.one();
    for (std::uint32_t v = 0; v < 16; ++v) {
      junk &= (v % 2 == 0) ? local.var(v) : !local.var(v);
    }
    EXPECT_GT(local.stats().live_nodes, baseline);
    local.gc();
    // junk is still referenced by the handle, so nothing was lost.
    EXPECT_TRUE(junk.eval(std::vector<bool>{
        true, false, true, false, true, false, true, false, true, false,
        true, false, true, false, true, false}));
  }
  local.gc();
  EXPECT_EQ(local.stats().live_nodes, baseline);
  EXPECT_GE(local.stats().gc_runs, 2u);
}

TEST_F(BddTest, GcPreservesLiveFunctions) {
  ManagerOptions options;
  options.disable_auto_gc = true;
  Manager local(8, options);
  const Bdd keep = (local.var(0) & local.var(1)) | local.var(7);
  {
    Bdd junk = local.var(2) ^ local.var(3) ^ local.var(4);
    (void)junk;
  }
  local.gc();
  // The kept function is intact and new operations still work.
  EXPECT_EQ(keep.restrict_var(7, false), local.var(0) & local.var(1));
  EXPECT_EQ((keep & !local.var(7)).exists(local.cube({0, 1})), !local.var(7));
}

TEST_F(BddTest, AutoGcKeepsRunningWorkloadsCorrect) {
  ManagerOptions options;
  options.gc_threshold = 512;  // force frequent collections
  Manager local(20, options);
  // A workload with heavy garbage: repeated re-derivation must stay
  // canonical across collections.
  Bdd acc = local.zero();
  for (int round = 0; round < 200; ++round) {
    Bdd term = local.one();
    for (std::uint32_t v = 0; v < 20; ++v) {
      term &= ((round >> (v % 8)) & 1) != 0 ? local.var(v) : !local.var(v);
    }
    acc |= term;
  }
  EXPECT_EQ(acc.sat_count(20), 200.0);
  EXPECT_GE(local.stats().gc_runs, 1u);
}

TEST_F(BddTest, DotExportMentionsAllNodes) {
  const Bdd f = m.var(0) & !m.var(1);
  std::ostringstream os;
  m.dump_dot(os, {f}, {"a", "b"});
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  // Node labels carry the variable's current level ("name @level").
  EXPECT_NE(dot.find("\"a @0\""), std::string::npos);
  EXPECT_NE(dot.find("\"b @1\""), std::string::npos);
}

TEST_F(BddTest, DotExportEscapesHostileNames) {
  // Quotes, backslashes and newlines in a variable name must not be able
  // to break out of the DOT label attribute.
  const Bdd f = m.var(0) & m.var(1);
  std::ostringstream os;
  m.dump_dot(os, {f}, {"say \"hi\"", "back\\slash\nnewline\rcr"});
  const std::string dot = os.str();
  EXPECT_NE(dot.find("say \\\"hi\\\""), std::string::npos);
  EXPECT_NE(dot.find("back\\\\slash\\nnewline"), std::string::npos);
  // No raw newline, carriage return, or unescaped quote survives inside a
  // label: every line with a label is a complete  n [label="..."];  stmt.
  EXPECT_EQ(dot.find("say \"hi\""), std::string::npos);
  std::istringstream lines(dot);
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.find('\r'), std::string::npos) << line;
    const std::size_t label = line.find("label=\"");
    if (label == std::string::npos) continue;
    EXPECT_NE(line.find("\"];", label), std::string::npos) << line;
  }

  // dot_escape drops bare carriage returns outright.
  EXPECT_EQ(dot_escape("a\"b\\c\nd\re"), "a\\\"b\\\\c\\nde");
}

TEST_F(BddTest, NewVarExtendsTheOrder) {
  Manager local(0);
  EXPECT_EQ(local.num_vars(), 0u);
  const std::uint32_t v0 = local.new_var();
  const std::uint32_t v1 = local.new_var();
  EXPECT_EQ(v0, 0u);
  EXPECT_EQ(v1, 1u);
  EXPECT_THROW((void)local.var(2), std::invalid_argument);
  EXPECT_EQ((local.var(0) & local.var(1)).support().size(), 2u);
}

TEST(BddStressTest, TinyComputedCacheStaysCorrect) {
  // A 16-slot cache forces constant evictions and collisions; results must
  // be identical to a generously cached manager.
  ManagerOptions tiny;
  tiny.cache_log2_size = 4;
  Manager small(10, tiny);
  Manager big(10);
  std::mt19937 rng(5);
  auto build = [&](Manager& m) {
    std::vector<Bdd> pool;
    for (std::uint32_t v = 0; v < 10; ++v) pool.push_back(m.var(v));
    std::mt19937 local(99);
    Bdd acc = m.zero();
    for (int step = 0; step < 200; ++step) {
      const Bdd& a = pool[local() % pool.size()];
      const Bdd& b = pool[local() % pool.size()];
      switch (local() % 4) {
        case 0:
          pool.push_back(a & b);
          break;
        case 1:
          pool.push_back(a | b);
          break;
        case 2:
          pool.push_back(a ^ b);
          break;
        default:
          pool.push_back(m.ite(a, b, acc));
          break;
      }
      acc ^= pool.back();
    }
    return acc;
  };
  (void)rng;
  const Bdd from_small = build(small);
  const Bdd from_big = build(big);
  // Different managers: compare semantically.
  for (unsigned a = 0; a < (1u << 10); a += 7) {
    std::vector<bool> assignment(10);
    for (std::uint32_t v = 0; v < 10; ++v) {
      assignment[v] = ((a >> v) & 1) != 0;
    }
    EXPECT_EQ(from_small.eval(assignment), from_big.eval(assignment))
        << "assignment " << a;
  }
  EXPECT_EQ(from_small.sat_count(10), from_big.sat_count(10));
}

TEST(BddCacheGrowthTest, FreshManagerIsSmall) {
  // The computed cache starts at 2^12 slots, not at its 2^18 ceiling.
  for (const std::uint32_t vars : {0u, 8u, 64u}) {
    const Manager fresh(vars);
    EXPECT_LT(fresh.memory_bytes(), std::size_t{256} << 10) << vars;
    EXPECT_EQ(fresh.stats().cache_growths, 0u);
  }
}

/// x_i <-> y_i for i < pairs, with every x above every y: the conjunction
/// must remember all x values, so its BDD has about 3 * 2^pairs nodes and
/// the and-kernels that build it push live nodes past each cache size.
/// `after_op` runs after every top-level operation.
Bdd separated_equality(Manager& m, std::uint32_t pairs,
                       const std::function<void()>& after_op = [] {}) {
  Bdd acc = m.one();
  for (std::uint32_t i = 0; i < pairs; ++i) {
    acc &= !(m.var(i) ^ m.var(pairs + i));
    after_op();
  }
  return acc;
}

TEST(BddCacheGrowthTest, GrowsThroughEveryDoublingAndStaysCorrect) {
  constexpr std::uint32_t kPairs = 16;
  ManagerOptions tiny;
  tiny.cache_log2_size = 4;
  Manager capped(2 * kPairs, tiny);
  Manager grown(2 * kPairs);
  // The test needs the deliberately bad order and all of its nodes,
  // whatever SYMCEX_REORDER or SYMCEX_NODE_LIMIT say.
  for (Manager* m : {&capped, &grown}) {
    m->set_auto_reorder(false);
    m->clear_budget();
  }
  std::size_t growths_seen = 0;
  const Bdd from_grown = separated_equality(grown, kPairs, [&] {
    if (grown.stats().cache_growths == growths_seen) return;
    growths_seen = grown.stats().cache_growths;
    EXPECT_EQ(grown.audit_check(), "") << "after growth " << growths_seen;
  });
  const Bdd from_capped = separated_equality(capped, kPairs);
  // 2^12 -> 2^18: six doublings, each inside a conjunction's kernel.
  EXPECT_EQ(grown.stats().cache_growths, 6u);
  EXPECT_EQ(capped.stats().cache_growths, 0u);
  EXPECT_EQ(grown.stats().alloc_failures, 0u);
  // Same order, canonical ROBDDs: equal functions have equal DAGs.
  EXPECT_EQ(from_grown.dag_size(), from_capped.dag_size());
  EXPECT_EQ(from_grown.sat_count(2 * kPairs), from_capped.sat_count(2 * kPairs));
  std::mt19937 rng(17);
  for (int round = 0; round < 200; ++round) {
    std::vector<bool> a(2 * kPairs);
    for (std::uint32_t v = 0; v < kPairs; ++v) {
      a[v] = (rng() & 1) != 0;
      // Mostly equal pairs, so both outcomes are sampled.
      a[kPairs + v] = (rng() % 64 == 0) ? !a[v] : a[v];
    }
    EXPECT_EQ(from_grown.eval(a), from_capped.eval(a)) << "round " << round;
  }
  EXPECT_EQ(capped.audit_check(), "");
}

TEST_F(BddTest, ConstrainAgreesOnTheCareSet) {
  std::mt19937 rng(21);
  for (int round = 0; round < 40; ++round) {
    auto random_fn = [&] {
      Bdd f = m.zero();
      for (int i = 0; i < 3; ++i) {
        Bdd cube = m.one();
        for (std::uint32_t v = 0; v < 6; ++v) {
          const auto choice = rng() % 3;
          if (choice == 0) cube &= m.var(v);
          if (choice == 1) cube &= m.nvar(v);
        }
        f |= cube;
      }
      return f;
    };
    const Bdd f = random_fn();
    Bdd c = random_fn();
    if (c.is_false()) c = m.one();
    // The defining property of the generalized cofactor.
    EXPECT_EQ(f.constrain(c) & c, f & c);
    EXPECT_EQ(f.minimize(c) & c, f & c);
    // minimize never enlarges the support.
    const auto fs = f.support();
    for (const std::uint32_t v : f.minimize(c).support()) {
      EXPECT_TRUE(std::find(fs.begin(), fs.end(), v) != fs.end());
    }
  }
}

TEST_F(BddTest, ConstrainSpecialCases) {
  const Bdd a = m.var(0);
  const Bdd b = m.var(1);
  EXPECT_EQ((a & b).constrain(a), b);  // cofactor by a literal
  EXPECT_EQ(a.constrain(m.one()), a);
  EXPECT_EQ(a.constrain(a), m.one());
  EXPECT_THROW((void)a.constrain(m.zero()), std::invalid_argument);
  EXPECT_THROW((void)a.minimize(m.zero()), std::invalid_argument);
}

TEST_F(BddTest, MinimizeShrinksSetsModuloCare) {
  // A set equal to "care" everywhere on care minimizes to something simple.
  const Bdd care = m.var(0) & m.var(1);
  const Bdd messy = (m.var(0) & m.var(1) & m.var(2)) |
                    (m.var(0) & m.var(1) & !m.var(2) & m.var(3));
  const Bdd mini = messy.minimize(care | (!m.var(0) & m.var(4)));
  EXPECT_EQ(mini & care, messy & care);
  EXPECT_LE(mini.dag_size(), messy.dag_size());
}

TEST_F(BddTest, ComposeSubstitutes) {
  const Bdd a = m.var(0);
  const Bdd b = m.var(1);
  const Bdd c = m.var(2);
  const Bdd f = a ^ b;
  // Substitute b := (a & c):   f[b := a&c] = a ^ (a & c) = a & !c ... check
  EXPECT_EQ(f.compose(1, a & c), a ^ (a & c));
  // Substituting a variable not in the support is the identity.
  EXPECT_EQ(f.compose(5, c), f);
  // Shannon: f == ite(x, f|x=1, f|x=0) via compose with constants.
  EXPECT_EQ(f.compose(0, m.one()), f.restrict_var(0, true));
  EXPECT_EQ(f.compose(0, m.zero()), f.restrict_var(0, false));
  // Composition may introduce variables ABOVE the substituted one.
  const Bdd g = m.var(4).compose(4, a | b);
  EXPECT_EQ(g, a | b);
}

// ---------------------------------------------------------------------------
// Relational products over interleaved rails (rel_next / rel_prev)
// ---------------------------------------------------------------------------

/// Five (2v, 2v+1) pairs, each a reorder group, laid out like a transition
/// system's current/next rails.  The references move between the rails
/// with compose, so they share no code with the kernels under test.
class RelKernelTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kPairs = 5;

  RelKernelTest() {
    for (std::uint32_t v = 0; v < kPairs; ++v) {
      m.group_vars({2 * v, 2 * v + 1});
    }
  }

  /// A random DNF over `vars`.
  Bdd random_over(const std::vector<std::uint32_t>& vars) {
    Bdd f = m.zero();
    const unsigned terms = 1 + rng() % 4;
    for (unsigned t = 0; t < terms; ++t) {
      Bdd cube = m.one();
      for (const std::uint32_t v : vars) {
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

  /// A random subset of rail `parity` (0 current, 1 next), or all of it.
  std::vector<std::uint32_t> rail(std::uint32_t parity, bool all) {
    std::vector<std::uint32_t> out;
    for (std::uint32_t v = 0; v < kPairs; ++v) {
      if (all || rng() % 2 == 0) out.push_back(2 * v + parity);
    }
    return out;
  }

  static std::vector<std::uint32_t> join(std::vector<std::uint32_t> a,
                                         const std::vector<std::uint32_t>& b) {
    a.insert(a.end(), b.begin(), b.end());
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    return a;
  }

  /// f with every rail-`parity` variable x replaced by its twin x ^ 1.
  Bdd to_twin(Bdd f, std::uint32_t parity) {
    for (std::uint32_t v = 0; v < kPairs; ++v) {
      const std::uint32_t x = 2 * v + parity;
      f = f.compose(x, m.var(x ^ 1u));
    }
    return f;
  }

  /// Both kernels against their reference compositions under the
  /// manager's current order.  Even rounds quantify a whole rail (the
  /// monolithic sweeps); odd rounds use partial cubes, as the last image
  /// cluster and the first preimage cluster of a partitioned sweep do.
  void check_kernels(int rounds) {
    for (int round = 0; round < rounds; ++round) {
      const bool whole = round % 2 == 0;
      // Image: f carries next-rail variables of earlier clusters and the
      // current variables `a` not yet quantified; g reads current `b`.
      const std::vector<std::uint32_t> a = rail(0, false);
      const std::vector<std::uint32_t> b = rail(0, false);
      const Bdd f = random_over(join(a, rail(1, false)));
      const Bdd g = random_over(join(b, rail(1, false)));
      const Bdd cube = m.cube(whole ? rail(0, true) : join(a, b));
      EXPECT_EQ(m.rel_next(f, g, cube), to_twin(m.and_exists(f, g, cube), 1))
          << "round " << round;
      // Preimage: s over the current rail, t over both rails.
      const Bdd s = random_over(rail(0, false));
      const Bdd t = random_over(join(rail(0, false), rail(1, false)));
      const Bdd next_cube = m.cube(rail(1, whole));
      EXPECT_EQ(m.rel_prev(s, t, next_cube),
                m.and_exists(to_twin(s, 0), t, next_cube))
          << "round " << round;
    }
    // The rail moves themselves: unprime and prime.
    const Bdd on_next = random_over(rail(1, true));
    EXPECT_EQ(m.rel_next(on_next, m.one(), m.one()), to_twin(on_next, 1));
    const Bdd on_cur = random_over(rail(0, true));
    EXPECT_EQ(m.rel_prev(on_cur, m.one(), m.one()), to_twin(on_cur, 0));
  }

  std::mt19937 rng{7};
  Manager m{2 * kPairs};
};

TEST_F(RelKernelTest, MatchTheReferenceUnderTheIdentityOrder) {
  ASSERT_TRUE(m.identity_order());
  check_kernels(200);
}

TEST_F(RelKernelTest, MatchTheReferenceAfterSifting) {
  // Move pair 0 below pair 1 as a block, then sift with live functions to
  // weigh, so the kernels run on an order reordering produced.
  std::vector<Bdd> live;
  for (int i = 0; i < 16; ++i) {
    live.push_back(random_over(join(rail(0, true), rail(1, true))));
  }
  m.reorder_session_begin();
  for (const std::uint32_t lvl : {1u, 0u, 2u, 1u}) m.swap_levels(lvl);
  m.reorder_session_end();
  (void)order::sift(m);
  ASSERT_FALSE(m.identity_order());
  for (std::uint32_t v = 0; v < kPairs; ++v) {
    ASSERT_EQ(m.level_of_var(2 * v) + 1, m.level_of_var(2 * v + 1));
  }
  check_kernels(200);
  EXPECT_EQ(m.audit_check(), "");
}

TEST_F(RelKernelTest, MatchTheReferenceWithNextAboveCurrent) {
  // Swap inside every pair: the group stays contiguous, but each next
  // variable now sits directly above its current twin.
  for (std::uint32_t v = 0; v < kPairs; ++v) {
    m.swap_levels(m.level_of_var(2 * v));
    ASSERT_EQ(m.level_of_var(2 * v + 1) + 1, m.level_of_var(2 * v));
  }
  check_kernels(200);
  EXPECT_EQ(m.audit_check(), "");
}

TEST_F(RelKernelTest, AuditAcceptsTheirCacheEntries) {
  // A fused sweep fills the computed cache with rel_next / rel_prev
  // entries; the audit must know their ops and check their cube operand.
  check_kernels(40);
  EXPECT_EQ(m.audit_check(), "");
  EXPECT_NO_THROW(m.audit());
}

TEST_F(RelKernelTest, ContractViolationsThrowAndLeaveTheManagerClean) {
  // Both variables of pair 0 survive: the result would need 0 twice.
  const Bdd both = m.var(0) & m.var(1);
  EXPECT_THROW((void)m.rel_next(both, m.one(), m.one()),
               std::invalid_argument);
  EXPECT_THROW((void)m.rel_prev(both, m.one(), m.one()),
               std::invalid_argument);
  // Quantifying one of them first is fine.
  EXPECT_EQ(m.rel_next(both, m.one(), m.cube({0})), m.var(0));
  EXPECT_EQ(m.audit_check(), "");
  m.gc();
  EXPECT_EQ(m.audit_check(), "");

  // A pair split across levels: the kernel throws rather than build a
  // misordered DAG.
  Manager split(4);
  split.swap_levels(1);  // order 0, 2, 1, 3
  EXPECT_THROW((void)split.rel_next(split.var(1) & split.var(2), split.one(),
                                    split.one()),
               std::invalid_argument);
  EXPECT_EQ(split.audit_check(), "");

  // A variable without a twin cannot be read on the other rail.
  Manager odd(3);
  EXPECT_THROW((void)odd.rel_prev(odd.var(2), odd.one(), odd.one()),
               std::invalid_argument);
  EXPECT_EQ(odd.audit_check(), "");
}

TEST_F(RelKernelTest, CountedAsTheirOwnApplyOps) {
  EXPECT_STREQ(apply_op_name(ApplyOp::kRelNext), "rel_next");
  EXPECT_STREQ(apply_op_name(ApplyOp::kRelPrev), "rel_prev");
  const ManagerStats before = m.stats();
  (void)m.rel_next(m.var(1), m.var(0), m.cube({0}));
  (void)m.rel_prev(m.var(0), m.var(1), m.cube({1}));
  (void)m.rel_prev(m.var(2), m.var(3), m.cube({3}));
  EXPECT_EQ(m.stats().apply(ApplyOp::kRelNext),
            before.apply(ApplyOp::kRelNext) + 1);
  EXPECT_EQ(m.stats().apply(ApplyOp::kRelPrev),
            before.apply(ApplyOp::kRelPrev) + 2);
  EXPECT_EQ(m.stats().apply(ApplyOp::kAndExists),
            before.apply(ApplyOp::kAndExists));
}

// ---------------------------------------------------------------------------
// Property test: random expression DAGs agree with brute-force evaluation.
// ---------------------------------------------------------------------------

class BddRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(BddRandomProperty, AgreesWithTruthTable) {
  constexpr std::uint32_t kVars = 5;
  std::mt19937 rng(GetParam());
  Manager m(kVars);

  // Build a random expression tree and, in parallel, a closure evaluating
  // the same expression directly on assignments.
  struct Node {
    Bdd f;
    std::function<bool(unsigned)> eval;
  };
  std::vector<Node> pool;
  for (std::uint32_t v = 0; v < kVars; ++v) {
    pool.push_back({m.var(v), [v](unsigned a) { return ((a >> v) & 1) != 0; }});
  }
  for (int step = 0; step < 30; ++step) {
    const Node a = pool[rng() % pool.size()];
    const Node b = pool[rng() % pool.size()];
    switch (rng() % 5) {
      case 0:
        pool.push_back({a.f & b.f, [a, b](unsigned x) {
                          return a.eval(x) && b.eval(x);
                        }});
        break;
      case 1:
        pool.push_back({a.f | b.f, [a, b](unsigned x) {
                          return a.eval(x) || b.eval(x);
                        }});
        break;
      case 2:
        pool.push_back({a.f ^ b.f, [a, b](unsigned x) {
                          return a.eval(x) != b.eval(x);
                        }});
        break;
      case 3:
        pool.push_back({!a.f, [a](unsigned x) { return !a.eval(x); }});
        break;
      default: {
        const Node c = pool[rng() % pool.size()];
        pool.push_back({m.ite(a.f, b.f, c.f), [a, b, c](unsigned x) {
                          return a.eval(x) ? b.eval(x) : c.eval(x);
                        }});
        break;
      }
    }
  }
  const Node& last = pool.back();
  double expected_count = 0;
  for (unsigned a = 0; a < (1u << kVars); ++a) {
    std::vector<bool> assignment(kVars);
    for (std::uint32_t v = 0; v < kVars; ++v) {
      assignment[v] = ((a >> v) & 1) != 0;
    }
    const bool want = last.eval(a);
    EXPECT_EQ(last.f.eval(assignment), want) << "assignment " << a;
    if (want) ++expected_count;
  }
  EXPECT_EQ(last.f.sat_count(kVars), expected_count);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomProperty, ::testing::Range(0, 20));

}  // namespace
}  // namespace symcex::bdd
