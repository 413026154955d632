// Tests for the symbolic transition-system layer.

#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "analyze/analyze.hpp"
#include "ts/field.hpp"
#include "ts/transition_system.hpp"

namespace symcex::ts {
namespace {

/// A 3-bit counter fixture with a conjunctively partitioned relation.
class CounterTs : public ::testing::Test {
 protected:
  void SetUp() override {
    b_ = m_.add_vector("b", 3);
    m_.set_init(!m_.cur(b_[0]) & !m_.cur(b_[1]) & !m_.cur(b_[2]));
    bdd::Bdd carry = m_.manager().one();
    for (const VarId v : b_) {
      m_.add_trans(!(m_.next(v) ^ (m_.cur(v) ^ carry)));
      carry &= m_.cur(v);
    }
    m_.add_label("zero", !m_.cur(b_[0]) & !m_.cur(b_[1]) & !m_.cur(b_[2]));
    m_.finalize();
  }

  bdd::Bdd state(unsigned value) {
    return m_.manager().minterm(
        {0, 2, 4}, {(value & 1) != 0, (value & 2) != 0, (value & 4) != 0});
  }

  TransitionSystem m_;
  std::vector<VarId> b_;
};

TEST_F(CounterTs, VariableBookkeeping) {
  EXPECT_EQ(m_.num_state_vars(), 3u);
  EXPECT_EQ(m_.var_name(0), "b.0");
  EXPECT_EQ(m_.find_var("b.2"), VarId{2});
  EXPECT_EQ(m_.find_var("nope"), std::nullopt);
  EXPECT_THROW((void)m_.var_name(9), std::invalid_argument);
  EXPECT_THROW((void)m_.cur(9), std::invalid_argument);
}

TEST_F(CounterTs, ConstructionafterFinalizeThrows) {
  EXPECT_THROW(m_.add_var("late"), std::logic_error);
  EXPECT_THROW(m_.set_init(m_.manager().one()), std::logic_error);
  EXPECT_THROW(m_.add_trans(m_.manager().one()), std::logic_error);
  EXPECT_THROW(m_.add_fairness(m_.manager().one()), std::logic_error);
  EXPECT_THROW(m_.add_label("x", m_.manager().one()), std::logic_error);
}

TEST_F(CounterTs, ImageStepsTheCounter) {
  for (unsigned v = 0; v < 8; ++v) {
    const bdd::Bdd img = m_.image(state(v));
    EXPECT_EQ(img, state((v + 1) % 8)) << "from " << v;
  }
}

TEST_F(CounterTs, PreimageInvertsImage) {
  for (unsigned v = 0; v < 8; ++v) {
    EXPECT_EQ(m_.preimage(state((v + 1) % 8)), state(v));
  }
}

TEST_F(CounterTs, PartitionedAgreesWithMonolithic) {
  std::mt19937 rng(3);
  for (int round = 0; round < 30; ++round) {
    bdd::Bdd set = m_.manager().zero();
    for (unsigned v = 0; v < 8; ++v) {
      if (rng() % 2 == 0) set |= state(v);
    }
    EXPECT_EQ(m_.image(set, ImageMethod::kMonolithic),
              m_.image(set, ImageMethod::kPartitioned));
    EXPECT_EQ(m_.preimage(set, ImageMethod::kMonolithic),
              m_.preimage(set, ImageMethod::kPartitioned));
  }
}

TEST_F(CounterTs, ImageOfUnionIsUnionOfImages) {
  const bdd::Bdd a = state(1) | state(3);
  const bdd::Bdd b = state(6);
  EXPECT_EQ(m_.image(a | b), m_.image(a) | m_.image(b));
}

TEST_F(CounterTs, ReachabilityAndCounting) {
  EXPECT_EQ(m_.count_states(m_.reachable()), 8.0);
  EXPECT_EQ(m_.count_states(m_.init()), 1.0);
  EXPECT_EQ(m_.count_states(m_.manager().zero()), 0.0);
}

TEST_F(CounterTs, PrimeUnprimeRoundTrip) {
  const bdd::Bdd set = state(2) | state(5);
  EXPECT_EQ(m_.unprime(m_.prime(set)), set);
  // A primed set has only odd (next-rail) variables in its support.
  for (const std::uint32_t v : m_.prime(set).support()) {
    EXPECT_EQ(v % 2, 1u);
  }
}

TEST_F(CounterTs, PickStateAndValues) {
  const bdd::Bdd s = m_.pick_state(m_.reachable());
  EXPECT_EQ(m_.count_states(s), 1.0);
  const std::vector<bool> vals = m_.state_values(state(5));
  EXPECT_EQ(vals, (std::vector<bool>{true, false, true}));
  EXPECT_EQ(m_.state_string(state(5)), "b.0=1 b.1=0 b.2=1");
  EXPECT_EQ(m_.state_string(state(5), state(5)), "(unchanged)");
  EXPECT_EQ(m_.state_string(state(4), state(5)), "b.0=0");
}

TEST_F(CounterTs, TotalityCheck) {
  EXPECT_TRUE(m_.is_total_on(m_.reachable()));
}

TEST(TransitionSystemTest, DeadlockDetectedByTotality) {
  TransitionSystem m;
  const VarId x = m.add_var("x");
  m.set_init(!m.cur(x));
  // Once x is high there is no successor at all.
  m.add_trans(!m.cur(x) & m.next(x));
  m.finalize();
  EXPECT_FALSE(m.is_total_on(m.reachable()));
  EXPECT_TRUE(m.is_total_on(m.init()));
}

TEST(TransitionSystemTest, RequiresTransitionRelation) {
  TransitionSystem m;
  m.add_var("x");
  EXPECT_THROW(m.finalize(), std::logic_error);
}

TEST(TransitionSystemTest, FinalizeIsIdempotent) {
  TransitionSystem m;
  const VarId x = m.add_var("x");
  m.add_trans(!(m.next(x) ^ !m.cur(x)));
  m.finalize();
  m.finalize();
  EXPECT_TRUE(m.finalized());
}

TEST(TransitionSystemTest, DuplicateNamesRejected) {
  TransitionSystem m;
  m.add_var("x");
  EXPECT_THROW(m.add_var("x"), std::invalid_argument);
  EXPECT_THROW(m.add_var(""), std::invalid_argument);
  m.add_label("l", m.manager().one());
  EXPECT_THROW(m.add_label("l", m.manager().zero()), std::invalid_argument);
}

TEST(TransitionSystemTest, UseBeforeFinalizeThrows) {
  TransitionSystem m;
  const VarId x = m.add_var("x");
  m.add_trans(!(m.next(x) ^ !m.cur(x)));
  EXPECT_THROW((void)m.image(m.manager().one()), std::logic_error);
  EXPECT_THROW((void)m.reachable(), std::logic_error);
  EXPECT_THROW((void)m.trans(), std::logic_error);
}

TEST(TransitionSystemTest, FairnessAndLabelsStored) {
  TransitionSystem m;
  const VarId x = m.add_var("x");
  m.add_trans(m.manager().one());
  m.add_fairness(m.cur(x));
  m.add_fairness(!m.cur(x));
  m.add_label("high", m.cur(x));
  m.finalize();
  EXPECT_EQ(m.fairness().size(), 2u);
  EXPECT_EQ(*m.label("high"), m.cur(x));
  EXPECT_EQ(m.label("missing"), std::nullopt);
}

// -- Field helper -----------------------------------------------------------

TEST(FieldTest, EncodingRoundTrip) {
  TransitionSystem m;
  Field f(m, "v", 5);  // needs 3 bits
  EXPECT_EQ(f.vars().size(), 3u);
  m.add_trans(f.increment_mod() & f.valid(true));
  m.set_init(f.eq(0));
  m.finalize();
  for (std::uint32_t v = 0; v < 5; ++v) {
    const bdd::Bdd s = m.pick_state(f.eq(v));
    EXPECT_EQ(f.decode(m.state_values(s)), v);
    EXPECT_EQ(m.image(s), f.eq((v + 1) % 5));
  }
  EXPECT_EQ(m.count_states(m.reachable()), 5.0);
}

TEST(FieldTest, AmongAndUnchanged) {
  TransitionSystem m;
  Field f(m, "v", 4);
  m.add_trans(f.unchanged());
  m.set_init(f.eq(2));
  m.finalize();
  EXPECT_EQ(f.among({1, 2}), f.eq(1) | f.eq(2));
  EXPECT_EQ(m.image(f.eq(2)), f.eq(2));
  EXPECT_THROW((void)f.eq(9), std::invalid_argument);
}

TEST(FieldTest, PowerOfTwoDomainIsAlwaysValid) {
  TransitionSystem m;
  Field f(m, "v", 4);
  m.add_trans(m.manager().one());
  m.finalize();
  EXPECT_TRUE(f.valid(false).is_true());
}

TEST(StateGraphDot, RendersReachableGraph) {
  TransitionSystem m;
  const VarId x = m.add_var("x");
  m.set_init(!m.cur(x));
  m.add_trans(!(m.next(x) ^ !m.cur(x)));  // toggle
  m.finalize();
  std::ostringstream os;
  m.dump_state_graph(os, 16, {m.cur(x)});
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph states"), std::string::npos);
  EXPECT_NE(dot.find("x=0"), std::string::npos);
  EXPECT_NE(dot.find("x=1"), std::string::npos);
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);   // initial
  EXPECT_NE(dot.find("fillcolor=lightgrey"), std::string::npos);  // highlight
  EXPECT_NE(dot.find("s0 -> s1"), std::string::npos);
  EXPECT_NE(dot.find("s1 -> s0"), std::string::npos);
}

/// Image and preimage in every sweep mode -- monolithic or partitioned,
/// with or without a care set, on the full system or its cone-of-influence
/// reduction -- against the reference composition: conjoin, quantify with
/// exists, and move between the rails with compose.
TEST(TransitionSystemTest, SweepsMatchTheReferenceCompositionInEveryMode) {
  TransitionSystem m;
  m.set_cluster_threshold(0);  // one cluster per conjunct
  bdd::Manager& mgr = m.manager();
  // Bank a counts 0..5 and wraps; bank b counts while the free input e is
  // high.  A label on a seeds a cone that drops b and e.
  const std::vector<VarId> a = m.add_vector("a", 3);
  const std::vector<VarId> b = m.add_vector("b", 2);
  const VarId e = m.add_var("e");
  const auto value_is = [&](const std::vector<VarId>& bits, unsigned v) {
    bdd::Bdd s = mgr.one();
    for (std::size_t i = 0; i < bits.size(); ++i) {
      s &= ((v >> i) & 1) != 0 ? m.cur(bits[i]) : !m.cur(bits[i]);
    }
    return s;
  };
  bdd::Bdd init = !m.cur(e);
  for (const VarId v : a) init &= !m.cur(v);
  for (const VarId v : b) init &= !m.cur(v);
  m.set_init(init);
  for (std::size_t i = 0; i < a.size(); ++i) {
    bdd::Bdd bit = mgr.zero();
    for (unsigned v = 0; v < 8; ++v) {
      const unsigned succ = v >= 5 ? 0 : v + 1;
      if (((succ >> i) & 1) != 0) bit |= value_is(a, v);
    }
    m.add_trans(!(m.next(a[i]) ^ bit));
  }
  bdd::Bdd carry = m.cur(e);
  for (const VarId v : b) {
    m.add_trans(!(m.next(v) ^ (m.cur(v) ^ carry)));
    carry &= m.cur(v);
  }
  m.add_label("a_zero", value_is(a, 0));
  m.finalize();
  ASSERT_GT(m.trans_clusters().size(), 1u);

  const analyze::DepGraph graph = analyze::build_dep_graph(m);
  analyze::Cone cone =
      analyze::cone_of_influence(m, graph, {m.label("a_zero").value()});
  ASSERT_TRUE(cone.reduces());
  const analyze::Reduction red(m, std::move(cone), graph);

  const auto swap_rails = [&](bdd::Bdd f, std::uint32_t parity) {
    for (VarId v = 0; v < m.num_state_vars(); ++v) {
      const std::uint32_t x = 2 * v + parity;
      f = f.compose(x, mgr.var(x ^ 1u));
    }
    return f;
  };
  const auto image_ref = [&](const bdd::Bdd& s, const bdd::Bdd& rel) {
    return swap_rails((s & rel).exists(m.cur_cube()), 1);
  };
  const auto preimage_ref = [&](const bdd::Bdd& z, const bdd::Bdd& rel) {
    return (swap_rails(z, 0) & rel).exists(m.next_cube());
  };
  const auto care_for = [&](const bdd::Bdd& reach, const bdd::Bdd& rel,
                            const std::vector<bdd::Bdd>& clusters) {
    DontCare care{reach, rel.minimize(reach), {}};
    for (const bdd::Bdd& c : clusters) care.clusters.push_back(c.minimize(reach));
    return care;
  };
  const DontCare full_care =
      care_for(m.reachable(), m.trans(), m.trans_clusters());
  const DontCare cone_care =
      care_for(red.reachable(), red.trans(), red.clusters());
  ASSERT_NE(full_care.set, mgr.one());
  ASSERT_NE(cone_care.set, mgr.one());

  std::mt19937 rng(11);
  for (int round = 0; round < 12; ++round) {
    for (const bool coi : {false, true}) {
      const bdd::Bdd& reach = coi ? red.reachable() : m.reachable();
      const bdd::Bdd& rel = coi ? red.trans() : m.trans();
      // Image operands stay inside the care set (the DontCare contract);
      // preimage operands are arbitrary current-rail sets.
      bdd::Bdd s = mgr.zero();
      bdd::Bdd pool = reach;
      for (int k = 0; k < 3 && !pool.is_false(); ++k) {
        const bdd::Bdd st = m.pick_state(pool);
        pool -= st;
        if (rng() % 2 == 0) s |= st;
      }
      bdd::Bdd z = mgr.zero();
      for (unsigned v = 0; v < 8; ++v) {
        if (rng() % 3 == 0) z |= value_is(a, v) & (rng() % 2 == 0 ? m.cur(e) : mgr.one());
      }
      for (const bool with_care : {false, true}) {
        const DontCare* care =
            with_care ? (coi ? &cone_care : &full_care) : nullptr;
        for (const ImageMethod method :
             {ImageMethod::kMonolithic, ImageMethod::kPartitioned}) {
          const bdd::Bdd img =
              coi ? red.image(s, method, care) : m.image(s, method, care);
          const bdd::Bdd pre =
              coi ? red.preimage(z, method, care) : m.preimage(z, method, care);
          bdd::Bdd pre_want = preimage_ref(z, rel);
          if (care != nullptr) pre_want &= care->set;
          EXPECT_EQ(img, image_ref(s, rel))
              << "round " << round << " coi " << coi << " care " << with_care;
          EXPECT_EQ(pre, pre_want)
              << "round " << round << " coi " << coi << " care " << with_care;
        }
      }
    }
  }
}

TEST(TransitionSystemTest, PrimeAndUnprimeCheckTheRail) {
  TransitionSystem m;
  const VarId x = m.add_var("x");
  const VarId y = m.add_var("y");
  m.add_trans(m.next(x) ^ m.cur(y));
  m.finalize();
  EXPECT_EQ(m.prime(m.cur(x) & !m.cur(y)), m.next(x) & !m.next(y));
  EXPECT_EQ(m.unprime(m.next(x) & !m.next(y)), m.cur(x) & !m.cur(y));
  EXPECT_THROW((void)m.prime(m.next(x)), std::invalid_argument);
  EXPECT_THROW((void)m.unprime(m.cur(x) & m.next(y)), std::invalid_argument);
}

TEST(StateGraphDot, BoundsEnforced) {
  TransitionSystem m;
  m.add_vector("b", 6);
  m.set_init(m.manager().one());
  m.add_trans(m.manager().one());
  m.finalize();
  std::ostringstream os;
  EXPECT_THROW(m.dump_state_graph(os, 8), std::length_error);
}

}  // namespace
}  // namespace symcex::ts
