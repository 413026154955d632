// Tests for the model zoo: each builder produces the structure and the
// verdicts its documentation promises.

#include <cmath>

#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/explain.hpp"
#include "models/models.hpp"
#include "test_util.hpp"

namespace symcex::models {
namespace {

TEST(CounterModel, CountsModuloTwoToTheWidth) {
  for (const std::uint32_t width : {1u, 3u, 5u}) {
    auto m = counter({.width = width});
    EXPECT_EQ(m->count_states(m->reachable()), std::pow(2.0, width));
    core::Checker ck(*m);
    EXPECT_TRUE(ck.holds("AG EF zero"));
    EXPECT_TRUE(ck.holds("AG EF max"));
    EXPECT_TRUE(ck.holds("AF max"));
    EXPECT_TRUE(ck.holds("AG (max -> AX zero)"));
  }
  EXPECT_THROW((void)counter({.width = 0}), std::invalid_argument);
}

TEST(CounterModel, StutteringVariant) {
  auto m = counter({.width = 2, .stutter = true});
  core::Checker ck(*m);
  // Without fair ticking the counter may stall: AF max fails.
  EXPECT_FALSE(ck.holds("AF max"));
  EXPECT_TRUE(ck.holds("AG EF max"));

  auto fair = counter({.width = 2, .stutter = true, .fair_ticking = true});
  core::Checker ck2(*fair);
  EXPECT_TRUE(ck2.holds("AF max"));
}

TEST(CounterBankModel, AstronomicalStateCountsStayCheap) {
  auto m = counter_bank({.banks = 16, .width = 4});
  // 2^64 states, all reachable (every bank may hold or advance).
  EXPECT_GT(m->count_states(m->reachable()), 1e16);
  core::Checker ck(*m);
  EXPECT_TRUE(ck.holds("AG EF all_max"));
  EXPECT_TRUE(ck.holds("AG EF all_zero"));
  EXPECT_TRUE(ck.holds("AG (max0 -> EX zero0)"));
  EXPECT_FALSE(ck.holds("AF all_max"));  // banks may hold forever
  EXPECT_THROW((void)counter_bank({.banks = 0}), std::invalid_argument);
  EXPECT_THROW((void)counter_bank({.banks = 300, .width = 8}),
               std::invalid_argument);
}

TEST(CounterBankModel, PartitionedRelationAgrees) {
  auto m = counter_bank({.banks = 4, .width = 2});
  EXPECT_EQ(m->trans_parts().size(), 4u);
  const bdd::Bdd some = *m->label("zero0");
  EXPECT_EQ(m->image(some, ts::ImageMethod::kMonolithic),
            m->image(some, ts::ImageMethod::kPartitioned));
}

TEST(ArbiterModel, BuggyVariantStarvesSideOne) {
  auto m = seitz_arbiter();
  core::Checker ck(*m);
  EXPECT_TRUE(ck.holds("AG !(g1 & g2)"));
  EXPECT_FALSE(ck.holds("AG (r1 -> AF a1)"));
  // Side 2 has absolute priority, so side 2 is fine.
  EXPECT_TRUE(ck.holds("AG (r2 -> AF a2)"));
  // Sanity: requests are actually serviceable.
  EXPECT_TRUE(ck.holds("EF a1"));
  EXPECT_TRUE(ck.holds("EF a2"));
}

TEST(ArbiterModel, RepairedVariantIsLive) {
  auto m = seitz_arbiter({.fair_me = true});
  core::Checker ck(*m);
  EXPECT_TRUE(ck.holds("AG !(g1 & g2)"));
  EXPECT_TRUE(ck.holds("AG (r1 -> AF a1)"));
  EXPECT_TRUE(ck.holds("AG (r2 -> AF a2)"));
}

TEST(ArbiterModel, ServerlessVariant) {
  auto m = seitz_arbiter({.with_server = false});
  core::Checker ck(*m);
  EXPECT_TRUE(ck.holds("AG !(g1 & g2)"));
  EXPECT_FALSE(ck.holds("AG (r1 -> AF a1)"));
  auto fixed = seitz_arbiter({.fair_me = true, .with_server = false});
  core::Checker ck2(*fixed);
  EXPECT_TRUE(ck2.holds("AG (r1 -> AF a1)"));
}

TEST(ArbiterModel, GateFairnessConstraintsRegistered) {
  auto with_server = seitz_arbiter();
  // 4 gates + 2 user-release constraints with the server chain,
  // plus g1/g2 gates: g1, g2, sr, sa, a1, a2 = 6 gates.
  EXPECT_EQ(with_server->fairness().size(), 8u);
  auto without = seitz_arbiter({.with_server = false});
  EXPECT_EQ(without->fairness().size(), 6u);
}

TEST(PetersonModel, MutualExclusionAlways) {
  for (const bool buggy : {false, true}) {
    auto m = peterson({.buggy = buggy});
    core::Checker ck(*m);
    EXPECT_TRUE(ck.holds("AG !(crit0 & crit1)")) << "buggy=" << buggy;
    EXPECT_TRUE(ck.holds("EF crit0")) << "buggy=" << buggy;
    EXPECT_TRUE(ck.holds("EF crit1")) << "buggy=" << buggy;
  }
}

TEST(PetersonModel, LivenessOnlyWithTurn) {
  auto good = peterson();
  core::Checker ck(*good);
  EXPECT_TRUE(ck.holds("AG (try0 -> AF crit0)"));
  EXPECT_TRUE(ck.holds("AG (try1 -> AF crit1)"));
  auto bad = peterson({.buggy = true});
  core::Checker ck2(*bad);
  EXPECT_FALSE(ck2.holds("AG (try0 -> AF crit0)"));
}

TEST(PhilosophersModel, SafetyOnTheRing) {
  auto m = dining_philosophers({.count = 4});
  core::Checker ck(*m);
  EXPECT_TRUE(ck.holds("AG !(eat0 & eat1)"));
  EXPECT_TRUE(ck.holds("AG !(eat1 & eat2)"));
  EXPECT_TRUE(ck.holds("AG !(eat3 & eat0)"));
  // Opposite philosophers may eat together.
  EXPECT_TRUE(ck.holds("EF (eat0 & eat2)"));
  EXPECT_TRUE(ck.holds("AG (hungry0 -> EF eat0)"));
  // But starvation is possible even under fair scheduling.
  EXPECT_FALSE(ck.holds("AG (hungry0 -> AF eat0)"));
}

TEST(PhilosophersModel, ParameterValidation) {
  EXPECT_THROW((void)dining_philosophers({.count = 1}),
               std::invalid_argument);
  EXPECT_THROW((void)dining_philosophers({.count = 99}),
               std::invalid_argument);
}

TEST(RoundRobinModel, RotationGuaranteesService) {
  auto m = round_robin_arbiter({.users = 4});
  core::Checker ck(*m);
  for (int i = 0; i < 4; ++i) {
    const std::string idx = std::to_string(i);
    EXPECT_TRUE(ck.holds("AG (req" + idx + " -> AF gnt" + idx + ")"));
  }
  // Grants are mutually exclusive: the token selects one user.
  EXPECT_TRUE(ck.holds("AG !(gnt0 & gnt1)"));
  EXPECT_TRUE(ck.holds("AG !(gnt2 & gnt3)"));
  // The token keeps rotating.
  EXPECT_TRUE(ck.holds("AG AF tok0"));
}

TEST(RoundRobinModel, FrozenTokenStarvesEveryoneElse) {
  auto m = round_robin_arbiter({.users = 3, .rotate = false});
  core::Checker ck(*m);
  EXPECT_TRUE(ck.holds("AG (req0 -> AF gnt0)"));   // holder of the token
  EXPECT_FALSE(ck.holds("AG (req1 -> AF gnt1)"));  // everyone else starves
  core::Explainer ex(ck);
  const auto e = ex.explain("AG (req1 -> AF gnt1)");
  ASSERT_TRUE(e.trace.has_value());
  EXPECT_TRUE(test::certified_path(*m, *e.trace));
  ASSERT_TRUE(e.trace->is_lasso());
  EXPECT_TRUE(e.trace->all_satisfy(*m->label("tok0")));
}

TEST(RoundRobinModel, ScalesAndValidates) {
  auto m = round_robin_arbiter({.users = 8});
  EXPECT_EQ(m->count_states(m->reachable()), 2048.0);  // 2^8 * 8
  core::Checker ck(*m);
  EXPECT_TRUE(ck.holds("AG (req5 -> AF gnt5)"));
  EXPECT_THROW((void)round_robin_arbiter({.users = 1}),
               std::invalid_argument);
}

TEST(AbpModel, ProgressUnderFairChannels) {
  auto m = abp();
  core::Checker ck(*m);
  EXPECT_TRUE(ck.holds("EF accept"));
  EXPECT_TRUE(ck.holds("AG EF accept"));
  EXPECT_TRUE(ck.holds("AG AF accept"));  // fairness defeats the lossy channels
  // The alternating bit alternates: each bit's transfer completes.
  EXPECT_TRUE(ck.holds("AG (sending0 -> AF sending1)"));
  EXPECT_TRUE(ck.holds("AG (sending1 -> AF sending0)"));
}

TEST(AbpModel, LossyChannelsStarveWithoutFairness) {
  auto m = abp({.fair_channels = false});
  core::Checker ck(*m);
  EXPECT_TRUE(ck.holds("AG EF accept"));   // recovery is always possible
  EXPECT_FALSE(ck.holds("AG AF accept"));  // but not guaranteed
  core::Explainer ex(ck);
  const auto e = ex.explain("AG AF accept");
  ASSERT_TRUE(e.trace.has_value());
  EXPECT_TRUE(test::certified_path(*m, *e.trace));
  ASSERT_TRUE(e.trace->is_lasso());
  for (const auto& s : e.trace->cycle) {
    EXPECT_TRUE(s.implies(!*m->label("accept")));
  }
}

TEST(AbpModel, SafetyOfTheBitDiscipline) {
  auto m = abp();
  core::Checker ck(*m);
  // A fresh acceptance happens only on a receive action's successor.
  EXPECT_TRUE(ck.holds("AG (accept -> act_recv)"));
  // Duplicates never cause a second acceptance before the sender advances:
  // after accepting bit 0 the receiver cannot accept again while the
  // sender still transmits bit 0.
  EXPECT_TRUE(ck.holds("AG !(accept & EX (accept & sending0 & EX (accept & sending0)))"));
}

TEST(SccChainModel, StructureAndLabels) {
  auto m = scc_chain({.chain_len = 3, .cycle_len = 4});
  EXPECT_EQ(m->count_states(m->reachable()), 7.0);
  core::Checker ck(*m);
  EXPECT_TRUE(ck.holds("AF in_cycle"));
  EXPECT_TRUE(ck.holds("AG (in_cycle -> AG in_cycle)"));
  EXPECT_TRUE(ck.holds("head"));
  auto inside = scc_chain({.chain_len = 3, .cycle_len = 4,
                           .start_in_cycle = true});
  core::Checker ck2(*inside);
  EXPECT_TRUE(ck2.holds("in_cycle"));
  EXPECT_EQ(inside->count_states(inside->reachable()), 4.0);
}

TEST(SccChainModel, DegenerateShapes) {
  // A pure cycle (chain_len = 0) and a single self-loop state.
  auto pure = scc_chain({.chain_len = 0, .cycle_len = 3});
  core::Checker ck(*pure);
  EXPECT_TRUE(ck.holds("in_cycle"));
  auto tiny = scc_chain({.chain_len = 2, .cycle_len = 1});
  core::Checker ck2(*tiny);
  EXPECT_TRUE(ck2.holds("AF in_cycle"));
  EXPECT_THROW((void)scc_chain({.chain_len = 1, .cycle_len = 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace symcex::models
