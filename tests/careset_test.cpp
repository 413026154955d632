// The don't-care-aware evaluation core (DESIGN.md §9): the EvalContext's
// care-set contract, when the care set is active, and the fair-EG memo
// that serves check() and explain().  That care-set simplification never
// changes a verdict or a certified trace is the cross-mode oracle's job
// (tests/oracle_test.cpp).

#include <random>

#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/explain.hpp"
#include "models/models.hpp"
#include "test_util.hpp"

namespace symcex {
namespace {

TEST(CaresetCrossMode, ContextPreimageIsExactPreimageOnCare) {
  // The EvalContext contract (DESIGN.md §9): preimage == (EX Z) & C for
  // arbitrary Z, and image is exact on operands inside C.
  auto m = models::counter({.width = 6, .modulus = 40});
  core::Checker checker(*m, {.image_method = ts::ImageMethod::kPartitioned,
                             .use_care_set = true});
  core::EvalContext& context = checker.context();
  EXPECT_TRUE(context.care_requested());
  ASSERT_TRUE(context.care_active());  // modulus < 2^width: nontrivial care
  const bdd::Bdd reach = m->reachable();
  EXPECT_EQ(context.care_set(), reach);
  std::mt19937 rng(7);
  for (int i = 0; i < 10; ++i) {
    const bdd::Bdd z = test::random_predicate(*m, rng);
    EXPECT_EQ(context.preimage(z),
              m->preimage(z, ts::ImageMethod::kPartitioned) & reach);
    const bdd::Bdd s = z & reach;
    EXPECT_EQ(context.image(s), m->image(s, ts::ImageMethod::kPartitioned));
  }
}

TEST(CaresetCrossMode, CareInactiveWhenNotRequested) {
  auto m = models::counter({.width = 4, .modulus = 10});
  core::Checker checker(*m, {.use_care_set = false});
  EXPECT_FALSE(checker.context().care_requested());
  EXPECT_FALSE(checker.context().care_active());
  EXPECT_TRUE(checker.context().care_set().is_true());
}

TEST(CaresetCrossMode, CareTrivialOnFullyReachableModels) {
  // The plain counter reaches every valuation: the care set degenerates to
  // `one` and the context must skip the restricted-copy machinery.
  auto m = models::counter({.width = 4});
  core::Checker checker(*m, {.use_care_set = true});
  EXPECT_TRUE(checker.context().care_requested());
  EXPECT_FALSE(checker.context().care_active());
  EXPECT_TRUE(checker.context().care_set().is_true());
}

TEST(CaresetCrossMode, FairEGMemoServesCheckThenExplain) {
  // check() first computes AG(try0 -> AF crit0) -- one fair-EG fixpoint --
  // then the witness generator asks for the same EG with rings.  The memo
  // must serve the second request.
  auto m = models::peterson({.buggy = true});
  core::Checker checker(*m);
  core::Explainer explainer(checker);
  const auto outcome = explainer.check("AG (try0 -> AF crit0)");
  EXPECT_EQ(outcome.verdict, core::Verdict::kFalse);
  ASSERT_TRUE(outcome.trace.has_value());
  EXPECT_GE(checker.stats().faireg_reuse_hits, 1u);
}

}  // namespace
}  // namespace symcex
