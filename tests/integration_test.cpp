// Cross-module integration tests: SMV source -> compiled model ->
// verdict -> counterexample -> validation, and the full arbiter story the
// paper's Section 6 tells.

#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/explain.hpp"
#include "core/witness.hpp"
#include "ctlstar/star_checker.hpp"
#include "explicit/explicit_checker.hpp"
#include "explicit/explicit_graph.hpp"
#include "models/models.hpp"
#include "smv/smv.hpp"
#include "test_util.hpp"

namespace symcex {
namespace {

TEST(Integration, SmvToCounterexampleToValidation) {
  auto model = smv::compile(R"(
MODULE main
VAR
  sender   : {idle, sending, waiting};
  acked    : boolean;
ASSIGN
  init(sender) := idle;
  init(acked)  := FALSE;
  next(sender) := case
      sender = idle            : {idle, sending};
      sender = sending         : waiting;
      sender = waiting & acked : idle;
      TRUE                     : waiting;
    esac;
  next(acked) := case
      sender = sending : {TRUE, FALSE};
      sender = idle    : FALSE;
      TRUE             : acked;
    esac;
SPEC AG (sender = sending -> AF sender = idle)
)");
  core::Checker ck(model.system());
  core::Explainer ex(ck);
  const auto result = ex.explain(model.specs()[0]);
  // The ack may never come: the spec fails with a waiting-forever lasso.
  EXPECT_FALSE(result.holds);
  ASSERT_TRUE(result.trace.has_value());
  EXPECT_TRUE(test::certified_path(model.system(), *result.trace));
  ASSERT_TRUE(result.trace->is_lasso());
  for (const auto& s : result.trace->cycle) {
    EXPECT_EQ(model.value_of(0, s).to_string(), "waiting");
  }
  // Adding fairness on the ack repairs the property.
  auto fair_model = smv::compile(R"(
MODULE main
VAR
  sender   : {idle, sending, waiting};
  acked    : boolean;
ASSIGN
  init(sender) := idle;
  init(acked)  := FALSE;
  next(sender) := case
      sender = idle            : {idle, sending};
      sender = sending         : waiting;
      sender = waiting & acked : idle;
      TRUE                     : waiting;
    esac;
  next(acked) := case
      sender = sending : {TRUE, FALSE};
      sender = idle    : FALSE;
      TRUE             : acked;
    esac;
FAIRNESS sender != waiting | acked
SPEC AG (sender = sending -> AF sender = idle)
)");
  core::Checker ck2(fair_model.system());
  EXPECT_TRUE(ck2.holds(fair_model.specs()[0]));
}

TEST(Integration, ArbiterStoryMatchesThePaper) {
  // The qualitative Section 6 result: symbolic checking handles the whole
  // circuit, the liveness spec fails, and the counterexample is a fair
  // lasso on which the acknowledge never rises.
  auto arbiter = models::seitz_arbiter();
  core::Checker ck(*arbiter);
  core::Explainer ex(ck);

  EXPECT_TRUE(ck.holds("AG !(g1 & g2)"));
  const auto live = ex.explain("AG (r1 -> AF a1)");
  EXPECT_FALSE(live.holds);
  ASSERT_TRUE(live.trace.has_value());
  const core::Trace& trace = *live.trace;
  EXPECT_TRUE(test::certified_path(*arbiter, trace));
  ASSERT_TRUE(trace.is_lasso());
  EXPECT_GE(trace.cycle.size(), 2u);
  for (const auto& s : trace.cycle) {
    EXPECT_TRUE(s.implies(!*arbiter->label("a1")));
    EXPECT_TRUE(s.implies(*arbiter->label("r1")));
  }
  for (const auto& h : arbiter->fairness()) {
    EXPECT_TRUE(trace.cycle_visits(h));
  }

  // Explicit enumeration agrees on the verdicts (and would have been the
  // bottleneck on the paper's full-size circuit).
  const auto e = enumerative::enumerate(*arbiter, 1u << 16);
  enumerative::Checker eck(e.graph);
  EXPECT_TRUE(eck.holds("AG !(g1 & g2)"));
  EXPECT_FALSE(eck.holds("AG (r1 -> AF a1)"));
}

TEST(Integration, CtlStarWitnessOnTheArbiter) {
  // E (GF a2 & GF r1 & FG !a1): side 2 served forever while side 1 keeps
  // requesting but is never acknowledged -- the CTL* phrasing of the
  // starvation scenario.  (Without the GF r1 conjunct the formula holds
  // even on a fair arbiter: user 1 may simply never request.)
  auto arbiter = models::seitz_arbiter();
  core::Checker ck(*arbiter);
  ctlstar::StarChecker star(ck);
  const auto f = ctl::parse("E (G F a2 & G F r1 & F G !a1)");
  ASSERT_TRUE(star.holds(f));
  const core::Trace t = star.witness(f, arbiter->init());
  EXPECT_TRUE(test::certified_path(*arbiter, t));
  ASSERT_TRUE(t.is_lasso());
  EXPECT_TRUE(t.cycle_visits(*arbiter->label("a2")));
  for (const auto& s : t.cycle) {
    EXPECT_TRUE(s.implies(!*arbiter->label("a1")));
  }
  // The repaired arbiter admits no such fair behaviour.
  auto repaired = models::seitz_arbiter({.fair_me = true});
  core::Checker ck2(*repaired);
  ctlstar::StarChecker star2(ck2);
  EXPECT_FALSE(star2.holds(f));
}

TEST(Integration, WitnessLengthsAreReasonable) {
  // The Section 9 remark notes counterexamples can be long; sanity-bound
  // ours on the standard models so regressions are visible.
  auto arbiter = models::seitz_arbiter();
  core::Checker ck(*arbiter);
  core::Explainer ex(ck);
  const auto live = ex.explain("AG (r1 -> AF a1)");
  ASSERT_TRUE(live.trace.has_value());
  const double states = arbiter->count_states(arbiter->reachable());
  EXPECT_LT(static_cast<double>(live.trace->length()), states);
}

TEST(Integration, SmvSpecsOnZooEquivalents) {
  // The same Peterson protocol written in SMV agrees with the programmatic
  // model on all verdicts.
  auto model = smv::compile(R"(
MODULE main
VAR
  pc0  : {idle, try, crit};
  pc1  : {idle, try, crit};
  turn : boolean;
  sched: boolean;
ASSIGN
  init(pc0) := idle; init(pc1) := idle;
  next(pc0) := case
      !next(sched) & pc0 = idle                      : {idle, try};
      !next(sched) & pc0 = try & (pc1 = idle | !turn) : crit;
      !next(sched) & pc0 = crit                      : idle;
      TRUE                                           : pc0;
    esac;
  next(pc1) := case
      next(sched) & pc1 = idle                       : {idle, try};
      next(sched) & pc1 = try & (pc0 = idle | turn)  : crit;
      next(sched) & pc1 = crit                       : idle;
      TRUE                                           : pc1;
    esac;
  next(turn) := case
      !next(sched) & pc0 = idle & next(pc0) = try : TRUE;
      next(sched) & pc1 = idle & next(pc1) = try  : FALSE;
      TRUE                                        : turn;
    esac;
FAIRNESS sched
FAIRNESS !sched
SPEC AG !(pc0 = crit & pc1 = crit)
SPEC AG (pc0 = try -> AF pc0 = crit)
SPEC AG (pc1 = try -> AF pc1 = crit)
)");
  core::Checker ck(model.system());
  EXPECT_TRUE(ck.holds(model.specs()[0]));
  EXPECT_TRUE(ck.holds(model.specs()[1]));
  EXPECT_TRUE(ck.holds(model.specs()[2]));
}

}  // namespace
}  // namespace symcex
