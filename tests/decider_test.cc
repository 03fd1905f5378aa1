// Ground-truth tests for the AIC decider's w_L* search: the online
// Newton–Raphson + Extreme Value Theorem comparison
// (model::extreme_value_minimum) must match a brute-force grid
// minimization of the same adaptive NET^2 objective across randomized
// system/interval profiles. Comparison is by objective VALUE, not by
// argmin position — the NET^2 curve can be extremely flat around its
// minimum, where two far-apart spans are equally good.
//
// Also stresses the degenerate shapes the EVT frame exists for: flat
// objectives, boundary optima, and the infeasibility cliff below
// w = SF*(c3_prev - c1_prev), plus the EvtDiag diagnostics the decider's
// instrumentation records.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <initializer_list>

#include "common/rng.h"
#include "control/experiment.h"
#include "model/interval_models.h"
#include "model/optimizer.h"
#include "model/system_profile.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace aic::model {
namespace {

constexpr double kMinW = 1.0;
constexpr double kMaxW = 1e5;

/// Brute-force reference: dense log grid + golden-section refinement.
OptResult brute_force(const ScalarFn& f, double lo, double hi) {
  return minimize_scalar(f, lo, hi, 512, 100);
}

SystemProfile random_profile(Rng& rng) {
  SystemProfile sys;
  const auto split = split_rate(rng.uniform(1e-5, 1e-3));
  sys.lambda = {split[0], split[1], split[2]};
  sys.c[0] = rng.uniform(0.1, 2.0);
  sys.c[1] = sys.c[0] * rng.uniform(1.5, 5.0);
  sys.c[2] = sys.c[1] * rng.uniform(5.0, 80.0);
  sys.r = sys.c;
  sys.sharing_factor = rng.uniform() < 0.5 ? 1.0 : 2.0;
  return sys;
}

IntervalParams perturbed(const SystemProfile& sys, Rng& rng) {
  IntervalParams p = IntervalParams::from_profile(sys);
  const double jitter = rng.uniform(0.7, 1.3);
  p.c1 *= jitter;
  p.c2 *= rng.uniform(0.7, 1.3);
  p.c3 *= rng.uniform(0.7, 1.3);
  // Keep the model's ordering assumption intact.
  p.c2 = std::max(p.c2, p.c1);
  p.c3 = std::max(p.c3, p.c2);
  p.r1 = p.c1;
  p.r2 = p.c2;
  p.r3 = p.c3;
  return p;
}

TEST(DeciderTest, MatchesBruteForceAcrossRandomProfiles) {
  Rng rng(20130521);  // the paper's conference date, for want of tradition
  for (int trial = 0; trial < 20; ++trial) {
    const SystemProfile sys = random_profile(rng);
    const IntervalParams cur = perturbed(sys, rng);
    const IntervalParams prev = perturbed(sys, rng);
    auto objective = [&](double w) {
      return net2_adaptive(sys, w, cur, prev);
    };

    EvtDiag diag;
    const double x0 = rng.uniform(kMinW, 100.0);
    const OptResult evt =
        extreme_value_minimum(objective, kMinW, kMaxW, x0, &diag);
    const OptResult grid = brute_force(objective, kMinW, kMaxW);

    ASSERT_TRUE(std::isfinite(evt.value)) << "trial " << trial;
    ASSERT_GE(evt.x, kMinW);
    ASSERT_LE(evt.x, kMaxW);
    // The online search must be as good as brute force (by value; the
    // grid itself carries discretization error, hence the tolerance).
    EXPECT_LE(evt.value, grid.value * (1.0 + 1e-3) + 1e-12)
        << "trial " << trial << ": evt at w=" << evt.x << " value "
        << evt.value << " vs grid w=" << grid.x << " value " << grid.value;

    EXPECT_GE(diag.newton_iters, 0);
    EXPECT_LE(diag.newton_iters, 200);
  }
}

TEST(DeciderTest, ReplanAfterResizeMatchesBruteForce) {
  // Elastic reconfiguration: the system profile rescales (lambda and c3
  // move with the width) and the decider re-plans w_L* warm-started at the
  // PRE-resize optimum — the worst seed for the local search, since the
  // old optimum can sit far from the new one, or inside the new
  // infeasibility cliff. The re-plan must still match brute force on the
  // post-resize objective across randomized profiles and resize factors.
  Rng rng(0xE1A571C);
  for (int trial = 0; trial < 20; ++trial) {
    const SystemProfile before = random_profile(rng);
    const IntervalParams prev = perturbed(before, rng);
    auto pre_objective = [&](double w) {
      return net2_adaptive(before, w, prev, prev);
    };
    const OptResult pre =
        extreme_value_minimum(pre_objective, kMinW, kMaxW, 50.0);

    // Grow or shrink by up to 4x; MPI scaling moves lambda and c3.
    const double factor = trial % 2 == 0 ? rng.uniform(1.0, 4.0)
                                         : rng.uniform(0.25, 1.0);
    const SystemProfile after = before.scaled_mpi(factor);
    const IntervalParams cur = perturbed(after, rng);
    auto post_objective = [&](double w) {
      return net2_adaptive(after, w, cur, prev);
    };

    EvtDiag diag;
    const double x0 = std::clamp(pre.x, kMinW, kMaxW);
    const OptResult replan =
        extreme_value_minimum(post_objective, kMinW, kMaxW, x0, &diag);
    const OptResult grid = brute_force(post_objective, kMinW, kMaxW);

    ASSERT_TRUE(std::isfinite(replan.value))
        << "trial " << trial << " factor " << factor;
    EXPECT_LE(replan.value, grid.value * (1.0 + 1e-3) + 1e-12)
        << "trial " << trial << " factor " << factor << ": replan at w="
        << replan.x << " value " << replan.value << " vs grid w=" << grid.x
        << " value " << grid.value;
    EXPECT_LE(diag.newton_iters, 200);
  }
}

TEST(DeciderTest, FlatObjectiveIsHandled) {
  auto flat = [](double) { return 5.0; };
  EvtDiag diag;
  const OptResult r = extreme_value_minimum(flat, kMinW, kMaxW, 10.0, &diag);
  EXPECT_DOUBLE_EQ(r.value, 5.0);
  EXPECT_GE(r.x, kMinW);
  EXPECT_LE(r.x, kMaxW);
  EXPECT_GE(diag.newton_iters, 0);
}

TEST(DeciderTest, BoundaryOptimaAreFound) {
  // Strictly increasing: minimum at the lower boundary.
  auto inc = [](double w) { return w; };
  EvtDiag diag_lo;
  const OptResult lo = extreme_value_minimum(inc, kMinW, kMaxW, 50.0, &diag_lo);
  EXPECT_DOUBLE_EQ(lo.value, kMinW);
  EXPECT_DOUBLE_EQ(lo.x, kMinW);

  // Strictly decreasing: minimum at the upper boundary.
  auto dec = [](double w) { return -w; };
  const OptResult hi = extreme_value_minimum(dec, kMinW, kMaxW, 50.0, nullptr);
  EXPECT_DOUBLE_EQ(hi.value, -kMaxW);
  EXPECT_DOUBLE_EQ(hi.x, kMaxW);
}

TEST(DeciderTest, InteriorMinimumBeatsBoundaries) {
  // A clean convex bowl: the NR stationary point should win and land near
  // the analytic minimum.
  auto bowl = [](double w) { return (w - 300.0) * (w - 300.0) + 7.0; };
  EvtDiag diag;
  const OptResult r = extreme_value_minimum(bowl, kMinW, kMaxW, 10.0, &diag);
  EXPECT_NEAR(r.x, 300.0, 1.0);
  EXPECT_NEAR(r.value, 7.0, 1e-3);
  EXPECT_FALSE(diag.used_boundary);
}

TEST(DeciderTest, InfeasibilityCliffDoesNotTrapTheSearch) {
  // Mimics the adaptive NET^2 shape: a huge plateau below the feasibility
  // threshold, a well-behaved valley above it. NR seeded inside the cliff
  // must still find the valley (the coarse-grid safeguard).
  const double cliff = 800.0;
  auto f = [&](double w) {
    if (w < cliff) return 1e12;
    const double v = w - 2000.0;
    return v * v / 1e4 + 2.0;
  };
  EvtDiag diag;
  const OptResult r = extreme_value_minimum(f, kMinW, kMaxW, 2.0, &diag);
  const OptResult grid = brute_force(f, kMinW, kMaxW);
  EXPECT_LE(r.value, grid.value * (1.0 + 1e-3));
  EXPECT_NEAR(r.x, 2000.0, 50.0);
}

TEST(DeciderTest, DiagReportsBoundaryWhenStationaryLoses) {
  auto inc = [](double w) { return std::log(w); };
  EvtDiag diag;
  const OptResult r = extreme_value_minimum(inc, kMinW, kMaxW, 100.0, &diag);
  EXPECT_DOUBLE_EQ(r.x, kMinW);
  // Monotone objective: no interior stationary point exists, so the EVT
  // boundary comparison is what found the minimum.
  EXPECT_TRUE(diag.used_boundary);
}

}  // namespace
}  // namespace aic::model

// Gating tests for control::AicDecider on synthetic c3 series, one per
// branch of the cheap-moment rule: the trailing window's dip, a cost
// clearly below the window's mean, the upturn after a sustained decline,
// the starvation override, the busy checkpointing core, and the window's
// 40-decision memory.
namespace aic::control {
namespace {

using model::IntervalParams;

/// A checkpoint costing `c3` (c1 and c2 fixed, r_k = c_k).
IntervalParams cost(double c3) { return {1.0, 2.0, c3, 1.0, 2.0, c3}; }

model::SystemProfile testbed_system() {
  model::SystemProfile sys = model::SystemProfile::coastal();
  const auto split = model::split_rate(1e-3);
  sys.lambda = {split[0], split[1], split[2]};
  return sys;
}

/// Past w_L* and short of 3x w_L* (checked on every decision): the span
/// condition holds and starvation does not.
constexpr double kReached = 100.0;

/// One decision on a checkpoint costing `c3`, against a previous
/// checkpoint of c3 = 50.
DecisionTrace step(AicDecider& decider, double c3, double elapsed = kReached,
                   bool core_free = true) {
  const DecisionTrace d =
      decider.decide(0.0, elapsed, cost(c3), cost(50.0), core_free, false);
  EXPECT_LT(d.w_star, kReached);
  EXPECT_GT(3.0 * d.w_star, kReached);
  return d;
}

/// Feeds a series with the span reached; returns the last decision.
DecisionTrace feed(AicDecider& decider, std::initializer_list<double> c3s) {
  DecisionTrace d;
  for (double c3 : c3s) d = step(decider, c3);
  return d;
}

TEST(AicDecider, FiresBackAtTheWindowDip) {
  AicDecider decider(testbed_system(), nullptr);
  const DecisionTrace high = feed(decider, {100, 60, 100, 105});
  EXPECT_TRUE(high.span_reached);
  EXPECT_FALSE(high.at_dip);
  EXPECT_FALSE(high.take);
  // 62 is within 10% of the window's 60, but above 0.7x its mean (85.4)
  // and after one decline only.
  const DecisionTrace dip = step(decider, 62);
  EXPECT_TRUE(dip.at_dip);
  EXPECT_TRUE(dip.take);
}

TEST(AicDecider, FiresClearlyBelowTheWindowMean) {
  // 30 is 3x the window's minimum (10) but below 0.7x its mean (85.5);
  // 70 is above 0.7x the mean (88.2).
  for (const double c3 : {30.0, 70.0}) {
    AicDecider decider(testbed_system(), nullptr);
    feed(decider, {100, 10, 100, 100, 100, 100, 100, 100, 100, 100});
    const DecisionTrace d = step(decider, c3);
    EXPECT_EQ(d.at_dip, c3 == 30.0) << c3;
    EXPECT_EQ(d.take, c3 == 30.0) << c3;
  }
}

TEST(AicDecider, FiresOnTheUpturnAfterThreeDeclines) {
  // 175 is far above the window's minimum (100) and 0.7x its mean; only
  // the turn back up after a valley makes it a cheap moment.
  AicDecider three(testbed_system(), nullptr);
  EXPECT_FALSE(feed(three, {100, 200, 190, 180, 170}).at_dip);
  const DecisionTrace upturn = step(three, 175);
  EXPECT_TRUE(upturn.at_dip);
  EXPECT_TRUE(upturn.take);

  // Two declines are not a valley.
  AicDecider two(testbed_system(), nullptr);
  const DecisionTrace early = feed(two, {100, 200, 190, 180, 185});
  EXPECT_FALSE(early.at_dip);
  EXPECT_FALSE(early.take);
}

TEST(AicDecider, StarvationFiresPastThreeTimesTheSpan) {
  AicDecider decider(testbed_system(), nullptr);
  const DecisionTrace waiting = feed(decider, {10, 100, 100});
  EXPECT_FALSE(waiting.at_dip);
  EXPECT_FALSE(waiting.starved);
  EXPECT_FALSE(waiting.take);

  const DecisionTrace short_span =
      decider.decide(0.0, 0.5 * waiting.w_star, cost(10), cost(50), true,
                     false);
  EXPECT_TRUE(short_span.at_dip);
  EXPECT_FALSE(short_span.span_reached) << "a dip before w_L* waits";
  EXPECT_FALSE(short_span.take);

  const DecisionTrace starved =
      decider.decide(0.0, 4.0 * waiting.w_star, cost(100), cost(50), true,
                     false);
  EXPECT_FALSE(starved.at_dip);
  EXPECT_TRUE(starved.starved);
  EXPECT_TRUE(starved.take);
}

TEST(AicDecider, BusyCoreDefersTheTake) {
  for (const bool core_free : {false, true}) {
    AicDecider decider(testbed_system(), nullptr);
    feed(decider, {100, 60, 100});
    const DecisionTrace d = step(decider, 60, kReached, core_free);
    EXPECT_TRUE(d.span_reached);
    EXPECT_TRUE(d.at_dip);
    EXPECT_EQ(d.core_free, core_free);
    EXPECT_EQ(d.take, core_free);
  }
}

TEST(AicDecider, DipLeavesTheWindowAfterFortyDecisions) {
  AicDecider decider(testbed_system(), nullptr);
  step(decider, 10);
  // Decisions 2 to 40 still see the 10 in the window: 100 is no dip.
  for (int i = 2; i <= 40; ++i) {
    EXPECT_FALSE(step(decider, 100).at_dip) << "decision " << i;
  }
  // Decision 41 pushes it out: the window holds only 100s.
  const DecisionTrace d = step(decider, 100);
  EXPECT_TRUE(d.at_dip);
  EXPECT_TRUE(d.take);
}

TEST(AicDecider, ReportsEveryDecisionToTheHub) {
  obs::Hub hub;
  AicDecider decider(testbed_system(), &hub);
  int takes = 0;
  for (const double c3 : {100.0, 60.0, 100.0, 105.0, 62.0}) {
    takes += step(decider, c3).take;
  }
  const obs::MetricsSnapshot snap = hub.metrics.snapshot();
  EXPECT_EQ(snap.counter_or_zero(obs::names::kDeciderEvaluations), 5u);
  EXPECT_EQ(snap.counter_or_zero(obs::names::kDeciderTakes),
            std::uint64_t(takes));
  EXPECT_EQ(hub.trace.size(), 5u) << "one decision instant each";
}

}  // namespace
}  // namespace aic::control
