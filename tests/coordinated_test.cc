// Tests for the coordinated (MPI) extension: job-level failure scaling,
// the aligned-vs-staggered adaptivity story, golden pins of two runs, and
// basic sanity.
#include <gtest/gtest.h>

#include "control/coordinated.h"
#include "common/check.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace aic::control {
namespace {

CoordinatedConfig make_config(int processes, double stagger) {
  CoordinatedConfig cfg;
  const auto split = model::split_rate(2e-4);  // per-process rate
  cfg.base.system.lambda = {split[0], split[1], split[2]};
  cfg.base.workload_scale = 0.125;
  const auto prof =
      workload::spec_profile(workload::SpecBenchmark::kMilc, 0.125);
  cfg.base.costs =
      CostModel::paper_scaled(prof.footprint_pages * kPageSize);
  cfg.processes = processes;
  cfg.stagger_fraction = stagger;
  return cfg;
}

TEST(Coordinated, RunsAndProducesSaneNet2) {
  const auto cfg = make_config(3, 0.0);
  const auto res =
      run_coordinated(Scheme::kAic, workload::SpecBenchmark::kMilc, cfg);
  EXPECT_EQ(res.processes, 3);
  EXPECT_GT(res.checkpoints, 0u);
  EXPECT_GT(res.net2, 1.0);
  EXPECT_LT(res.net2, 20.0);
  EXPECT_GT(res.mean_delta_bytes, 0.0);
}

TEST(Coordinated, MoodyRejected) {
  const auto cfg = make_config(2, 0.0);
  EXPECT_THROW((void)run_coordinated(Scheme::kMoody,
                                     workload::SpecBenchmark::kMilc, cfg),
               CheckError);
}

TEST(Coordinated, AdaptiveBeatsStaticWhenRanksAligned) {
  // Aligned ranks hit their consolidation dips together: the adaptive
  // decider should exploit them like in the single-process case.
  const auto cfg = make_config(4, 0.0);
  const auto aic =
      run_coordinated(Scheme::kAic, workload::SpecBenchmark::kMilc, cfg);
  const auto sic =
      run_coordinated(Scheme::kSic, workload::SpecBenchmark::kMilc, cfg);
  EXPECT_LE(aic.net2, sic.net2 * 1.05);
}

TEST(Coordinated, StaggerErodesAdaptiveGain) {
  // The paper's reason for deferring AIC-for-MPI: with staggered ranks,
  // no moment is cheap for everyone, so the adaptive advantage shrinks.
  const auto aligned_cfg = make_config(4, 0.0);
  const auto staggered_cfg = make_config(4, 1.0);

  const auto aic_aligned = run_coordinated(
      Scheme::kAic, workload::SpecBenchmark::kMilc, aligned_cfg);
  const auto sic_aligned = run_coordinated(
      Scheme::kSic, workload::SpecBenchmark::kMilc, aligned_cfg);
  const auto aic_staggered = run_coordinated(
      Scheme::kAic, workload::SpecBenchmark::kMilc, staggered_cfg);
  const auto sic_staggered = run_coordinated(
      Scheme::kSic, workload::SpecBenchmark::kMilc, staggered_cfg);

  const double gain_aligned =
      (sic_aligned.net2 - aic_aligned.net2) / sic_aligned.net2;
  const double gain_staggered =
      (sic_staggered.net2 - aic_staggered.net2) / sic_staggered.net2;
  EXPECT_GT(gain_aligned, gain_staggered - 0.03)
      << "aligned ranks should benefit at least as much as staggered ones";
}

/// Exact figures of one coordinated run.
struct CoordinatedPin {
  double net2;
  std::size_t checkpoints;
  double mean_delta_bytes;
};

void expect_pinned(Scheme scheme, const CoordinatedConfig& cfg,
                   const CoordinatedPin& pin) {
  const auto r = run_coordinated(scheme, workload::SpecBenchmark::kMilc, cfg);
  EXPECT_EQ(r.net2, pin.net2) << to_string(scheme);
  EXPECT_EQ(r.checkpoints, pin.checkpoints) << to_string(scheme);
  EXPECT_EQ(r.mean_delta_bytes, pin.mean_delta_bytes) << to_string(scheme);
}

TEST(Coordinated, AlignedTwoRankRunIsPinned) {
  const auto cfg = make_config(2, 0.0);
  expect_pinned(Scheme::kAic, cfg, {1.0809348466105875, 5, 927356.0});
  expect_pinned(Scheme::kSic, cfg, {1.1528854800173982, 1, 2757511.0});
}

TEST(Coordinated, StaggeredFourRankRunIsPinned) {
  const auto cfg = make_config(4, 1.0);
  expect_pinned(Scheme::kAic, cfg, {1.3436090074067246, 2, 4770886.0});
  expect_pinned(Scheme::kSic, cfg, {1.3431141852817399, 1, 3452271.0});
}

TEST(Coordinated, HubSeesEveryRankAndTheDecider) {
  // The base config's hub and worker count reach every rank's chain and
  // the decider: one serial shard per incremental, one full per rank, and
  // the figures of the unobserved run.
  auto cfg = make_config(2, 0.0);
  obs::Hub hub;
  cfg.base.obs = &hub;
  cfg.base.compress_workers = 1;
  const auto res =
      run_coordinated(Scheme::kAic, workload::SpecBenchmark::kMilc, cfg);
  EXPECT_EQ(res.net2, 1.0809348466105875);
  EXPECT_EQ(res.checkpoints, 5u);
  const obs::MetricsSnapshot snap = hub.metrics.snapshot();
  EXPECT_EQ(snap.counter_or_zero(obs::names::kCkptCheckpoints),
            2 * (res.checkpoints + 1));
  EXPECT_EQ(snap.counter_or_zero(obs::names::kDeltaShards),
            2 * res.checkpoints);
  EXPECT_GT(snap.counter_or_zero(obs::names::kDeciderEvaluations), 0u);
}

TEST(Coordinated, DecisionHookSeesEveryAicDecision) {
  auto cfg = make_config(2, 0.0);
  obs::Hub hub;
  cfg.base.obs = &hub;
  cfg.base.compress_workers = 1;
  std::uint64_t calls = 0;
  std::uint64_t takes = 0;
  cfg.base.decision_hook = [&](const DecisionTrace& d) {
    ++calls;
    takes += d.take ? 1 : 0;
  };
  const auto res =
      run_coordinated(Scheme::kAic, workload::SpecBenchmark::kMilc, cfg);
  EXPECT_EQ(res.net2, 1.0809348466105875) << "the hook only reads";
  const obs::MetricsSnapshot snap = hub.metrics.snapshot();
  EXPECT_GT(calls, 0u);
  EXPECT_EQ(calls, snap.counter_or_zero(obs::names::kDeciderEvaluations));
  EXPECT_EQ(takes, snap.counter_or_zero(obs::names::kDeciderTakes));
  EXPECT_EQ(takes, res.checkpoints);

  calls = 0;
  (void)run_coordinated(Scheme::kSic, workload::SpecBenchmark::kMilc, cfg);
  EXPECT_EQ(calls, 0u) << "SIC makes no AIC decisions";
}

TEST(Coordinated, MoreProcessesRaiseJobNet2) {
  // Job-level failure rate scales with N: more ranks, worse NET^2.
  const auto res2 = run_coordinated(
      Scheme::kAic, workload::SpecBenchmark::kMilc, make_config(2, 0.0));
  const auto res8 = run_coordinated(
      Scheme::kAic, workload::SpecBenchmark::kMilc, make_config(8, 0.0));
  EXPECT_GT(res8.net2, res2.net2);
}

}  // namespace
}  // namespace aic::control
