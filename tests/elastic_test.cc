// Elastic (malleable) jobs: resizes migrate footprint and shift the
// dirty-page statistics, the restart property survives reconfigurations,
// and the failure simulator re-derives costs/exposure and re-plans the
// work span at every resize — recovering byte-exact throughout.
#include <gtest/gtest.h>

#include <cmath>

#include "failure/failure.h"
#include "mem/snapshot.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "sim/failure_sim.h"
#include "workload/elastic.h"

namespace aic::workload {
namespace {

ElasticProfile bzip2_profile(std::vector<ResizeEvent> resizes) {
  ElasticProfile ep;
  ep.base = spec_profile(SpecBenchmark::kBzip2, 0.125);
  ep.base_cores = 4;
  ep.resizes = std::move(resizes);
  return ep;
}

/// Dirty pages produced by `window` seconds of stepping from the current
/// position (leaves the tracker re-armed).
std::uint64_t dirty_in_window(Workload& wl, mem::AddressSpace& space,
                              double window) {
  space.protect_all();
  wl.step(space, window);
  return space.dirty_page_count();
}

TEST(ElasticWorkload, GrowMigratesFootprintAndShiftsDirtyStats) {
  ElasticWorkload wl(bzip2_profile({{40.0, 8}}));
  mem::AddressSpace space;
  wl.initialize(space);
  const std::uint64_t fp0 = wl.footprint_pages();

  wl.step(space, 30.0);  // well before the resize
  const std::uint64_t dirty_before = dirty_in_window(wl, space, 8.0);
  ASSERT_EQ(wl.applied_resizes(), 0u);

  // The next window straddles the resize: footprint doubles, rates double,
  // and the migration burst rewrites a slice of the new footprint.
  const std::uint64_t dirty_across = dirty_in_window(wl, space, 8.0);
  ASSERT_EQ(wl.applied_resizes(), 1u);
  EXPECT_EQ(wl.cores(), 8u);
  EXPECT_DOUBLE_EQ(wl.scale_factor(), 2.0);
  EXPECT_EQ(wl.footprint_pages(), 2 * fp0);

  const auto& mig = wl.last_migration();
  ASSERT_TRUE(mig.has_value());
  EXPECT_EQ(mig->cores_before, 4u);
  EXPECT_EQ(mig->cores_after, 8u);
  EXPECT_GT(mig->pages_allocated, 0u);
  EXPECT_GT(mig->pages_rewritten, 0u);
  EXPECT_EQ(mig->pages_freed, 0u);

  // The predictor-visible signal: measurably more dirty pages per window.
  EXPECT_GT(dirty_across, dirty_before + dirty_before / 2)
      << "resize did not shift the dirty-page statistics";
}

TEST(ElasticWorkload, ShrinkFreesTheFootprintTail) {
  ElasticWorkload wl(bzip2_profile({{40.0, 1}}));
  mem::AddressSpace space;
  wl.initialize(space);
  const std::uint64_t fp0 = wl.footprint_pages();

  wl.step(space, 45.0);
  ASSERT_EQ(wl.applied_resizes(), 1u);
  EXPECT_EQ(wl.cores(), 1u);
  EXPECT_EQ(wl.footprint_pages(), fp0 / 4);

  const auto& mig = wl.last_migration();
  ASSERT_TRUE(mig.has_value());
  EXPECT_GT(mig->pages_freed, 0u);
  // Everything beyond the packed footprint's heap region is gone.
  for (mem::PageId id : space.live_pages()) {
    EXPECT_LT(id, 2 * wl.footprint_pages());
  }
}

TEST(ElasticWorkload, RestoreBeforeResizeReplaysByteIdentically) {
  const ElasticProfile ep = bzip2_profile({{40.0, 8}, {90.0, 2}});

  // Straight-through reference.
  ElasticWorkload ref(ep);
  mem::AddressSpace ref_space;
  ref.initialize(ref_space);
  ref.step(ref_space, ref.base_time());
  const mem::Snapshot final_ref = mem::Snapshot::capture(ref_space);

  // Checkpoint before the first resize, restore into a fresh instance, and
  // replay across both resizes.
  ElasticWorkload a(ep);
  mem::AddressSpace sa;
  a.initialize(sa);
  a.step(sa, 33.0);
  ASSERT_EQ(a.applied_resizes(), 0u);
  const Bytes cpu = a.cpu_state();
  const mem::Snapshot snap = mem::Snapshot::capture(sa);

  ElasticWorkload b(ep);
  mem::AddressSpace sb = snap.materialize();
  b.restore_cpu_state(cpu);
  EXPECT_EQ(b.applied_resizes(), 0u);
  EXPECT_DOUBLE_EQ(b.progress(), 33.0);
  b.step(sb, b.base_time());
  EXPECT_EQ(b.applied_resizes(), 2u);
  EXPECT_TRUE(final_ref.equals_space(sb));
}

TEST(ElasticWorkload, RestoreBetweenResizesRederivesTheSegment) {
  const ElasticProfile ep = bzip2_profile({{40.0, 8}, {90.0, 2}});

  ElasticWorkload ref(ep);
  mem::AddressSpace ref_space;
  ref.initialize(ref_space);
  ref.step(ref_space, ref.base_time());
  const mem::Snapshot final_ref = mem::Snapshot::capture(ref_space);

  ElasticWorkload a(ep);
  mem::AddressSpace sa;
  a.initialize(sa);
  a.step(sa, 61.0);  // between the two resizes
  ASSERT_EQ(a.applied_resizes(), 1u);
  const Bytes cpu = a.cpu_state();
  const mem::Snapshot snap = mem::Snapshot::capture(sa);

  ElasticWorkload b(ep);
  mem::AddressSpace sb = snap.materialize();
  b.restore_cpu_state(cpu);
  EXPECT_EQ(b.applied_resizes(), 1u);
  EXPECT_EQ(b.cores(), 8u);
  b.step(sb, b.base_time());
  EXPECT_TRUE(final_ref.equals_space(sb));
}

}  // namespace
}  // namespace aic::workload

namespace aic::sim {
namespace {

FailureSimConfig elastic_sim_config(std::uint64_t seed) {
  FailureSimConfig cfg;
  cfg.benchmark = workload::SpecBenchmark::kBzip2;
  cfg.workload_scale = 0.125;
  cfg.failures = failure::FailureSpec::from_total(0.02);
  cfg.checkpoint_interval = 10.0;
  cfg.seed = seed;
  cfg.resizes = {{40.0, 8}, {90.0, 2}};
  return cfg;
}

class ElasticSimFixture : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ElasticSimFixture, RecoversByteExactAcrossResizes) {
  FailureSimConfig cfg = elastic_sim_config(GetParam());
  FailureSimResult res = run_failure_sim(cfg);
  EXPECT_TRUE(res.final_state_verified)
      << "memory diverged after " << res.restores << " restores across "
      << res.resizes_applied << " resizes";
  EXPECT_GE(res.resizes_applied, 2);
  EXPECT_GE(res.replans, res.resizes_applied)
      << "every reconfiguration must re-plan w_L*";
  EXPECT_GT(res.turnaround, res.base_time);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ElasticSimFixture,
                         ::testing::Values(7, 21, 42));

TEST(ElasticSim, ReplanMovesTheWorkSpan) {
  FailureSimConfig cfg = elastic_sim_config(5);
  FailureSimResult on = run_failure_sim(cfg);
  cfg.replan_on_resize = false;
  FailureSimResult off = run_failure_sim(cfg);

  EXPECT_TRUE(on.final_state_verified);
  EXPECT_TRUE(off.final_state_verified);
  EXPECT_GT(on.replans, 0);
  EXPECT_EQ(off.replans, 0);
  EXPECT_NE(on.final_checkpoint_interval, cfg.checkpoint_interval)
      << "the re-plan never moved the interval off its static value";
  EXPECT_DOUBLE_EQ(off.final_checkpoint_interval, cfg.checkpoint_interval);
}

TEST(ElasticSim, TimelineIsDeterministic) {
  const FailureSimConfig cfg = elastic_sim_config(13);
  FailureSimResult a = run_failure_sim(cfg);
  FailureSimResult b = run_failure_sim(cfg);
  EXPECT_DOUBLE_EQ(a.turnaround, b.turnaround);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  EXPECT_EQ(a.restores, b.restores);
  EXPECT_EQ(a.resizes_applied, b.resizes_applied);
  EXPECT_EQ(a.replans, b.replans);
  EXPECT_DOUBLE_EQ(a.final_checkpoint_interval, b.final_checkpoint_interval);
}

TEST(ElasticSim, EmitsResizeAndReplanTelemetry) {
  obs::Hub hub;
  FailureSimConfig cfg = elastic_sim_config(3);
  cfg.failures = failure::FailureSpec{};  // clean run: exactly 2 resizes
  cfg.obs = &hub;
  FailureSimResult res = run_failure_sim(cfg);
  ASSERT_TRUE(res.final_state_verified);
  EXPECT_EQ(hub.metrics.counter(obs::names::kSimResizes)->value(),
            std::uint64_t(res.resizes_applied));
  EXPECT_EQ(hub.metrics.counter(obs::names::kSimReplans)->value(),
            std::uint64_t(res.replans));
  EXPECT_EQ(res.resizes_applied, 2);
}

TEST(ElasticSim, RewindBudgetPrunesAndStillRecovers) {
  FailureSimConfig cfg = elastic_sim_config(9);
  cfg.rewind_budget = 4;
  FailureSimResult res = run_failure_sim(cfg);
  EXPECT_TRUE(res.final_state_verified);
  EXPECT_GT(res.checkpoints_pruned, 0)
      << "a " << res.checkpoints << "-checkpoint run must overflow budget 4";
}

TEST(ElasticSim, RewindBudgetWorksUnderTheTransferEngine) {
  FailureSimConfig cfg;
  cfg.benchmark = workload::SpecBenchmark::kBzip2;
  cfg.workload_scale = 0.125;
  cfg.failures = failure::FailureSpec::from_total(0.02);
  cfg.checkpoint_interval = 10.0;
  cfg.seed = 17;
  cfg.use_transfer_engine = true;
  cfg.rewind_budget = 4;
  FailureSimResult res = run_failure_sim(cfg);
  EXPECT_TRUE(res.final_state_verified);
  EXPECT_GT(res.checkpoints_pruned, 0);
}

TEST(ElasticSim, ResizesRejectTheTransferEngineVariant) {
  FailureSimConfig cfg = elastic_sim_config(1);
  cfg.use_transfer_engine = true;
  EXPECT_THROW((void)run_failure_sim(cfg), CheckError);
}

}  // namespace
}  // namespace aic::sim
