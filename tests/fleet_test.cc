// Tests for the fleet service: admission-controller decision paths,
// QosPolicy validation and installation, and the FleetScheduler's core
// guarantee — byte-identical counters, timelines, and digests under any
// shard count for a fixed seed — plus per-tenant accounting and the obs
// export.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "fleet/admission.h"
#include "fleet/fleet_scheduler.h"
#include "fleet/qos_policy.h"
#include "obs/clock.h"
#include "obs/names.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "workload/lanl_trace.h"

namespace aic::fleet {
namespace {

namespace on = obs::names;

workload::FleetJobSpec spec_of(std::uint64_t id, double footprint_mb,
                               double dirty = 0.1) {
  workload::FleetJobSpec s;
  s.job_id = id;
  s.tenant = std::uint32_t(id % 4);
  s.arrival_s = double(id);
  s.work_s = 100.0;
  s.footprint_bytes = std::uint64_t(footprint_mb * 1024 * 1024);
  s.dirty_fraction = dirty;
  return s;
}

TEST(FleetAdmission, DemandScalesWithDeltaAndInterval) {
  AdmissionConfig cfg;
  cfg.capacity_bps = 1.0e8;
  cfg.lambda_total = 1.0e-3;
  cfg.min_interval_s = 1.0;
  cfg.max_interval_s = 1.0e6;
  AdmissionController ctrl(cfg);

  const double d_small = ctrl.demand_bps(spec_of(1, 10.0));
  const double d_big = ctrl.demand_bps(spec_of(2, 1000.0));
  EXPECT_GT(d_small, 0.0);
  EXPECT_GT(d_big, d_small)
      << "a bigger delta demands more steady-state bandwidth";
  // demand = delta / w* with w* ~ sqrt(delta): sub-linear, not linear.
  EXPECT_LT(d_big, d_small * 100.0);
}

TEST(FleetAdmission, AdmitsUntilBudgetThenQueuesThenRejects) {
  AdmissionConfig cfg;
  cfg.capacity_bps = 1.0e8;
  cfg.target_utilization = 0.5;
  cfg.queue_capacity = 2;
  cfg.lambda_total = 1.0e-3;
  AdmissionController ctrl(cfg);

  const auto job = spec_of(1, 500.0);
  const double demand = ctrl.demand_bps(job);
  ASSERT_GT(demand, 0.0);
  const int fit = int(ctrl.budget_bps() / demand);
  ASSERT_GE(fit, 1);

  int admitted = 0, queued = 0, rejected = 0;
  for (int i = 0; i < fit + 5; ++i) {
    switch (ctrl.offer(spec_of(std::uint64_t(i + 1), 500.0))) {
      case AdmissionDecision::kAdmitted: ++admitted; break;
      case AdmissionDecision::kQueued: ++queued; break;
      case AdmissionDecision::kRejected: ++rejected; break;
    }
  }
  EXPECT_EQ(admitted, fit);
  EXPECT_EQ(queued, 2) << "queue_capacity bounds the backlog";
  EXPECT_EQ(rejected, 3);
  EXPECT_EQ(ctrl.admitted_total(), std::uint64_t(fit));
  EXPECT_EQ(ctrl.queued(), 2u);
  EXPECT_EQ(ctrl.rejected_total(), 3u);
  EXPECT_LE(ctrl.admitted_demand_bps(), ctrl.budget_bps());

  // Releasing one admitted job frees room for exactly one queued job.
  ctrl.release(job);
  const auto promoted = ctrl.drain_queue();
  EXPECT_EQ(promoted.size(), 1u);
  EXPECT_EQ(ctrl.queued(), 1u);
}

TEST(FleetAdmission, OversizedJobIsRejectedNotQueued) {
  AdmissionConfig cfg;
  cfg.capacity_bps = 1.0e6;
  cfg.target_utilization = 0.1;
  cfg.min_interval_s = 1.0;
  cfg.max_interval_s = 2.0;
  AdmissionController ctrl(cfg);
  // Demand = delta / w* with w* clamped tiny: far beyond the budget.
  EXPECT_EQ(ctrl.offer(spec_of(1, 10000.0)), AdmissionDecision::kRejected);
  EXPECT_EQ(ctrl.queued(), 0u)
      << "a job that can never fit must not wedge the FIFO";
  EXPECT_EQ(ctrl.rejected_total(), 1u);
}

TEST(FleetAdmission, StrictFifoPromotion) {
  AdmissionConfig cfg;
  cfg.capacity_bps = 1.0e8;
  cfg.target_utilization = 0.5;
  cfg.lambda_total = 1.0e-3;
  AdmissionController ctrl(cfg);

  // Fill the budget with 500 MB jobs; the loop's last offer queues one.
  while (ctrl.offer(spec_of(ctrl.admitted_total() + 1, 500.0)) ==
         AdmissionDecision::kAdmitted) {
  }
  ASSERT_EQ(ctrl.queued(), 1u);
  // A small job queues behind the big FIFO head.
  ASSERT_EQ(ctrl.offer(spec_of(901, 1.0)), AdmissionDecision::kQueued);

  // Free only a small job's worth of demand: the small job would fit, but
  // strict FIFO refuses to promote past the big head — no starvation of
  // large jobs.
  ctrl.release(spec_of(902, 1.0));
  EXPECT_TRUE(ctrl.drain_queue().empty());
  EXPECT_EQ(ctrl.queued(), 2u);

  // Free the head's worth: both jobs promote, in queue order.
  ctrl.release(spec_of(903, 500.0));
  const auto promoted = ctrl.drain_queue();
  ASSERT_EQ(promoted.size(), 2u);
  EXPECT_GT(promoted[0].footprint_bytes, promoted[1].footprint_bytes);
  EXPECT_EQ(ctrl.queued(), 0u);
}

TEST(FleetAdmission, ResizeRepricesDemandAndReleaseUsesCurrentWidth) {
  AdmissionConfig cfg;
  cfg.capacity_bps = 1.0e8;
  cfg.target_utilization = 0.5;
  cfg.lambda_total = 1.0e-3;
  AdmissionController ctrl(cfg);

  const auto job = spec_of(1, 200.0);
  ASSERT_EQ(ctrl.offer(job), AdmissionDecision::kAdmitted);
  const double base = ctrl.admitted_demand_bps();
  ASSERT_GT(base, 0.0);

  // Grow 4x: the reservation moves to the new width.
  ctrl.resize(job, 4.0);
  EXPECT_DOUBLE_EQ(ctrl.width_factor(1), 4.0);
  const double grown = ctrl.admitted_demand_bps();
  EXPECT_GT(grown, base);
  EXPECT_NEAR(grown, ctrl.demand_bps(job, 4.0), 1e-9);

  // Regression: release must subtract the CURRENT-width demand. Computing
  // it from the spec alone (admission-time width) leaks the grown job's
  // extra reservation forever — head-room the fleet never gets back.
  ctrl.release(job);
  EXPECT_NEAR(ctrl.admitted_demand_bps(), 0.0, 1e-9)
      << "release after a grow leaked reserved demand";
  EXPECT_DOUBLE_EQ(ctrl.width_factor(1), 1.0) << "release forgets the factor";

  // Shrink direction, witnessed through a second admitted job: an
  // admission-time release would over-free and strand b's reservation
  // below its true demand.
  const auto a = spec_of(2, 200.0);
  const auto b = spec_of(3, 200.0);
  ASSERT_EQ(ctrl.offer(a), AdmissionDecision::kAdmitted);
  ASSERT_EQ(ctrl.offer(b), AdmissionDecision::kAdmitted);
  ctrl.resize(a, 0.25);
  EXPECT_NEAR(ctrl.admitted_demand_bps(),
              ctrl.demand_bps(a, 0.25) + ctrl.demand_bps(b), 1e-9);
  ctrl.release(a);
  EXPECT_NEAR(ctrl.admitted_demand_bps(), ctrl.demand_bps(b), 1e-9)
      << "release after a shrink must not eat the other job's reservation";

  // Resizing back to the base width erases the tracked factor entirely.
  ctrl.resize(b, 2.0);
  ctrl.resize(b, 1.0);
  EXPECT_NEAR(ctrl.admitted_demand_bps(), ctrl.demand_bps(b), 1e-9);
  ctrl.release(b);
  EXPECT_NEAR(ctrl.admitted_demand_bps(), 0.0, 1e-9);
}

TEST(FleetQosPolicy, ValidatesAndApplies) {
  QosPolicy policy;
  EXPECT_THROW(policy.set(Tenant{1, "bad", {0.0, 0.0}}), CheckError);
  EXPECT_THROW(policy.set(Tenant{1, "bad", {1.0, -1.0}}), CheckError);

  policy.set(Tenant{1, "gold", {1.0, 600.0}});
  policy.set(Tenant{2, "bronze", {2.0, 0.0}});
  EXPECT_DOUBLE_EQ(policy.reserved_total_bps(), 600.0);
  EXPECT_DOUBLE_EQ(policy.qos_for(2).weight, 2.0);
  EXPECT_DOUBLE_EQ(policy.qos_for(7).weight, 1.0) << "unknown: best-effort";

  // A policy whose reservations oversubscribe the fleet channel surfaces
  // the transfer engine's typed error at startup, via the scheduler ctor.
  QosPolicy over;
  over.set(Tenant{1, "a", {1.0, 700.0}});
  over.set(Tenant{2, "b", {1.0, 500.0}});
  FleetConfig cfg;
  cfg.bandwidth_bps = 1000.0;
  EXPECT_THROW(FleetScheduler(cfg, {}, over), xfer::ReservationError);
}

FleetConfig small_fleet_config(int shards, std::uint64_t seed) {
  FleetConfig cfg;
  cfg.shards = shards;
  cfg.seed = seed;
  cfg.quantum_s = 2.0;
  cfg.bandwidth_bps = 1.0e8;
  cfg.latency_s = 1.0e-3;
  cfg.chunk_bytes = 256 * 1024;
  cfg.lambda_total = 2.0e-3;
  cfg.restart_s = 5.0;
  cfg.min_interval_s = 5.0;
  cfg.max_interval_s = 120.0;
  cfg.full_every = 4;
  cfg.max_virtual_s = 7200.0;
  return cfg;
}

std::vector<workload::FleetJobSpec> small_mix(std::uint64_t seed) {
  workload::FleetMixConfig mix;
  mix.jobs = 40;
  mix.tenants = 4;
  mix.seed = seed;
  mix.arrival_horizon_s = 60.0;
  mix.min_work_s = 30.0;
  mix.max_work_s = 120.0;
  mix.pages_per_process = 64;
  return workload::lanl_fleet_jobs(mix);
}

struct RunSummary {
  std::uint64_t digest = 0;
  FleetReport report;
  std::map<std::uint64_t, JobStats> per_job;
  double admitted_demand_bps = 0.0;
};

RunSummary run_fleet(int shards, std::uint64_t seed) {
  auto jobs = small_mix(7);
  FleetScheduler fleet(small_fleet_config(shards, seed), jobs, QosPolicy{});
  fleet.run();
  RunSummary s;
  s.digest = fleet.digest();
  s.report = fleet.report();
  for (const auto& j : jobs) s.per_job[j.job_id] = fleet.job_stats(j.job_id);
  s.admitted_demand_bps = fleet.admission().admitted_demand_bps();
  return s;
}

TEST(FleetDeterminism, ShardCountDoesNotChangeTheTimeline) {
  const RunSummary one = run_fleet(1, 42);
  const RunSummary two = run_fleet(2, 42);
  const RunSummary four = run_fleet(4, 42);

  ASSERT_TRUE(one.report.complete);
  EXPECT_GT(one.report.commits, 0u);
  EXPECT_GT(one.report.failures, 0u)
      << "the mix must exercise the failure path for this test to mean much";

  for (const RunSummary* other : {&two, &four}) {
    EXPECT_EQ(one.digest, other->digest);
    EXPECT_EQ(one.report.elapsed_s, other->report.elapsed_s);
    EXPECT_EQ(one.report.checkpoints, other->report.checkpoints);
    EXPECT_EQ(one.report.commits, other->report.commits);
    EXPECT_EQ(one.report.failures, other->report.failures);
    EXPECT_EQ(one.report.net2_bytes, other->report.net2_bytes);
    EXPECT_EQ(one.report.finished, other->report.finished);
    EXPECT_EQ(one.report.tts_p99_s, other->report.tts_p99_s);
    for (const auto& [id, stats] : one.per_job) {
      const JobStats& o = other->per_job.at(id);
      EXPECT_EQ(stats.checkpoints, o.checkpoints) << "job " << id;
      EXPECT_EQ(stats.commits, o.commits) << "job " << id;
      EXPECT_EQ(stats.failures, o.failures) << "job " << id;
      EXPECT_EQ(stats.interrupts, o.interrupts) << "job " << id;
      EXPECT_EQ(stats.net2_bytes, o.net2_bytes) << "job " << id;
      EXPECT_EQ(stats.finish_time, o.finish_time) << "job " << id;
    }
    for (const auto& [tenant, ts] : one.report.tenants) {
      const TenantStats& o = other->report.tenants.at(tenant);
      EXPECT_EQ(ts.commits, o.commits);
      EXPECT_EQ(ts.net2_bytes, o.net2_bytes);
      EXPECT_EQ(ts.tts_p99_s, o.tts_p99_s);
    }
  }
}

TEST(FleetDeterminism, TimelineIsPinned) {
  // The shard-count test compares shard counts with each other; this pins
  // the timeline itself, so a change that moved it the same way at every
  // shard count still fails.
  const RunSummary s = run_fleet(1, 42);
  ASSERT_TRUE(s.report.complete);
  EXPECT_EQ(s.report.commits, 630u);
  EXPECT_EQ(s.digest, 0x2da5e15cfe1182b1ull) << std::hex << s.digest;
  // Every job has been released, and what is left of the admission
  // controller's demand sum is rounding, which depends on the order the
  // releases arrived in.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.admitted_demand_bps),
            0x3e06800000000000ull)
      << s.admitted_demand_bps;
}

TEST(FleetDeterminism, SeedChangesTheTimeline) {
  const RunSummary a = run_fleet(1, 42);
  const RunSummary b = run_fleet(1, 43);
  EXPECT_NE(a.digest, b.digest)
      << "a different seed must produce a different failure timeline";
}

TEST(FleetDeterminism, TelemetryIsAPureReaderOfTheTimeline) {
  // The telemetry plane (sampler + SLO engine + causal log) attached to
  // the round-boundary tick must not perturb the simulation: the digest
  // stays byte-identical to the unobserved run, at every shard count.
  const RunSummary bare = run_fleet(1, 42);

  auto observed = [&](int shards) {
    auto hub = std::make_unique<obs::Hub>();
    obs::Telemetry& tel = hub->enable_telemetry();
    tel.slo().add_rule("tts: fleet.time_to_safe_seconds.p99 < 1e6");
    tel.slo().add_rule("goodput: fleet.goodput_bps > 0 budget 0.5 burn 60/600 x1");
    FleetConfig cfg = small_fleet_config(shards, 42);
    cfg.obs = hub.get();
    FleetScheduler fleet(cfg, small_mix(7), QosPolicy{});
    fleet.run();
    return std::pair(fleet.digest(), std::move(hub));
  };

  const auto [d1, hub1] = observed(1);
  const auto [d2, hub2] = observed(2);
  const auto [d4, hub4] = observed(4);
  EXPECT_EQ(d1, bare.digest)
      << "attaching telemetry changed the simulated timeline";
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1, d4);

  // The attached plane actually recorded the run: per-tenant goodput
  // series exist for every tenant in the mix, the fleet gauges ticked,
  // and causal chains closed for committed checkpoints.
  obs::Telemetry& tel = *hub1->telemetry();
  EXPECT_GT(tel.ticks(), 0u);
  const obs::TimeseriesStore& store = tel.store();
  EXPECT_NE(store.find(on::kFleetGoodputBps), nullptr);
  for (std::uint64_t tenant = 0; tenant < 4; ++tenant) {
    const obs::Series* s = store.find(
        on::tenant_metric(tenant, on::kTenantGoodputBps));
    ASSERT_NE(s, nullptr) << "tenant " << tenant;
    EXPECT_GT(s->size(), 0u);
  }
  EXPECT_GT(tel.causal().closed(), 0u);
  EXPECT_FALSE(tel.causal().slowest().empty());

  // And the frozen doc round-trips through the recorded-run JSON format
  // that aic_top consumes.
  const obs::TelemetryDoc doc = tel.doc();
  const obs::TelemetryDoc back =
      obs::telemetry_from_json(obs::telemetry_to_json(doc));
  EXPECT_EQ(back.series.size(), doc.series.size());
  EXPECT_EQ(back.rules.size(), doc.rules.size());
  EXPECT_EQ(back.status.size(), doc.status.size());
  EXPECT_EQ(back.events.size(), doc.events.size());
  EXPECT_EQ(back.slowest.size(), doc.slowest.size());
  EXPECT_DOUBLE_EQ(back.now_s, doc.now_s);
  ASSERT_FALSE(doc.slowest.empty());
  EXPECT_EQ(back.slowest[0].label, doc.slowest[0].label);
  EXPECT_DOUBLE_EQ(back.slowest[0].total_s, doc.slowest[0].total_s);
}

TEST(FleetScheduler, CompletesAndAccountsPerTenant) {
  auto jobs = small_mix(11);
  obs::Hub hub;
  FleetConfig cfg = small_fleet_config(1, 5);
  cfg.obs = &hub;
  FleetScheduler fleet(cfg, jobs, QosPolicy{});
  fleet.run();

  const FleetReport r = fleet.report();
  ASSERT_TRUE(r.complete);
  EXPECT_EQ(r.jobs, 40u);
  EXPECT_EQ(r.finished, r.admitted);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_GT(r.commits, 0u);
  EXPECT_GT(r.goodput_bps, 0.0);
  EXPECT_GE(r.tts_p99_s, r.tts_p50_s);

  // Per-tenant slices cover all four tenants and sum to the totals.
  ASSERT_EQ(r.tenants.size(), 4u);
  std::uint64_t commits = 0, net2 = 0, finished = 0;
  for (const auto& [tenant, t] : r.tenants) {
    commits += t.commits;
    net2 += t.net2_bytes;
    finished += t.jobs_finished;
    EXPECT_GT(t.goodput_bps, 0.0) << "tenant " << tenant;
  }
  EXPECT_EQ(commits, r.commits);
  EXPECT_EQ(net2, r.net2_bytes);
  EXPECT_EQ(finished, r.finished);

  // The obs export mirrors the report: aggregate counters and per-tenant
  // gauges under fleet.tenant.<id>.*.
  const obs::MetricsSnapshot snap = hub.metrics.snapshot();
  EXPECT_EQ(snap.counter_or_zero(on::kFleetCommits), r.commits);
  EXPECT_EQ(snap.counter_or_zero(on::kFleetJobsFinished), r.finished);
  EXPECT_EQ(snap.counter_or_zero(on::kFleetNet2Bytes), r.net2_bytes);
  const auto tenant0 = r.tenants.begin()->first;
  EXPECT_GT(
      snap.gauge_or(on::tenant_metric(tenant0, on::kTenantGoodputBps), 0.0),
      0.0);
}

TEST(FleetScheduler, PhaseWallSplitsTheRunWall) {
  FleetScheduler fleet(small_fleet_config(1, 5), small_mix(11), QosPolicy{});
  const std::uint64_t t0 = obs::wall_now_ns();
  fleet.run();
  const double wall = obs::wall_seconds_since(t0);
  const FleetScheduler::PhaseWall& p = fleet.phase_wall();
  double sum = 0.0;
  for (const double phase_s :
       {p.admission_s, p.shards_s, p.merge_s, p.apply_s, p.boundary_s}) {
    EXPECT_GE(phase_s, 0.0);
    sum += phase_s;
  }
  EXPECT_GT(p.apply_s, 0.0);
  EXPECT_LE(sum, wall) << "every phase lies inside run()";
}

TEST(FleetScheduler, ThousandJobDigestIsPinned) {
  // bench/fleet_scale's 1k-job point: 8 tenants, gold reserves a tenth of
  // a channel provisioned at 20 MB/s per job, 4 MiB chunks, 5 s quantum.
  constexpr std::size_t kJobs = 1000;
  constexpr double kPerJobBps = 2.0e7;
  FleetConfig cfg;
  cfg.shards = 1;
  cfg.seed = 42;
  cfg.quantum_s = 5.0;
  cfg.bandwidth_bps = kPerJobBps * double(kJobs);
  cfg.latency_s = 1.0e-3;
  cfg.chunk_bytes = 4 * 1024 * 1024;
  cfg.lambda_total = 1.0e-3;
  cfg.restart_s = 10.0;
  cfg.min_interval_s = 15.0;
  cfg.max_interval_s = 600.0;
  cfg.full_every = 8;
  cfg.max_virtual_s = 86400.0;
  cfg.admission.target_utilization = 0.7;
  cfg.admission.queue_capacity = kJobs;
  workload::FleetMixConfig mix;
  mix.jobs = kJobs;
  mix.tenants = 8;
  mix.seed = 42;
  mix.arrival_horizon_s = 300.0;
  mix.min_work_s = 60.0;
  mix.max_work_s = 600.0;
  mix.pages_per_process = 256;
  QosPolicy policy;
  policy.set(Tenant{0, "gold", {1.0, cfg.bandwidth_bps / 10.0}});

  FleetScheduler fleet(cfg, workload::lanl_fleet_jobs(mix), policy);
  fleet.run();
  const FleetReport r = fleet.report();
  ASSERT_TRUE(r.complete);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.commits, 7900u);
  EXPECT_EQ(r.digest, 0xd0375be119a6cfa0ull) << std::hex << r.digest;
}

TEST(FleetScheduler, AdmissionBackpressureSerializesJobs) {
  auto jobs = small_mix(13);
  FleetConfig cfg = small_fleet_config(1, 9);
  // Shrink the budget until only a few jobs fit at a time: the rest must
  // flow through the queue, and the fleet must still finish everyone.
  cfg.admission.target_utilization = 0.02;
  cfg.admission.queue_capacity = 64;
  FleetScheduler fleet(cfg, jobs, QosPolicy{});
  fleet.run();

  const FleetReport r = fleet.report();
  ASSERT_TRUE(r.complete);
  EXPECT_GT(r.queued, 0u) << "the tight budget must force queueing";
  EXPECT_EQ(r.finished, r.admitted);
  EXPECT_EQ(r.finished + r.rejected, r.jobs);
  EXPECT_GT(r.elapsed_s, small_fleet_config(1, 9).quantum_s)
      << "serialized admission stretches the fleet timeline";
}

TEST(FleetScheduler, ReservedTenantSeesFasterTimeToSafe) {
  auto jobs = small_mix(17);
  FleetConfig cfg = small_fleet_config(1, 21);
  // A congested channel: all tenants contend hard for drain bandwidth.
  cfg.bandwidth_bps = 2.0e6;
  QosPolicy policy;
  policy.set(Tenant{0, "gold", {1.0, 1.0e6}});  // half the channel, reserved

  FleetScheduler fleet(cfg, jobs, policy);
  fleet.run();
  const FleetReport r = fleet.report();
  ASSERT_GT(r.commits, 0u);
  const TenantStats& gold = r.tenants.at(0);
  ASSERT_GT(gold.commits, 0u);
  const double gold_mean_tts = gold.tts_sum_s / double(gold.commits);
  double be_tts_sum = 0.0;
  std::uint64_t be_commits = 0;
  for (const auto& [tenant, t] : r.tenants) {
    if (tenant == 0) continue;
    be_tts_sum += t.tts_sum_s;
    be_commits += t.commits;
  }
  ASSERT_GT(be_commits, 0u);
  const double be_mean_tts = be_tts_sum / double(be_commits);
  EXPECT_LT(gold_mean_tts, be_mean_tts)
      << "a hard reservation must shield the tenant from contention";
}

/// The small mix with elastic reconfigurations layered on: every third job
/// grows 2x a third of the way in, every fifth halves near the end —
/// boundaries inside the work span, so failures can rewind across them.
std::vector<workload::FleetJobSpec> elastic_mix(std::uint64_t seed) {
  auto jobs = small_mix(seed);
  for (auto& j : jobs) {
    if (j.job_id % 3 == 0) j.resizes.push_back({j.work_s * 0.3, 2.0});
    if (j.job_id % 5 == 0) j.resizes.push_back({j.work_s * 0.7, 0.5});
  }
  return jobs;
}

RunSummary run_elastic(int shards, std::size_t rewind_budget,
                       obs::Hub* hub = nullptr, std::uint64_t seed = 42,
                       double lambda_total = 2.0e-3) {
  auto jobs = elastic_mix(7);
  FleetConfig cfg = small_fleet_config(shards, seed);
  cfg.lambda_total = lambda_total;
  cfg.rewind_budget = rewind_budget;
  cfg.obs = hub;
  FleetScheduler fleet(cfg, jobs, QosPolicy{});
  fleet.run();
  RunSummary s;
  s.digest = fleet.digest();
  s.report = fleet.report();
  for (const auto& j : jobs) s.per_job[j.job_id] = fleet.job_stats(j.job_id);
  return s;
}

TEST(FleetElastic, ShardCountDoesNotChangeTheElasticTimeline) {
  const RunSummary one = run_elastic(1, 4);
  const RunSummary two = run_elastic(2, 4);
  const RunSummary four = run_elastic(4, 4);

  ASSERT_TRUE(one.report.complete);
  EXPECT_GT(one.report.resizes, 0u)
      << "the elastic mix must actually reconfigure";
  EXPECT_GT(one.report.failures, 0u);
  EXPECT_GT(one.report.rewind_discards, 0u)
      << "budget 4 must overflow on this mix";

  for (const RunSummary* other : {&two, &four}) {
    EXPECT_EQ(one.digest, other->digest)
        << "resize actions and rewind evictions are digest-covered: any "
           "shard-dependence in the elastic path shows up here";
    EXPECT_EQ(one.report.elapsed_s, other->report.elapsed_s);
    EXPECT_EQ(one.report.checkpoints, other->report.checkpoints);
    EXPECT_EQ(one.report.commits, other->report.commits);
    EXPECT_EQ(one.report.resizes, other->report.resizes);
    EXPECT_EQ(one.report.rewind_discards, other->report.rewind_discards);
    EXPECT_EQ(one.report.rewind_live_bytes, other->report.rewind_live_bytes);
    EXPECT_EQ(one.report.net2_bytes, other->report.net2_bytes);
    for (const auto& [id, stats] : one.per_job) {
      const JobStats& o = other->per_job.at(id);
      EXPECT_EQ(stats.resizes, o.resizes) << "job " << id;
      EXPECT_EQ(stats.checkpoints, o.checkpoints) << "job " << id;
      EXPECT_EQ(stats.commits, o.commits) << "job " << id;
      EXPECT_EQ(stats.finish_time, o.finish_time) << "job " << id;
    }
  }
}

struct ElasticPin {
  std::uint64_t commits = 0;
  std::uint64_t failures = 0;
  std::uint64_t interrupts = 0;
  std::uint64_t resumes = 0;
  std::uint64_t resizes = 0;
  std::uint64_t resize_actions = 0;  // forward resizes plus reverts
  std::uint64_t rewind_discards = 0;
  std::uint64_t digest = 0;
};

ElasticPin elastic_pin(int shards, std::uint64_t seed, double lambda_total) {
  obs::Hub hub;
  const RunSummary s = run_elastic(shards, 4, &hub, seed, lambda_total);
  EXPECT_TRUE(s.report.complete);
  ElasticPin p;
  p.commits = s.report.commits;
  p.failures = s.report.failures;
  for (const auto& [id, stats] : s.per_job) {
    p.interrupts += stats.interrupts;
    p.resumes += stats.resumes;
  }
  p.resizes = s.report.resizes;
  p.resize_actions = hub.metrics.snapshot().counter_or_zero(on::kFleetResizes);
  p.rewind_discards = s.report.rewind_discards;
  p.digest = s.digest;
  return p;
}

TEST(FleetElastic, ElasticTimelineIsPinned) {
  // The shard-count test compares shard counts with each other; this pins
  // the one-shard elastic timeline with rewind retention on. Unlike the
  // 1000-job pin, it reaches resizes and rewind evictions.
  const ElasticPin p = elastic_pin(1, 42, 2.0e-3);
  EXPECT_EQ(p.commits, 616u);
  EXPECT_EQ(p.failures, 3u);
  EXPECT_EQ(p.interrupts, 0u);
  EXPECT_EQ(p.resizes, 21u);
  EXPECT_EQ(p.resize_actions, 21u);
  EXPECT_EQ(p.rewind_discards, 456u);
  EXPECT_EQ(p.digest, 0xb815ee2e09a386f4ull) << std::hex << p.digest;
}

TEST(FleetElastic, RewoundResizeTimelineIsPinned) {
  // Seed 12 at 1.5x the failure rate: failures rewind jobs below a resize
  // boundary, so the width reverts and the resize re-fires when progress
  // crosses it again, and a level-2 strike interrupts and resumes a drain.
  // Pinned at one shard and held at two and four.
  const ElasticPin p = elastic_pin(1, 12, 3.0e-3);
  EXPECT_EQ(p.commits, 664u);
  EXPECT_EQ(p.failures, 13u);
  EXPECT_EQ(p.interrupts, 1u);
  EXPECT_EQ(p.resumes, 1u);
  EXPECT_EQ(p.resizes, 23u);
  EXPECT_EQ(p.resize_actions, 25u) << "two reverts";
  EXPECT_EQ(p.rewind_discards, 504u);
  EXPECT_EQ(p.digest, 0xb40483803d6fdfdfull) << std::hex << p.digest;
  for (const int shards : {2, 4}) {
    const ElasticPin o = elastic_pin(shards, 12, 3.0e-3);
    EXPECT_EQ(o.digest, p.digest) << shards << " shards";
    EXPECT_EQ(o.resize_actions, p.resize_actions) << shards << " shards";
    EXPECT_EQ(o.interrupts, p.interrupts) << shards << " shards";
  }
}

TEST(FleetElastic, RevertedResizeDrawsAFreshFailureStream) {
  // Seed 42 at 3.5e-3: strikes rewind jobs below their resize boundary.
  // A failure stream keyed by the width alone would replay the same first
  // strike after every re-crossing, before the next commit, so job 6
  // would fail until max_virtual_s (469 times). Keyed by the count of
  // width transitions, every re-crossing draws a fresh stream.
  const RunSummary s = run_elastic(1, 4, nullptr, 42, 3.5e-3);
  EXPECT_TRUE(s.report.complete);
  EXPECT_EQ(s.report.failures, 12u);
  for (const auto& [id, stats] : s.per_job) {
    EXPECT_GE(stats.finish_time, 0.0) << "job " << id;
  }
}

TEST(FleetElastic, RewindBudgetBoundsRetainedStorage) {
  obs::Hub hub;
  const std::size_t k = 4;
  const RunSummary s = run_elastic(1, k, &hub);
  const FleetReport& r = s.report;
  ASSERT_TRUE(r.complete);
  ASSERT_GT(r.commits, 0u);
  EXPECT_GT(r.rewind_discards, 0u);
  EXPECT_GT(r.rewind_live_bytes, 0u);
  EXPECT_LT(r.rewind_live_bytes, r.committed_bytes)
      << "retention must hold less than the keep-everything total";

  // The hard bound that lets a 10k-job fleet cap its storage: each job
  // retains at most k checkpoints, each at most a full at its widest
  // (2x grow in this mix).
  std::uint64_t cap = 0;
  for (const auto& j : elastic_mix(7)) cap += k * 2 * j.footprint_bytes;
  EXPECT_LE(r.rewind_live_bytes, cap);

  // The era-ladder guarantee, fleet-wide: the worst per-job rewind gap
  // stays inside its certified envelope at the final horizon.
  EXPECT_GT(r.rewind_max_gap_s, 0.0);
  EXPECT_LE(r.rewind_max_gap_s, r.rewind_gap_bound_s);

  // Telemetry: resize counter (which also counts rewind-induced reverts)
  // and retention gauges mirror the report.
  const obs::MetricsSnapshot snap = hub.metrics.snapshot();
  EXPECT_GE(snap.counter_or_zero(on::kFleetResizes), r.resizes);
  EXPECT_GT(snap.counter_or_zero(on::kFleetResizes), 0u);
  EXPECT_EQ(snap.gauge_or(on::kFleetRewindLiveBytes, -1.0),
            double(r.rewind_live_bytes));
  EXPECT_EQ(snap.gauge_or(on::kFleetRewindDiscards, -1.0),
            double(r.rewind_discards));
  EXPECT_EQ(snap.gauge_or(on::kFleetRewindMaxGapSeconds, -1.0),
            r.rewind_max_gap_s);
}

TEST(FleetElastic, DisabledBudgetReportsNoRetention) {
  const RunSummary s = run_elastic(1, 0);
  ASSERT_TRUE(s.report.complete);
  EXPECT_GT(s.report.resizes, 0u);
  EXPECT_EQ(s.report.rewind_discards, 0u);
  EXPECT_EQ(s.report.rewind_live_bytes, 0u);
  EXPECT_EQ(s.report.rewind_max_gap_s, 0.0);
}

TEST(FleetElastic, ValidatesResizeLists) {
  auto jobs = small_mix(7);
  jobs[0].resizes = {{50.0, 2.0}, {40.0, 0.5}};  // not ascending
  EXPECT_THROW(
      FleetScheduler(small_fleet_config(1, 1), jobs, QosPolicy{}),
      CheckError);
  jobs[0].resizes = {{50.0, -1.0}};  // nonpositive factor
  EXPECT_THROW(
      FleetScheduler(small_fleet_config(1, 1), jobs, QosPolicy{}),
      CheckError);
}

}  // namespace
}  // namespace aic::fleet
