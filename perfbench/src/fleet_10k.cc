// fleet-10k: the multi-tenant control plane — bench/fleet_scale's 10k-job
// configuration on one shard. Drains are size-only, so the data plane stays
// out and the time goes to admission, the per-job loops and the transfer
// engine's event scans.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/check.h"
#include "fleet/fleet_scheduler.h"
#include "fleet/qos_policy.h"
#include "obs/names.h"
#include "workload/lanl_trace.h"

namespace perfbench {
namespace {

namespace on = aic::obs::names;

constexpr std::size_t kJobs = 10000;
constexpr double kPerJobBps = 2.0e7;  // 20 MB/s of channel per job
constexpr double kQuantumS = 5.0;
// Fixed work per --seconds (see ckpt_path.cc), and the floor per run.
constexpr double kRunsPerSecond = 0.2;
constexpr std::size_t kMinRuns = 2;
// Library trace events kept per traced run: the engine emits a span per
// chunk, far more than a ledger needs; the rest are counted as dropped.
constexpr std::size_t kFleetTraceCapacity = 1 << 14;

// The timeline digest of the default seed, pinned so a change to the
// control plane's behaviour (not just its speed) fails the benchmark.
constexpr std::uint64_t kDefaultSeed = 42;
constexpr std::uint64_t kDefaultSeedDigest = 0x92698fe9291abad3ULL;

aic::fleet::FleetConfig fleet_config(std::uint64_t seed, aic::obs::Hub* hub) {
  aic::fleet::FleetConfig cfg;
  cfg.shards = 1;
  cfg.seed = seed;
  cfg.quantum_s = kQuantumS;
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
  cfg.admission.queue_capacity = kJobs;  // queue, never reject
  cfg.obs = hub;
  return cfg;
}

std::vector<aic::workload::FleetJobSpec> fleet_mix(std::uint64_t seed) {
  aic::workload::FleetMixConfig mix;
  mix.jobs = kJobs;
  mix.tenants = 8;
  mix.seed = seed;
  mix.arrival_horizon_s = 300.0;
  mix.min_work_s = 60.0;
  mix.max_work_s = 600.0;
  mix.pages_per_process = 256;
  return aic::workload::lanl_fleet_jobs(mix);
}

aic::fleet::QosPolicy fleet_policy() {
  aic::fleet::QosPolicy policy;
  // Tenant 0 ("gold") reserves a tenth of the channel; the other seven
  // tenants are best-effort with equal weights.
  policy.set(aic::fleet::Tenant{0, "gold", {1.0, kPerJobBps * double(kJobs) / 10.0}});
  return policy;
}

}  // namespace

Result run_fleet_10k(const Options& opt) {
  Result r;
  aic::obs::Hub ledger_hub;
  Ledger ledger(opt.trace ? &ledger_hub : nullptr);
  ledger.set_recording(false);

  Samples setup, mix_s, init_s;
  std::vector<aic::workload::FleetJobSpec> mix;
  std::unique_ptr<aic::fleet::FleetScheduler> fleet;
  auto build = [&](aic::obs::Hub* hub) {
    fleet.reset();
    Ledger::Span s(ledger, "fleet.init");
    fleet = std::make_unique<aic::fleet::FleetScheduler>(
        fleet_config(opt.seed, hub), mix, fleet_policy());
    init_s.add(s.close());
  };
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet.reset();
    const double t0 = now_s();
    {
      Ledger::Span s(ledger, "workload.lanl_mix");
      mix = fleet_mix(opt.seed);
      mix_s.add(s.close());
    }
    build(nullptr);
    setup.add(now_s() - t0);
  }

  const std::size_t runs = std::max<std::size_t>(
      kMinRuns * (opt.trace ? 2 : 1),
      std::size_t(std::ceil(opt.seconds * kRunsPerSecond)));
  Samples plain, traced;
  std::uint64_t digest = 0;
  std::uint64_t rounds = 0, job_rounds = 0;
  std::uint64_t checkpoints = 0, commits = 0, chunks = 0, retries = 0;
  aic::fleet::FleetReport last;
  for (std::size_t i = 0; i < runs; ++i) {
    const bool on = opt.trace && traced_block(i);
    std::unique_ptr<aic::obs::Hub> hub;
    if (on) hub = std::make_unique<aic::obs::Hub>(kFleetTraceCapacity);
    if (fleet == nullptr || on) build(hub.get());
    ++r.attempted;
    try {
      ledger.set_recording(on);
      double wall = 0.0;
      {
        Ledger::Span op(ledger, "fleet.run");
        fleet->run();
        wall = op.close();
      }
      ledger.set_recording(false);
      (on ? traced : plain).add(wall);
      last = fleet->report();
      if (i == 0) {
        digest = last.digest;
        rounds = std::uint64_t(std::llround(last.elapsed_s / kQuantumS));
        // Active (job, round) pairs: every round a job spends between its
        // start and its finish is one pass of its control loop.
        for (std::uint64_t id = 1; id <= kJobs; ++id) {
          const aic::fleet::JobStats& js = fleet->job_stats(id);
          if (js.start_time < 0.0 || js.finish_time < js.start_time) continue;
          job_rounds += std::max<std::uint64_t>(
              1, std::uint64_t(std::ceil((js.finish_time - js.start_time) /
                                         kQuantumS)));
        }
      }
      const bool ok = last.complete && last.rejected == 0 &&
                      last.digest == digest &&
                      (opt.seed != kDefaultSeed || digest == kDefaultSeedDigest);
      if (!ok) ++r.failed;
      if (on) {
        const auto snap = hub->metrics.snapshot();
        checkpoints = snap.counter_or_zero(on::kFleetCheckpoints);
        commits = snap.counter_or_zero(on::kFleetCommits);
        chunks = snap.counter_or_zero(on::kXferChunksSent);
        retries = snap.counter_or_zero(on::kXferRetries);
      }
    } catch (const aic::CheckError& e) {
      ++r.failed;
      r.notes.push_back(std::string("CheckError: ") + e.what());
    }
    ledger.set_recording(false);
    fleet.reset();  // teardown is not part of a run
  }

  char buf[200];
  std::snprintf(buf, sizeof buf,
                "fleet: %llu jobs, digest %016llx, %llu rounds, %llu commits, "
                "complete=%d rejected=%llu",
                static_cast<unsigned long long>(last.jobs),
                static_cast<unsigned long long>(last.digest),
                static_cast<unsigned long long>(rounds),
                static_cast<unsigned long long>(last.commits),
                int(last.complete),
                static_cast<unsigned long long>(last.rejected));
  r.notes.push_back(buf);

  if (!opt.trace) {
    r.metrics["setup_s"] = setup.quantile(0.5);
    r.metrics["run_wall_s"] = plain.sum();
    r.metrics["op_p50_ms"] = plain.quantile(0.5) * 1e3;
    r.metrics["peak_rss_MiB"] = peak_rss_mib();
    r.notes.push_back(describe("setup", setup, 1.0, "s", 0.5));
    r.notes.push_back(describe("10k-job fleet run (op)", plain, 1.0, "s", 0.9));
    return r;
  }

  const double wall = traced.quantile(0.5);
  auto& m = r.metrics;
  m["workload.lanl_mix_s"] = mix_s.quantile(0.5);
  m["fleet.init_s"] = init_s.quantile(0.5);
  m["fleet.rounds"] = double(rounds);
  m["fleet.checkpoints"] = double(checkpoints);
  m["fleet.commits"] = double(commits);
  m["fleet.round_ms"] = safe_div(wall, double(rounds)) * 1e3;
  m["fleet.job_round_us"] = safe_div(wall, double(job_rounds)) * 1e6;
  m["xfer.chunks"] = double(chunks);
  m["xfer.chunk_us"] = safe_div(wall, double(chunks)) * 1e6;
  m["xfer.retries"] = double(retries);
  m["ledger.coverage"] = safe_div(ledger.covered_seconds(), traced.sum());
  m["obs.trace_overhead"] = safe_div(wall, plain.quantile(0.5)) - 1.0;
  r.notes.push_back(describe("traced fleet run", traced, 1.0, "s", 0.9));
  r.notes.push_back(describe("untraced fleet run", plain, 1.0, "s", 0.9));

  const std::string stem = opt.out_dir + "/fleet-10k-seed" + std::to_string(opt.seed);
  ledger.write_chrome_trace(stem + ".trace.json");
  write_ledger_table(stem + ".ledger.txt", "fleet-10k traced ledger",
                     ledger.layers(), traced.sum(), r);
  r.notes.push_back("trace: " + stem + ".trace.json, ledger: " + stem + ".ledger.txt");
  return r;
}

}  // namespace perfbench
