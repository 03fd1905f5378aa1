// Fleet-scale bench: the multi-tenant checkpoint service (src/fleet) at
// 100 -> 1000 -> 10000 -> 100000 concurrent LANL-candidate jobs. The
// channel is provisioned proportionally to the fleet (a fixed per-job
// share), so the scaling law to check is: aggregate goodput and NET^2 grow
// with the fleet while p99 time-to-safe stays bounded. The bench also re-runs the
// base scale at 1/2/4 shards and checks the timeline digest is
// byte-identical — the determinism contract, enforced outside the unit
// suite too.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "fleet/fleet_scheduler.h"
#include "fleet/qos_policy.h"
#include "obs/clock.h"
#include "obs/names.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "workload/lanl_trace.h"

using namespace aic;

namespace {

// 20 MB/s of drain bandwidth per hosted job: generous enough that
// admission passes the whole mix and the scaling law is about the fleet,
// not about queueing (scripts covering backpressure live in the tests).
constexpr double kPerJobBps = 2.0e7;

// Wall time is a tracked metric at the 10k-job point: it repeats kWallReps
// times so aic_benchdiff's bootstrap gates a distribution, not one sample,
// and each run's wall is split into the fleet's round phases. The wall of
// building that point's job mix is tracked there too.
// Smaller points finish in milliseconds, too short to gate. The 100k point
// only runs in the full sweep, kScaleRatioReps times, with the same phase
// split: its median wall over the 10k median is the control plane's
// scaling ratio (linear scaling reads 10x), and its phases show which part
// of a round grows faster. Both points report their median run.
constexpr std::size_t kWallSampledJobs = 10000;
constexpr int kWallReps = 5;
constexpr std::size_t kScaleRatioJobs = 100000;
constexpr int kScaleRatioReps = 3;

fleet::FleetConfig fleet_config(int shards, std::size_t jobs) {
  fleet::FleetConfig cfg;
  cfg.shards = shards;
  cfg.seed = 42;
  cfg.quantum_s = 5.0;
  cfg.bandwidth_bps = kPerJobBps * double(jobs);
  cfg.latency_s = 1.0e-3;
  cfg.chunk_bytes = 4 * 1024 * 1024;
  cfg.lambda_total = 1.0e-3;
  cfg.restart_s = 10.0;
  cfg.min_interval_s = 15.0;
  cfg.max_interval_s = 600.0;
  cfg.full_every = 8;
  cfg.max_virtual_s = 86400.0;
  cfg.admission.target_utilization = 0.7;
  cfg.admission.queue_capacity = jobs;  // queue, never reject
  return cfg;
}

/// One scale's job mix, built once and shared by every run at that scale.
struct Mix {
  std::vector<workload::FleetJobSpec> jobs;
  double build_s = 0.0;  // wall time of lanl_fleet_jobs
};

Mix fleet_mix(std::size_t jobs) {
  workload::FleetMixConfig mix;
  mix.jobs = jobs;
  mix.tenants = 8;
  mix.seed = 42;
  mix.arrival_horizon_s = 300.0;
  mix.min_work_s = bench::smoke_pick(60.0, 30.0);
  mix.max_work_s = bench::smoke_pick(600.0, 90.0);
  mix.pages_per_process = 256;
  const std::uint64_t t0 = obs::wall_now_ns();
  Mix m{workload::lanl_fleet_jobs(mix)};
  m.build_s = obs::wall_seconds_since(t0);
  return m;
}

fleet::QosPolicy fleet_policy(double bandwidth_bps) {
  fleet::QosPolicy policy;
  // Tenant 0 holds a hard reservation for a tenth of the channel; the
  // other seven are best-effort with equal weights.
  policy.set(fleet::Tenant{0, "gold", {1.0, bandwidth_bps / 10.0}});
  return policy;
}

struct ScaleResult {
  std::size_t jobs = 0;
  double wall_s = 0.0;
  fleet::FleetScheduler::PhaseWall phases;
  fleet::FleetReport report;
};

ScaleResult run_scale(const Mix& mix, int shards) {
  const fleet::FleetConfig cfg = fleet_config(shards, mix.jobs.size());
  fleet::FleetScheduler fleet(cfg, mix.jobs,
                              fleet_policy(cfg.bandwidth_bps));
  const std::uint64_t t0 = obs::wall_now_ns();
  fleet.run();
  ScaleResult r;
  r.jobs = mix.jobs.size();
  r.wall_s = obs::wall_seconds_since(t0);
  r.phases = fleet.phase_wall();
  r.report = fleet.report();
  return r;
}

/// Same run with the full telemetry plane attached: per-round sampling,
/// SLO rules with burn windows, and causal time-to-safe chains.
ScaleResult run_scale_telemetry(const Mix& mix, int shards) {
  obs::Hub hub;
  obs::Telemetry& tel = hub.enable_telemetry();
  namespace on = obs::names;
  tel.slo().add_rule(std::string("goodput: ") + on::kFleetGoodputBps +
                     " > 1.0");
  tel.slo().add_rule(std::string("tts-p99: ") + on::kFleetTimeToSafeSeconds +
                     ".p99 < 120 budget 0.1 burn 60/600 x2");
  fleet::FleetConfig cfg = fleet_config(shards, mix.jobs.size());
  cfg.obs = &hub;
  fleet::FleetScheduler fleet(cfg, mix.jobs,
                              fleet_policy(cfg.bandwidth_bps));
  const std::uint64_t t0 = obs::wall_now_ns();
  fleet.run();
  ScaleResult r;
  r.jobs = mix.jobs.size();
  r.wall_s = obs::wall_seconds_since(t0);
  r.report = fleet.report();
  return r;
}

}  // namespace

int main() {
  bench::Session session("fleet_scale");
  bench::Checker check;

  const std::vector<std::size_t> scales =
      bench::smoke_mode() ? std::vector<std::size_t>{30, 100}
                          : std::vector<std::size_t>{100, 1000, 10000,
                                                     100000};
  std::vector<Mix> mixes;
  for (const std::size_t jobs : scales) mixes.push_back(fleet_mix(jobs));

  // Determinism first: the base scale must produce one timeline no matter
  // how the simulation core is sharded.
  {
    const Mix& base = mixes.front();
    const ScaleResult one = run_scale(base, 1);
    const ScaleResult two = run_scale(base, 2);
    const ScaleResult four = run_scale(base, 4);
    check.expect(one.report.digest == two.report.digest &&
                     one.report.digest == four.report.digest,
                 "timeline digest is byte-identical at 1/2/4 shards");
    check.expect(one.report.elapsed_s == two.report.elapsed_s &&
                     one.report.elapsed_s == four.report.elapsed_s,
                 "virtual elapsed time is shard-count invariant");

    // Telemetry is a pure reader: re-running the same scales with the
    // full plane attached (sampler + SLO rules + causal log, ticked at
    // every round boundary) must reproduce the same digest at every shard
    // count, and the observed run's goodput must stay within 2% of the
    // unobserved one — the observability tax the fleet is allowed to pay.
    const ScaleResult t_one = run_scale_telemetry(base, 1);
    const ScaleResult t_two = run_scale_telemetry(base, 2);
    const ScaleResult t_four = run_scale_telemetry(base, 4);
    check.expect(t_one.report.digest == one.report.digest &&
                     t_two.report.digest == one.report.digest &&
                     t_four.report.digest == one.report.digest,
                 "telemetry-on digest matches telemetry-off at 1/2/4 shards");
    const double off = one.report.goodput_bps;
    const double on = t_one.report.goodput_bps;
    check.expect(off > 0.0 && std::abs(on - off) <= 0.02 * off,
                 "telemetry-on goodput within 2% of telemetry-off");
    session.sample("fleet.telemetry.goodput_delta_frac", "frac",
                   off > 0.0 ? std::abs(on - off) / off : 0.0);
  }

  TextTable table("Fleet scaling — proportionally provisioned channel");
  table.set_header({"jobs", "elapsed (virt s)", "goodput MB/s", "p99 tts s",
                    "NET^2 GB", "failures", "wall s"});

  // A run's wall and its split into the fleet's round phases.
  const auto sample_wall = [&](const std::string& tag, const ScaleResult& r) {
    session.sample(tag + ".wall_s", "s", r.wall_s);
    const fleet::FleetScheduler::PhaseWall& p = r.phases;
    session.sample(tag + ".admission_s", "s", p.admission_s);
    session.sample(tag + ".shards_s", "s", p.shards_s);
    session.sample(tag + ".merge_s", "s", p.merge_s);
    session.sample(tag + ".apply_s", "s", p.apply_s);
    session.sample(tag + ".boundary_s", "s", p.boundary_s);
  };
  std::vector<ScaleResult> results;
  for (const Mix& mix : mixes) {
    const std::size_t jobs = mix.jobs.size();
    const std::string tag = "fleet.jobs" + std::to_string(jobs);
    if (jobs == kWallSampledJobs) {
      session.sample(tag + ".mix_s", "s", mix.build_s);
    }
    const int wall_reps = jobs == kWallSampledJobs  ? kWallReps
                          : jobs == kScaleRatioJobs ? kScaleRatioReps
                                                    : 0;
    std::vector<ScaleResult> reps{run_scale(mix, 1)};
    for (int i = 1; i < wall_reps; ++i) reps.push_back(run_scale(mix, 1));
    if (wall_reps > 0) {
      for (const ScaleResult& rep : reps) sample_wall(tag, rep);
    }
    std::sort(reps.begin(), reps.end(),
              [](const ScaleResult& a, const ScaleResult& b) {
                return a.wall_s < b.wall_s;
              });
    const ScaleResult& r = reps[reps.size() / 2];  // the median run
    results.push_back(r);
    const auto& rep = r.report;

    session.sample(tag + ".goodput_bps", "Bps", rep.goodput_bps,
                   /*higher_is_better=*/true);
    session.sample(tag + ".tts_p99_s", "s", rep.tts_p99_s);
    session.sample(tag + ".net2_bytes", "bytes", double(rep.net2_bytes));
    // Virtual elapsed is deterministic and diffable; wall time is a metric
    // only at kWallSampledJobs and printed in the table everywhere.
    session.sample(tag + ".elapsed_s", "s", rep.elapsed_s);

    table.add_row({std::to_string(jobs), TextTable::num(rep.elapsed_s, 0),
                   TextTable::num(rep.goodput_bps / 1.0e6, 1),
                   TextTable::num(rep.tts_p99_s, 2),
                   TextTable::num(double(rep.net2_bytes) / 1.0e9, 2),
                   std::to_string(rep.failures),
                   TextTable::num(r.wall_s, 2)});

    check.expect(rep.complete,
                 "fleet of " + std::to_string(jobs) + " jobs runs to "
                 "completion");
    check.expect(rep.rejected == 0,
                 "unbounded queue admits the whole " + std::to_string(jobs) +
                     "-job mix");
    check.expect(rep.goodput_bps > 0.0,
                 "fleet of " + std::to_string(jobs) + " jobs commits bytes");
  }
  table.print(std::cout);
  table.print_csv(std::cout);
  double base_wall = 0.0;
  for (const ScaleResult& r : results) {
    if (r.jobs != kWallSampledJobs && r.jobs != kScaleRatioJobs) continue;
    const fleet::FleetScheduler::PhaseWall& p = r.phases;
    const double sum =
        p.admission_s + p.shards_s + p.merge_s + p.apply_s + p.boundary_s;
    std::cout << "phase wall " << r.jobs << " jobs (median run): admission "
              << TextTable::num(p.admission_s, 3) << " s, shards "
              << TextTable::num(p.shards_s, 3) << " s, merge "
              << TextTable::num(p.merge_s, 3) << " s, apply "
              << TextTable::num(p.apply_s, 3) << " s, boundary "
              << TextTable::num(p.boundary_s, 3) << " s, sum "
              << TextTable::num(sum / r.wall_s, 3) << " of the wall\n";
    if (r.jobs == kWallSampledJobs) base_wall = r.wall_s;
    if (r.jobs == kScaleRatioJobs && base_wall > 0.0) {
      std::cout << "wall ratio " << kScaleRatioJobs << "/" << kWallSampledJobs
                << " jobs: " << TextTable::num(r.wall_s / base_wall, 1)
                << "x\n";
    }
  }

  for (std::size_t i = 1; i < results.size(); ++i) {
    const auto& prev = results[i - 1].report;
    const auto& cur = results[i].report;
    check.expect(cur.net2_bytes > prev.net2_bytes,
                 "NET^2 grows from " + std::to_string(results[i - 1].jobs) +
                     " to " + std::to_string(results[i].jobs) + " jobs");
    check.expect(cur.goodput_bps > prev.goodput_bps,
                 "goodput grows with the provisioned fleet (" +
                     std::to_string(results[i].jobs) + " jobs)");
    check.expect(cur.tts_p99_s < 10.0 * results.front().report.tts_p99_s +
                                     1.0,
                 "p99 time-to-safe stays bounded at " +
                     std::to_string(results[i].jobs) + " jobs");
  }

  return session.finish(check);
}
