#include "workload/lanl_trace.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "common/units.h"

namespace aic::workload {
namespace {

/// Fleet job work per second of trace runtime.
constexpr double kWorkScale = 0.01;
/// Mean per-interval dirty fraction of a fleet job.
constexpr double kMeanDirtyFraction = 0.10;

}  // namespace

CandidateStudy run_candidate_study(int system_id, double days,
                                   std::uint64_t seed) {
  CandidateStudy study;
  study.system = trace::system_by_id(system_id);

  trace::TraceConfig packed_cfg;
  packed_cfg.days = days;
  packed_cfg.seed = seed;
  packed_cfg.policy = trace::SchedulerPolicy::kPacked;
  trace::TraceConfig rect_cfg = packed_cfg;
  rect_cfg.policy = trace::SchedulerPolicy::kRectified;

  study.packed = trace::analyze_candidates(
      trace::generate_log(study.system, packed_cfg), study.system);
  study.rectified = trace::analyze_candidates(
      trace::generate_log(study.system, rect_cfg), study.system);
  return study;
}

std::vector<FleetJobSpec> lanl_fleet_jobs(const FleetMixConfig& config) {
  AIC_CHECK_MSG(config.jobs > 0, "fleet mix needs at least one job");
  AIC_CHECK_MSG(config.tenants > 0, "fleet mix needs at least one tenant");
  AIC_CHECK(config.arrival_horizon_s > 0.0);
  AIC_CHECK(config.min_work_s > 0.0 &&
            config.max_work_s >= config.min_work_s);
  AIC_CHECK(config.pages_per_process > 0);

  // Harvest candidate jobs from the five systems' rectified logs, cycling
  // with fresh per-cycle seeds until the mix is filled. The rectified
  // policy is the one the paper proposes for hosting AIC, and it yields
  // candidates on every system (the packed scheduler starves System 20).
  struct Raw {
    double submit = 0.0;
    double runtime = 0.0;
    int processes = 1;
    int system_id = 0;
  };
  std::vector<Raw> raws;
  raws.reserve(config.jobs);
  const auto systems = trace::table1_systems();
  // Short windows keep harvesting cheap; candidates accumulate per cycle.
  constexpr double kHarvestDays = 3.0;
  for (std::uint64_t cycle = 0; raws.size() < config.jobs; ++cycle) {
    AIC_CHECK_MSG(cycle < 1000,
                  "LANL harvest stalled: no candidate jobs after "
                      << cycle << " cycles");
    for (const trace::SystemConfig& sys : systems) {
      if (raws.size() >= config.jobs) break;
      trace::TraceConfig tc;
      tc.days = kHarvestDays;
      tc.policy = trace::SchedulerPolicy::kRectified;
      tc.seed = config.seed + cycle * 0x9E3779B9ULL;
      const auto log = trace::generate_log(sys, tc);
      const auto flags = trace::candidate_flags(log, sys);
      for (std::size_t i = 0; i < log.size() && raws.size() < config.jobs;
           ++i) {
        if (!flags[i]) continue;
        Raw raw;
        raw.submit = log[i].submit_time + cycle * kHarvestDays * 86400.0;
        raw.runtime = log[i].runtime();
        raw.processes = log[i].process_count();
        raw.system_id = sys.system_id;
        raws.push_back(raw);
      }
    }
  }

  // Rescale submit order onto the fleet's arrival horizon and derive the
  // per-job shape parameters from a job-indexed RNG (independent of how
  // the harvest was chunked).
  double max_submit = 0.0;
  for (const Raw& raw : raws) max_submit = std::max(max_submit, raw.submit);

  std::vector<FleetJobSpec> jobs;
  jobs.reserve(raws.size());
  std::uint64_t id = 1;
  for (const Raw& raw : raws) {
    std::uint64_t mix = config.seed ^ (id * 0x2545F4914F6CDD1DULL);
    Rng rng(splitmix64(mix));
    FleetJobSpec job;
    job.job_id = id;
    job.tenant = std::uint32_t((id - 1) % config.tenants);
    job.arrival_s = max_submit > 0.0
                        ? raw.submit / max_submit * config.arrival_horizon_s
                        : 0.0;
    job.work_s = std::clamp(raw.runtime * kWorkScale,
                            config.min_work_s, config.max_work_s);
    const double pages_jitter = rng.uniform(0.5, 1.5);
    job.footprint_bytes =
        std::max<std::uint64_t>(1, std::uint64_t(double(raw.processes) *
                                                 double(config.pages_per_process) *
                                                 pages_jitter)) *
        kPageSize;
    // Lognormal-ish jitter around the mean, clamped into (0, 1].
    const double dirty =
        kMeanDirtyFraction * std::exp(rng.normal(0.0, 0.35));
    job.dirty_fraction = std::clamp(dirty, 0.005, 1.0);
    job.system_id = raw.system_id;
    job.processes = raw.processes;
    jobs.push_back(job);
    ++id;
  }

  std::sort(jobs.begin(), jobs.end(),
            [](const FleetJobSpec& a, const FleetJobSpec& b) {
              if (a.arrival_s != b.arrival_s) return a.arrival_s < b.arrival_s;
              return a.job_id < b.job_id;
            });
  return jobs;
}

}  // namespace aic::workload
