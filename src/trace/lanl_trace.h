// LANL usage-log substrate for the idle-core study (Section II.C, Table 1).
//
// The paper analyzes five years of job logs from five LANL systems [15]:
// each record carries submit/dispatch/end times and the node ids of every
// process. A *candidate job* is one where each of its processes always has
// one idle core available on its node throughout execution — those idle
// cores can host AIC's concurrent checkpointing without displacing anyone.
//
// We do not have the proprietary logs, so this module synthesizes
// statistically similar ones: Poisson arrivals, per-system job-width mixes
// (single-core sweeps, node-width multiples, full-machine heroics), and
// heavy-tailed durations, scheduled onto the system's cores FIFO by one of
// two policies:
//   PackedScheduler    — fills nodes completely (the production default
//                        that starves System 20 of idle cores), and
//   RectifiedScheduler — reserves one core per node when the job still
//                        fits, the paper's proposed tweak.
// The analyzer then computes the candidate fraction, reproducing Table 1's
// ordering: big-core systems have many candidates, 4-core/2-core clusters
// few, and the rectified scheduler recovers most of them.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace aic::trace {

struct SystemConfig {
  int system_id = 0;
  std::string type;        // "NUMA" or "Cluster"
  int nodes = 1;
  int cores_per_node = 1;
  /// Workload mix: probability that a job requests whole nodes (processes
  /// = cores_per_node per node, the packing-hostile shape) vs scattered
  /// single processes.
  double full_node_job_fraction = 0.4;
  /// Mean number of jobs per synthetic day (drives utilization, which in
  /// turn decides how often the rectified scheduler's best-effort
  /// reservation is actually "available").
  double jobs_per_day = 40.0;
  /// Zipf decay of the whole-node job width (closer to 1 = wider jobs).
  double wide_decay = 0.6;
  /// Fraction of whole-node jobs that span the entire machine — these can
  /// never keep an idle core per node, with or without rectification
  /// (the unfixable population that keeps Table 1's systems 15/16/23 from
  /// improving under the rectified scheduler).
  double machine_filling_fraction = 0.0;
  /// Mean job duration in seconds (Pareto scale; tail capped at a week).
  double mean_duration = 3000.0;

  int total_cores() const { return nodes * cores_per_node; }
};

/// The five systems of Table 1, with workload mixes chosen to reflect each
/// machine's published character.
std::vector<SystemConfig> table1_systems();
SystemConfig system_by_id(int system_id);

struct JobRecord {
  std::uint64_t job_id = 0;
  double submit_time = 0.0;
  double dispatch_time = 0.0;
  double end_time = 0.0;
  /// Processes actually placed, as (node, process count) pairs in
  /// ascending node order; every count is at least 1.
  std::vector<std::pair<int, int>> placement;

  int process_count() const;
  double runtime() const { return end_time - dispatch_time; }
};

enum class SchedulerPolicy {
  kPacked,     // fill nodes completely
  kRectified,  // keep one core per node free when the job still fits
};

struct TraceConfig {
  double days = 90.0;
  SchedulerPolicy policy = SchedulerPolicy::kPacked;
  std::uint64_t seed = 42;
};

/// Synthesizes a job log for a system: arrivals, FIFO dispatch respecting
/// core capacity under the chosen policy, and completion. Each job starts
/// at the first instant, at or after its submit and its predecessor's
/// start, at which its processes fit; the log is ordered by dispatch time.
std::vector<JobRecord> generate_log(const SystemConfig& system,
                                    const TraceConfig& config);

struct CandidateStats {
  std::uint64_t jobs = 0;
  std::uint64_t candidates = 0;
  double fraction() const {
    return jobs ? double(candidates) / double(jobs) : 0.0;
  }
};

/// A job is a candidate iff, over its entire execution, every node hosting
/// one of its processes always retains at least one idle core (counting
/// all concurrently running jobs). Execution spans [dispatch, end): a job
/// that starts on a node the instant another ends there never overlaps it.
CandidateStats analyze_candidates(const std::vector<JobRecord>& log,
                                  const SystemConfig& system);

/// Per-job candidacy, aligned with `log` (flags[i] corresponds to log[i]).
/// analyze_candidates() is the aggregate over these flags; fleet job mixes
/// (workload/lanl_trace.h) use the flags to draw only the jobs that can
/// host AIC's concurrent checkpointing.
std::vector<bool> candidate_flags(const std::vector<JobRecord>& log,
                                  const SystemConfig& system);

}  // namespace aic::trace
