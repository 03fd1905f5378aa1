// Reusable LANL candidate-job generator (extracted from the Table 1 bench).
//
// Two consumers share this module:
//   * bench/table1_lanl_candidates reproduces Table 1's candidate
//     fractions per system and scheduler policy (run_candidate_study);
//   * bench/fleet_scale and the fleet service (src/fleet/) draw a
//     realistic multi-tenant job mix from the same synthetic logs
//     (lanl_fleet_jobs): only *candidate* jobs — the ones whose every
//     process keeps an idle core for concurrent checkpointing — become
//     fleet tenants' jobs, with footprints, durations, and arrival times
//     derived deterministically from the trace.
//
// Everything here is a pure function of its config (seeded); two calls
// with equal configs return byte-identical results on any host.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/lanl_trace.h"

namespace aic::workload {

/// Candidate fractions for one system under both scheduler policies — the
/// per-row computation of the Table 1 bench, reusable.
struct CandidateStudy {
  trace::SystemConfig system;
  trace::CandidateStats packed;
  trace::CandidateStats rectified;
};

/// Runs the synthetic-log candidate analysis for `system_id` over `days`
/// of arrivals under both the packed and the rectified scheduler.
CandidateStudy run_candidate_study(int system_id, double days,
                                   std::uint64_t seed = 42);

/// One job of a fleet mix: a LANL candidate job rescaled to the fleet's
/// virtual timeline, tagged with the tenant that owns it.
struct FleetJobSpec {
  std::uint64_t job_id = 0;
  /// Owning tenant, in [0, FleetMixConfig::tenants).
  std::uint32_t tenant = 0;
  /// Arrival on the fleet's virtual clock (seconds).
  double arrival_s = 0.0;
  /// Base work the job must execute (virtual seconds).
  double work_s = 0.0;
  /// Checkpointed footprint (bytes), derived from the job's process count.
  std::uint64_t footprint_bytes = 0;
  /// Mean fraction of the footprint dirtied per checkpoint interval.
  double dirty_fraction = 0.1;
  /// Source-trace provenance: LANL system and process count.
  int system_id = 0;
  int processes = 1;
  /// One elastic reconfiguration: when the job's executed work reaches
  /// `at_progress` (virtual seconds, strictly ascending across the list),
  /// its width becomes `factor` × the base — footprint, delta size, and
  /// failure exposure all scale with it. A failure rewind below the
  /// boundary reverts the width; re-treading re-fires it, exactly like
  /// workload::ElasticWorkload.
  struct Resize {
    double at_progress = 0.0;
    double factor = 1.0;
  };
  std::vector<Resize> resizes;
};

struct FleetMixConfig {
  /// Exact number of jobs to emit. The generator cycles the five LANL
  /// systems' candidate populations (fresh seeds per cycle) until filled.
  std::size_t jobs = 100;
  /// Tenants to spread the jobs over (round-robin in trace order).
  std::uint32_t tenants = 4;
  std::uint64_t seed = 1;
  /// Arrivals are spread over [0, arrival_horizon_s) preserving the
  /// trace's relative submit order.
  double arrival_horizon_s = 120.0;
  /// Job work: a hundredth of the trace runtime, clamped to [min_work_s,
  /// max_work_s] — LANL runtimes are hours-to-days, a fleet bench wants
  /// minutes of virtual time.
  double min_work_s = 30.0;
  double max_work_s = 600.0;
  /// Footprint: pages per process, jittered ±50% per job.
  std::uint64_t pages_per_process = 2048;
};

/// Deterministic fleet job mix drawn from the LANL candidate population.
/// Jobs are sorted by (arrival_s, job_id); job ids are dense from 1.
std::vector<FleetJobSpec> lanl_fleet_jobs(const FleetMixConfig& config);

}  // namespace aic::workload
