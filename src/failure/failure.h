// Per-level exponential failure processes (Section III.A).
//
// Failures arrive as a Poisson process with total rate lambda = sum of the
// per-level rates; each arrival is a level-k failure with probability
// lambda_k / lambda. A level-k failure is recoverable only from a
// checkpoint of level >= k:
//   level 1 — transient fault: rerun on the same core, local data intact.
//   level 2 — partial/total node failure: local disk lost; recover from
//             the RAID-5 partner group (or above).
//   level 3 — catastrophic (node + partner group): only the remote file
//             system copy survives.
#pragma once

#include <array>
#include <cstdint>

#include "common/rng.h"

namespace aic::failure {

struct FailureSpec {
  std::array<double, 3> lambda{0.0, 0.0, 0.0};

  double total() const { return lambda[0] + lambda[1] + lambda[2]; }

  /// Splits a total rate into per-level rates with the Coastal shares
  /// (8.33% / 75% / 16.7%, see model/system_profile).
  static FailureSpec from_total(double total_lambda);
};

struct FailureEvent {
  double time = 0.0;  // absolute occurrence time
  int level = 0;      // 1..3
};

/// Samples the failure sequence for one simulated run.
class FailureInjector {
 public:
  FailureInjector(FailureSpec spec, Rng rng);

  /// Next failure strictly after `now`. With a zero total rate the event
  /// time is +infinity.
  FailureEvent next_after(double now);

  const FailureSpec& spec() const { return spec_; }

 private:
  FailureSpec spec_;
  Rng rng_;
};

/// Seed of one job's failure stream in a fleet: a SplitMix64 mix of the
/// fleet seed and the job id alone. Sampling every job from one shared RNG
/// would tie each job's failures to the fleet's composition and to the
/// order shards draw in; this stream is invariant under shard count,
/// admission order and which other jobs share the fleet.
std::uint64_t job_stream_seed(std::uint64_t fleet_seed, std::uint64_t job_id);

}  // namespace aic::failure
