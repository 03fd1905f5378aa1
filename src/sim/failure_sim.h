// End-to-end failure injection over the real machinery.
//
// Runs a synthetic workload under two-level concurrent incremental+delta
// checkpointing on a wall-clock timeline, injects exponential per-level
// failures, and performs *actual* recoveries: roll the checkpoint chain
// back to the newest copy that survives the failure level (L2 for f1/f2,
// L3 for f3, accounting for in-flight transfers), materialize the restored
// address space, rewind the workload, and replay.
//
// Because workload mutations are a pure function of progress, the final
// memory state after any number of failures and recoveries must equal the
// failure-free run's final state byte for byte — the strongest correctness
// check the library has. The measured turnaround also gives an empirical
// NET^2 to compare against the analytic models.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "control/cost_model.h"
#include "failure/failure.h"
#include "workload/elastic.h"
#include "workload/workload.h"
#include "xfer/stats.h"

namespace aic::obs {
struct Hub;
}  // namespace aic::obs

namespace aic::sim {

struct FailureSimConfig {
  workload::SpecBenchmark benchmark = workload::SpecBenchmark::kBzip2;
  double workload_scale = 0.25;
  control::CostModel costs;
  failure::FailureSpec failures;
  /// Static checkpoint interval (SIC-style; the point here is recovery
  /// correctness and model validation, not adaptivity).
  double checkpoint_interval = 30.0;
  std::uint64_t seed = 1;
  /// Run the L2/L3 placements through a real MultiLevelStore drain engine
  /// (chunked transfers in virtual time) instead of the analytic
  /// c2/c3 landing-time formulas. Failures then strike *during* drains:
  /// in-flight transfers are interrupted at a chunk boundary, recovery
  /// sees only committed objects, and interrupted drains resume from the
  /// last acked chunk after the restart — the Markov model's
  /// interrupted-transfer states, exercised end to end.
  bool use_transfer_engine = false;
  /// Optional observability hub: failure/restore instants, interval spans,
  /// end-of-run gauges, plus (with use_transfer_engine) every chunk span
  /// the drain engine emits and the chain's compression instrumentation.
  /// nullptr = disabled. Does not perturb the simulation: the virtual
  /// timeline is identical with and without a hub attached.
  obs::Hub* obs = nullptr;
  /// Channel-level fault injection on the remote (L3) drain channel
  /// (use_transfer_engine only): per-chunk drop probability. Combined with
  /// a small attempt budget this makes a drain exhaust its retries and die
  /// mid-drain with a TransferError — the flight-recorder postmortem path.
  double remote_drop_probability = 0.0;
  /// Overrides the drain engine's per-chunk attempt budget when > 0.
  int xfer_max_attempts_override = 0;
  /// Elastic job: core-count reconfigurations keyed on workload progress.
  /// Non-empty turns the benchmark into an ElasticWorkload over the same
  /// profile (ElasticProfile's default base width and migration burst); at
  /// every resize the simulator re-derives the cost model (local/compress/
  /// RAID bandwidth scale with the width, the per-node remote share does
  /// not), rescales the failure exposure (lambda ∝ cores), and — with
  /// replan_on_resize — re-solves the AIC work span w_L* on the adaptive
  /// interval model. Analytic placement only: requires
  /// use_transfer_engine == false.
  std::vector<workload::ResizeEvent> resizes;
  /// Re-plan the checkpoint interval after every reconfiguration (and
  /// after a rollback that reverts one). Off = keep the static interval —
  /// the no-replan ablation.
  bool replan_on_resize = true;
  /// Bounded-regret retention: live-checkpoint budget of the chain's
  /// RewindWindow (0 = keep every checkpoint). Pruned checkpoints are
  /// reclaimed from the MultiLevelStore under the transfer engine and
  /// dropped from the landing-time bookkeeping under analytic placement.
  std::size_t rewind_budget = 0;
};

struct FailureSimResult {
  double turnaround = 0.0;  // wall time to completion
  double base_time = 0.0;
  std::array<int, 3> failures_by_level{0, 0, 0};
  int checkpoints = 0;
  int restores = 0;
  /// Final memory byte-matches the failure-free reference run.
  bool final_state_verified = false;
  /// Transfer-engine counters (use_transfer_engine only): chunks, retries,
  /// interruptions, goodput inputs.
  xfer::Stats xfer_stats;
  /// Drains resumed from a mid-flight interruption (use_transfer_engine).
  int drains_resumed = 0;
  /// Forward resize transitions observed on the sim timeline (a rollback
  /// that re-treads past a resize boundary re-fires and re-counts it).
  int resizes_applied = 0;
  /// Decider re-plans executed (replan_on_resize).
  int replans = 0;
  /// Work span in effect when the run completed (== checkpoint_interval
  /// unless a re-plan moved it).
  double final_checkpoint_interval = 0.0;
  /// Checkpoints pruned by the rewind window over the run.
  int checkpoints_pruned = 0;

  int total_failures() const {
    return failures_by_level[0] + failures_by_level[1] + failures_by_level[2];
  }
  double net2() const { return base_time > 0 ? turnaround / base_time : 0.0; }
};

FailureSimResult run_failure_sim(const FailureSimConfig& config);

}  // namespace aic::sim
