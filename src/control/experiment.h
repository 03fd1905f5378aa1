// Failure-free experiment runs of the three checkpointing schemes over a
// workload, producing per-interval latency traces and the NET^2 metric via
// Eq. (1) — exactly how the paper's testbed evaluation works (Section V:
// L2/L3 are simulated from measured sizes and predefined bandwidths, and
// "NET^2 outcomes of AIC and SIC are calculated by Eq. (1)").
//
//   AIC   — adaptive: every decision period, gather {DP, t, JD, DI},
//           predict (c1, dl, ds), find the local-optimal span w_L* by
//           Newton–Raphson + boundary comparison, checkpoint when the
//           elapsed span exceeds it. Online predictor, no profiling.
//   SIC   — static: a profiling pre-pass measures average checkpoint
//           latencies, the L2L3 concurrent model picks a fixed w*, the run
//           checkpoints every w* seconds (incremental + delta, concurrent).
//   Moody — multi-level blocking baseline: full checkpoints on the
//           (w, n1, n2) schedule from optimize_moody with profiled sizes.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/ring.h"
#include "control/cost_model.h"
#include "model/system_profile.h"
#include "predictor/hot_page_sampler.h"
#include "predictor/predictor.h"
#include "workload/workload.h"

namespace aic::obs {
struct Hub;
class Counter;
class Histogram;
}  // namespace aic::obs

namespace aic::control {

enum class Scheme { kAic, kSic, kMoody };
const char* to_string(Scheme scheme);

/// One AicDecider::decide evaluation (diagnostics; see
/// ExperimentConfig::decision_hook).
struct DecisionTrace {
  double time = 0.0;          // virtual app time
  double elapsed = 0.0;       // current interval span
  double w_star = 0.0;        // local-optimal span from the EVT search
  double c3_pred = 0.0;       // predicted c3 if checkpointing now
  bool span_reached = false;
  bool at_dip = false;
  bool starved = false;
  bool core_free = false;
  bool take = false;
};

/// Work-span search range of the deciders (seconds), shared by the
/// failure-free and the coordinated runs.
inline constexpr double kMinWorkSpan = 1.0;
inline constexpr double kMaxWorkSpan = 1e5;

/// AIC's decision rule, shared by the failure-free and the coordinated
/// runs. Each decision finds the local-optimal span w_L* of the adaptive
/// NET^2 model by Newton–Raphson plus the Extreme Value Theorem
/// (model::extreme_value_minimum), then, once the elapsed span has reached
/// it, waits for a cheap moment (Section II.B: the desirable point of time
/// is the one with the smallest checkpoint) unless it has waited so long
/// that any moment beats more exposure. One instance per run: it keeps the
/// trailing window of predicted c3 values the gating reads.
class AicDecider {
 public:
  /// `system` holds the failure rates of the run; `obs` (nullable)
  /// receives the decider metrics and one decision instant per call.
  AicDecider(const model::SystemProfile& system, obs::Hub* obs);

  /// One decision at app time `now`, `elapsed` seconds into the interval:
  /// `cur` is the estimated cost of checkpointing now, `prev` the measured
  /// cost of the last checkpoint. The result's `take` already requires
  /// `core_free` and a job that has not finished: a decision made after
  /// the job's last step is still made and reported, but takes nothing.
  DecisionTrace decide(double now, double elapsed,
                       const model::IntervalParams& cur,
                       const model::IntervalParams& prev, bool core_free,
                       bool job_finished);

 private:
  model::SystemProfile system_;
  obs::Hub* obs_;
  obs::Counter* evals_ = nullptr;
  obs::Counter* takes_ = nullptr;
  obs::Counter* boundary_picks_ = nullptr;
  obs::Histogram* newton_iters_ = nullptr;
  obs::Histogram* w_star_ = nullptr;
  common::Ring<double> c3_window_;
  double prev_c3_ = -1.0;
  int decline_streak_ = 0;
};

/// First-principles estimate of the checkpoint latency variables from the
/// lightweight metrics alone. The sampler buffers each hot page's
/// pre-write (last-checkpoint) content, so JD is a direct estimate of the
/// per-page delta fraction:
///   ds ~ dirty bytes * JD,  dl ~ compressor passes over the dirty bytes,
///   c1 ~ dirty bytes / local bandwidth.
model::IntervalParams estimate_params(double dirty_bytes, double jd,
                                      const CostModel& costs);

struct ExperimentConfig {
  /// Failure rates used by the analytic models (the run itself is
  /// failure-free; failures enter through Eq. (1)).
  model::SystemProfile system = model::SystemProfile::coastal();
  CostModel costs;
  /// AIC decision period (paper: one second).
  double decision_period = 1.0;
  predictor::SamplerConfig sampler;
  /// Delta-compression worker threads for the concurrent schemes' chains
  /// (ckpt::CheckpointChain::Config::compress_workers): 0 = auto
  /// (hardware_concurrency() - 1), 1 = serial. Results are byte-identical
  /// at any setting; only host wall-clock changes.
  unsigned compress_workers = 0;
  /// Workload scale factor (footprint & page rates).
  double workload_scale = 1.0;
  /// Optional per-decision diagnostics callback, called on every AIC
  /// decision of run_aic and run_coordinated (never by SIC or Moody).
  std::function<void(const DecisionTrace&)> decision_hook;
  /// Optional observability hub: interval spans, decider metrics and
  /// decision instants, predictor residuals, plus everything the
  /// checkpoint chain and compression pipeline emit. nullptr = disabled.
  obs::Hub* obs = nullptr;
};

/// One checkpoint interval as executed.
struct IntervalRecord {
  double start_time = 0.0;  // virtual app time at interval start
  double w = 0.0;           // work executed before the checkpoint
  model::IntervalParams params;  // measured latencies of this checkpoint
  double delta_latency = 0.0;    // dl
  std::uint64_t delta_bytes = 0; // ds
  std::uint64_t uncompressed_bytes = 0;
  std::uint64_t dirty_pages = 0;
  predictor::BaseMetrics metrics;  // metrics at the decision point
  /// Predicted-vs-measured for diagnostics (AIC only; 0 otherwise).
  double predicted_c3 = 0.0;
};

struct ExperimentResult {
  Scheme scheme{};
  std::string workload;
  double base_time = 0.0;
  /// Wall-clock of the failure-free run on the computation core: base work
  /// + c1 halts + decider/metric overhead (the Table 3 execution time).
  double exec_time = 0.0;
  /// Decider + metric overhead alone (seconds).
  double control_overhead = 0.0;
  double net2 = 0.0;  // Eq. (1)
  std::vector<IntervalRecord> intervals;

  double overhead_fraction() const {
    return base_time > 0 ? exec_time / base_time - 1.0 : 0.0;
  }
  double mean_delta_bytes() const;
  double mean_delta_latency() const;
  double mean_compression_ratio() const;
};

/// Runs the given scheme on a fresh instance of `benchmark`.
ExperimentResult run_experiment(Scheme scheme,
                                workload::SpecBenchmark benchmark,
                                const ExperimentConfig& config);

/// SIC/Moody profiling pre-pass: runs the workload once with a fixed probe
/// interval and returns the average measured latency parameters for
/// (a) delta-compressed incremental checkpoints and (b) full checkpoints.
struct ProfiledCosts {
  model::IntervalParams incremental;  // averages for SIC's model
  model::IntervalParams full;         // averages for Moody's model
};
ProfiledCosts profile_workload(workload::SpecBenchmark benchmark,
                               const ExperimentConfig& config,
                               double probe_interval = 10.0);

}  // namespace aic::control
