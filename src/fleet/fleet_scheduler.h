// FleetScheduler — a multi-tenant checkpoint service over one shared
// drain channel, simulated as a sharded discrete-event core.
//
// The fleet hosts hundreds to thousands of concurrent jobs (a LANL
// candidate mix from workload::lanl_fleet_jobs). Each job runs its own
// lightweight AIC loop — an EWMA drain-time predictor, a Young/Daly-style
// interval decider w* = sqrt(2 * T_drain / lambda), and a chain-lite
// full-every-N capture cadence — and drains its checkpoints through one
// xfer::TransferScheduler whose chunk pricing enforces the per-tenant QoS
// contracts (fleet::QosPolicy). An AdmissionController bounds the
// aggregate steady-state drain demand; per-job Poisson failure processes
// (failure::FailureInjector, seeded by failure::job_stream_seed) strike
// individual jobs mid-drain.
//
// Sharded virtual time, byte-deterministic under any shard count:
//
//   time advances in fixed rounds of quantum_s. Each round runs three
//   phases —
//     1. admission (serial): jobs arriving in the round are offered to the
//        admission controller in (arrival, job_id) order;
//     2. shard passes (parallel, one shard per worker): each shard
//        simulates its live jobs' local timelines through the round — work
//        progress, captures, failures, restarts — touching nothing shared,
//        and emits timestamped Action records;
//     3. merge + apply (serial): all shards' actions are merged sorted by
//        (time, job_id, seq) and applied to the shared transfer engine in
//        that order, then the engine runs to the round boundary.
//   Drain completions are delivered back to jobs only at the boundary
//   (one-quantum staleness), walking live drains and then pending
//   releases in jobs_ order, so cross-job coupling through the shared
//   channel is independent of how jobs were partitioned into shards: for
//   a fixed seed, every counter, every virtual timestamp, and the
//   timeline digest are byte-identical at 1, 2, or any number of shards.
//
// The digest (FNV-1a over the applied action stream and every commit) is
// the determinism witness tests and benches compare across shard counts.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "ckpt/rewind_window.h"
#include "failure/failure.h"
#include "fleet/admission.h"
#include "fleet/qos_policy.h"
#include "fleet/tenant.h"
#include "workload/lanl_trace.h"
#include "xfer/scheduler.h"

namespace aic::obs {
class CausalLog;
class Counter;
class Gauge;
class Histogram;
struct Hub;
class Telemetry;
}  // namespace aic::obs

namespace aic::fleet {

struct FleetConfig {
  /// Shard count of the simulation core. Affects wall-clock parallelism
  /// only — results are byte-identical for any value >= 1.
  int shards = 1;
  /// Round quantum (virtual seconds): the granularity at which drain
  /// completions feed back into job deciders.
  double quantum_s = 5.0;
  std::uint64_t seed = 1;

  /// The shared drain channel (registered as level 3).
  double bandwidth_bps = 1.0e9;
  double latency_s = 1.0e-3;
  std::size_t chunk_bytes = 1 << 20;

  /// Per-job failure rate (all levels, failures/second) and restart
  /// downtime after a strike.
  double lambda_total = 1.0e-3;
  double restart_s = 10.0;
  /// Local capture bandwidth: a capture of B bytes pauses the job for
  /// B / capture_bps seconds.
  double capture_bps = 4.0e9;
  /// Clamp on each job's decided checkpoint interval.
  double min_interval_s = 30.0;
  double max_interval_s = 3600.0;
  /// Chain-lite cadence: a full checkpoint every `full_every` captures
  /// (the first capture is always full).
  int full_every = 8;
  /// EWMA smoothing of the observed drain time feeding the decider.
  double ewma_alpha = 0.3;
  /// Safety horizon: the fleet stops at this virtual time even if jobs
  /// remain (a report of a truncated run says so via finished()).
  double max_virtual_s = 86400.0;

  /// Per-job live-checkpoint budget (k): every commit is admitted to a
  /// ckpt::RewindWindow whose era-ladder discard schedule bounds the
  /// worst-case rewind gap while the fleet's retained bytes stay O(k) per
  /// job — the knob that lets a 10k-job fleet hold bounded storage.
  /// 0 disables retention accounting (every commit is kept forever).
  std::size_t rewind_budget = 0;

  /// Admission head-room policy. capacity_bps, lambda_total, and the
  /// interval clamp are overwritten from the fleet fields above so the
  /// controller's demand model matches the per-job deciders.
  AdmissionConfig admission;

  obs::Hub* obs = nullptr;
};

/// Per-job accounting (also the per-job slice tests pin across shard
/// counts).
struct JobStats {
  std::uint64_t checkpoints = 0;
  std::uint64_t fulls = 0;
  std::uint64_t commits = 0;
  std::uint64_t failures = 0;
  std::uint64_t interrupts = 0;
  std::uint64_t resumes = 0;
  std::uint64_t aborts = 0;
  std::uint64_t net2_bytes = 0;
  std::uint64_t committed_bytes = 0;
  /// Elastic reconfigurations applied going forward (reverts after a
  /// failure rewind are not counted; re-treading re-fires and re-counts).
  std::uint64_t resizes = 0;
  double rework_s = 0.0;
  double tts_sum_s = 0.0;
  double start_time = -1.0;
  double finish_time = -1.0;
};

struct FleetReport {
  double elapsed_s = 0.0;
  bool complete = false;  // every job reached a terminal state
  std::uint64_t jobs = 0;
  std::uint64_t admitted = 0;
  std::uint64_t queued = 0;  // offers that went through the queue
  std::uint64_t rejected = 0;
  std::uint64_t finished = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t commits = 0;
  std::uint64_t failures = 0;
  std::uint64_t net2_bytes = 0;
  std::uint64_t committed_bytes = 0;
  double rework_s = 0.0;
  /// Aggregate goodput: committed checkpoint bytes / elapsed.
  double goodput_bps = 0.0;
  /// Time-to-safe (capture -> commit) distribution, virtual seconds.
  double tts_mean_s = 0.0;
  double tts_p50_s = 0.0;
  double tts_p99_s = 0.0;
  /// Elastic reconfigurations applied (forward) across all jobs.
  std::uint64_t resizes = 0;
  /// Rewind-window retention (zeros when rewind_budget == 0): fleet-wide
  /// discards and retained bytes, and the worst per-job rewind gap with
  /// its certified envelope at the final horizon.
  std::uint64_t rewind_discards = 0;
  std::uint64_t rewind_live_bytes = 0;
  double rewind_max_gap_s = 0.0;
  double rewind_gap_bound_s = 0.0;
  /// Determinism witness (see header comment).
  std::uint64_t digest = 0;
  std::map<std::uint64_t, TenantStats> tenants;
};

class FleetScheduler {
 public:
  FleetScheduler(FleetConfig config, std::vector<workload::FleetJobSpec> jobs,
                 QosPolicy policy);

  /// Runs the fleet to completion (or to max_virtual_s).
  void run();

  double now() const { return now_; }
  /// True when every job reached a terminal state (finished + drains
  /// landed, or rejected).
  bool finished() const;
  std::uint64_t digest() const { return digest_; }
  /// Host wall time run() spent in each phase of a round, summed over its
  /// rounds. Only measured: nothing the simulation computes reads it.
  struct PhaseWall {
    double admission_s = 0.0;
    double shards_s = 0.0;  // the shard passes and the live-job sweep
    double merge_s = 0.0;   // merging and sorting the round's actions
    double apply_s = 0.0;   // applying them, engine run to the boundary
    double boundary_s = 0.0;  // settling drains, releases, telemetry
  };
  const PhaseWall& phase_wall() const { return phase_wall_; }
  const JobStats& job_stats(std::uint64_t job_id) const;
  const AdmissionController& admission() const { return admission_; }

  FleetReport report() const;

 private:
  enum class ActionKind : std::uint8_t {
    kCapture = 0,
    kFailure,
    kResume,
    kFinish,
    kResize,
  };
  struct Action {
    double time = 0.0;
    std::uint64_t job = 0;
    std::uint32_t seq = 0;   // per-job emission order within the round
    std::uint32_t slot = 0;  // the job's index in jobs_
    ActionKind kind = ActionKind::kCapture;
    int fail_level = 0;       // kFailure: 1..3
    std::uint64_t bytes = 0;  // kCapture: drain size
    std::uint64_t ckpt = 0;   // kCapture: checkpoint sequence number
    double factor = 1.0;      // kResize: new width / base width
  };
  struct JobState {
    JobState(workload::FleetJobSpec s, failure::FailureInjector f,
             std::uint32_t at)
        : spec(std::move(s)), failures(std::move(f)), slot(at) {}

    workload::FleetJobSpec spec;
    failure::FailureInjector failures;
    std::uint32_t slot;  // index in jobs_
    bool finished = false;
    bool released = false;
    double progress = 0.0;       // work executed (virtual seconds)
    double safe_progress = 0.0;  // covered by the last committed ckpt
    double busy_until = 0.0;     // capture pause or restart downtime
    failure::FailureEvent next_failure;
    double next_ckpt = 0.0;
    bool force_full = false;  // aborted drain: redo as a full checkpoint
    std::uint64_t ckpt_seq = 0;
    // The (at most one) outstanding drain. drain_id is written by the
    // serial apply phase; the job's shard-local view is drain_outstanding,
    // refreshed at round boundaries (one-quantum staleness by design).
    bool drain_outstanding = false;
    bool drain_interrupted = false;  // resume due at busy_until
    xfer::TransferId drain_id = 0;
    double drain_capture_time = 0.0;
    double drain_progress = 0.0;  // progress the pending capture covers
    double pred_drain_s = 1.0;    // EWMA drain-time prediction
    /// Elastic width: how many of spec.resizes the job's progress has
    /// crossed. A pure function of progress (re-derived in job_round), so
    /// a failure rewind below a boundary reverts the width and
    /// re-treading re-fires it deterministically.
    std::size_t resizes_applied = 0;
    /// Width transitions so far, forward and revert alike: seeds the
    /// failure stream of each new width epoch.
    std::uint64_t width_epoch = 0;
    /// Bounded-regret retention over this job's committed checkpoints.
    ckpt::RewindWindow rewind;
    /// Arrival -> activation wait, charged to the admission-queue segment
    /// of the job's first causal chain (then zeroed).
    double admission_wait_s = 0.0;
    std::uint32_t round_seq = 0;
    JobStats stats;
  };

  /// The job's next action this round, stamped with its time, id, slot
  /// and emission order.
  static Action next_action(JobState& j, double at, ActionKind kind);
  std::uint64_t delta_bytes(const JobState& j) const;
  double w_star(const JobState& j) const;
  /// Current width factor of the job (1.0 before any resize applies).
  double size_factor(const JobState& j) const;
  /// Re-derives resizes_applied from progress, rebuilding the failure
  /// stream and re-planning next_ckpt on every transition (both
  /// directions); emits one kResize action per forward step and per
  /// revert so the serial phase re-prices admission.
  void sync_width(JobState& j, double at, std::vector<Action>& out) const;
  void activate(const workload::FleetJobSpec& spec, double start);
  void admit_arrivals(double t1);
  void job_round(JobState& j, double t0, double t1,
                 std::vector<Action>& out) const;
  void apply_actions(const std::vector<Action>& merged);
  /// Folds a landed (committed or aborted) drain into its job at the round
  /// boundary. Returns false while the drain is still live.
  bool settle_drain(JobState& j, double t1);
  void boundary(double t1);
  void mix(std::uint64_t v);
  void export_metrics(const FleetReport& r) const;
  /// The hub's causal log when telemetry is enabled; nullptr otherwise.
  obs::CausalLog* causal_log() const;
  /// End-of-round telemetry (serial phase): refreshes the live per-tenant
  /// and goodput gauges from the incremental aggregates, then ticks the
  /// hub's Telemetry (sampler + SLO rules) at the round boundary. Pure
  /// reader of deterministic state — the digest is unaffected.
  void round_telemetry(double t1);

  FleetConfig config_;
  QosPolicy policy_;
  AdmissionController admission_;
  xfer::TransferScheduler sched_;
  std::vector<JobState> jobs_;
  // The round loop visits these lists of slots (indices into jobs_), never
  // all of jobs_: one round costs what is live.
  std::vector<std::uint32_t> live_jobs_;    // admitted, not finished
  std::vector<std::uint32_t> live_drains_;  // drain submitted, not landed
  std::vector<std::uint32_t> unreleased_;   // finished, not yet released
  /// job_id -> slot, for job_stats() and the duplicate-id check.
  std::map<std::uint64_t, std::size_t> index_;
  /// The ctor's job specs in arrival order, sorted by (arrival_s,
  /// job_id); next_arrival_ indexes the first not yet offered.
  std::vector<workload::FleetJobSpec> pending_;
  std::size_t next_arrival_ = 0;
  double now_ = 0.0;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  PhaseWall phase_wall_;
  std::uint64_t queued_offers_ = 0;
  std::uint64_t finished_jobs_ = 0;
  std::uint64_t rejected_jobs_ = 0;
  std::vector<double> tts_samples_;
  std::map<std::uint64_t, std::vector<double>> tenant_tts_;
  std::map<std::uint64_t, std::uint64_t> tenant_rejected_;
  // Live-telemetry state (only populated when obs is non-null): handles
  // and running sums the round-boundary gauge refresh reads, so a tick is
  // O(tenants), never O(jobs).
  struct TenantObs {
    obs::Gauge* goodput = nullptr;
    obs::Gauge* net2 = nullptr;
    obs::Gauge* commits = nullptr;
    obs::Gauge* finished = nullptr;
    obs::Histogram* tts = nullptr;
    std::uint64_t commits_n = 0;
    std::uint64_t net2_bytes = 0;
    std::uint64_t committed_bytes = 0;
    std::uint64_t jobs_finished = 0;
  };
  TenantObs& tenant_obs(std::uint64_t tenant);
  std::map<std::uint64_t, TenantObs> tenant_obs_;
  std::uint64_t committed_bytes_total_ = 0;
  // Serial-phase metric handles (null when obs is null).
  obs::Counter* m_admitted_ = nullptr;
  obs::Counter* m_queued_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_finished_ = nullptr;
  obs::Counter* m_checkpoints_ = nullptr;
  obs::Counter* m_commits_ = nullptr;
  obs::Counter* m_failures_ = nullptr;
  obs::Counter* m_net2_ = nullptr;
  obs::Counter* m_resizes_ = nullptr;
  obs::Histogram* m_tts_ = nullptr;
  obs::Gauge* g_goodput_ = nullptr;
};

}  // namespace aic::fleet
