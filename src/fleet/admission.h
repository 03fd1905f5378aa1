// AdmissionController — bounds the fleet's aggregate drain demand.
//
// Every admitted job imposes a steady-state load on the shared L2/L3
// channel: roughly one delta checkpoint of `footprint * dirty_fraction`
// bytes per optimal interval w*. The controller estimates that demand per
// job (demand_bps) with the same Young/Daly-style w* the per-job decider
// converges to, and admits a job only while
//
//     sum(admitted demand) + demand(job) <= target_utilization * capacity
//
// — the head-room guard that keeps the channel out of the congestion
// regime where every tenant's NET² blows up together. Jobs that do not
// fit are queued FIFO (up to queue_capacity) and promoted as admitted
// jobs finish; past the queue bound they are rejected outright. Both
// outcomes are first-class (AdmissionDecision), not errors: a fleet at
// capacity is operating correctly.
//
// Determinism: decisions depend only on the offer sequence — no clocks,
// no randomness — so a fleet replays byte-identically under any shard
// count as long as offers arrive in a deterministic order (FleetScheduler
// offers at round boundaries, sorted by arrival then job id).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "workload/lanl_trace.h"

namespace aic::obs {
class Gauge;
struct Hub;
}  // namespace aic::obs

namespace aic::fleet {

/// What a fleet chooses about admission (FleetConfig::admission).
struct AdmissionPolicy {
  /// Fraction of capacity the steady-state demand may fill; the rest is
  /// head-room for drain bursts and retry traffic.
  double target_utilization = 0.7;
  /// FIFO backlog bound; offers past it are rejected.
  std::size_t queue_capacity = 64;
};

/// The policy plus the demand model's inputs, which a FleetScheduler takes
/// from its own channel and deciders.
struct AdmissionConfig : AdmissionPolicy {
  /// Drain-channel capacity the fleet shares (bps).
  double capacity_bps = 1.0e9;
  /// Per-job failure rate (all levels) used in the w* demand estimate.
  double lambda_total = 1.0e-3;
  /// Clamp on the estimated checkpoint interval (seconds).
  double min_interval_s = 30.0;
  double max_interval_s = 3600.0;
};

/// The Young/Daly interval w* = sqrt(2 * drain_s / (lambda * factor)),
/// clamped to [min_s, max_s]; `factor` scales the failure exposure with
/// the job's width. The admission estimate and the fleet's per-job decider
/// both call it, so they compute the same bits.
inline double young_daly_interval(double drain_s, double lambda,
                                  double factor, double min_s, double max_s) {
  return std::clamp(std::sqrt(2.0 * drain_s / (lambda * factor)), min_s,
                    max_s);
}

enum class AdmissionDecision : std::uint8_t {
  kAdmitted = 0,
  kQueued,
  kRejected,
};

const char* to_string(AdmissionDecision d);

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config);

  /// Estimated steady-state drain demand of one job (bps): one delta of
  /// footprint * dirty_fraction bytes per estimated interval w*, where
  /// w* = sqrt(2 * drain_time / lambda) clamped to the config's interval
  /// bounds (drain_time estimated at full channel bandwidth — optimistic,
  /// hence the utilization head-room).
  double demand_bps(const workload::FleetJobSpec& job) const;

  /// Demand of the job running at `factor` times its base width: the delta
  /// scales with the footprint and the failure exposure scales the interval
  /// (lambda * factor in w*).
  double demand_bps(const workload::FleetJobSpec& job, double factor) const;

  /// Offers a job for admission. kAdmitted reserves its demand
  /// immediately; kQueued parks it (promote via drain_queue()); kRejected
  /// drops it — the queue is full, or the job's demand alone exceeds the
  /// budget and could never be admitted.
  AdmissionDecision offer(const workload::FleetJobSpec& job);

  /// Re-prices an admitted job after an elastic reconfiguration to
  /// `factor` times its base width: the reserved demand moves by the
  /// difference between the new-width and previous-width estimates, and
  /// release() will subtract the *current*-width demand — without this a
  /// grown job's release leaks reserved head-room forever (and a shrunk
  /// job's release over-frees it).
  void resize(const workload::FleetJobSpec& job, double factor);

  /// Releases a finished (or evicted) admitted job's demand at its
  /// current width.
  void release(const workload::FleetJobSpec& job);

  /// Promotes queued jobs FIFO while their demand fits, returning the
  /// newly admitted specs in queue order. Strict FIFO: promotion stops at
  /// the first job that does not fit, even if a later, smaller one would
  /// (no starvation of large jobs).
  std::vector<workload::FleetJobSpec> drain_queue();

  double admitted_demand_bps() const { return admitted_demand_bps_; }
  /// Current width factor of a (resized) job; 1.0 if never resized.
  double width_factor(std::uint64_t job_id) const;
  double budget_bps() const {
    return config_.capacity_bps * config_.target_utilization;
  }
  std::size_t queued() const { return queue_.size(); }
  std::uint64_t admitted_total() const { return admitted_total_; }
  std::uint64_t queued_total() const { return queued_total_; }
  std::uint64_t rejected_total() const { return rejected_total_; }

  const AdmissionConfig& config() const { return config_; }

  /// Attaches live head-room gauges (fleet.admission.*) to `hub`: reserved
  /// demand, the utilization budget, and the FIFO depth, refreshed on every
  /// offer / resize / release / promotion. nullptr detaches.
  void set_obs(obs::Hub* hub);

 private:
  bool fits(double demand) const;
  void update_gauges();

  AdmissionConfig config_;
  double admitted_demand_bps_ = 0.0;
  /// job_id -> current width factor for jobs resized off their base
  /// width; erased on release (absent means 1.0).
  std::map<std::uint64_t, double> factors_;
  std::deque<workload::FleetJobSpec> queue_;
  std::uint64_t admitted_total_ = 0;
  std::uint64_t queued_total_ = 0;
  std::uint64_t rejected_total_ = 0;
  obs::Gauge* g_demand_ = nullptr;
  obs::Gauge* g_budget_ = nullptr;
  obs::Gauge* g_queue_ = nullptr;
};

}  // namespace aic::fleet
