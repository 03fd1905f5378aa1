#include "fleet/fleet_scheduler.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/clock.h"
#include "obs/names.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace aic::fleet {
namespace on = obs::names;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kDrainLevel = 3;
/// Local capture bandwidth: a capture of B bytes pauses the job for
/// B / kCaptureBps seconds.
constexpr double kCaptureBps = 4.0e9;
/// EWMA smoothing of the observed drain time feeding the decider.
constexpr double kEwmaAlpha = 0.3;

/// Writes the decimal digits of `v` to end just before `end` and returns
/// where they start.
char* digits_before(char* end, std::uint64_t v) {
  do {
    *--end = char('0' + v % 10);
    v /= 10;
  } while (v != 0);
  return end;
}

/// The drain's object name, "j<job>/c<checkpoint>": formatted right to left
/// into a stack buffer and copied into the string once.
std::string capture_key(std::uint64_t job, std::uint64_t ckpt) {
  char buf[1 + 20 + 2 + 20];  // at most 20 digits per number
  char* p = digits_before(std::end(buf), ckpt);
  *--p = 'c';
  *--p = '/';
  p = digits_before(p, job);
  *--p = 'j';
  return std::string(p, std::end(buf));
}

/// Sorts `slots` and walks them in that order, dropping every slot for
/// which `done` returns true.
template <class Done>
void sweep_in_slot_order(std::vector<std::uint32_t>& slots, Done done) {
  std::sort(slots.begin(), slots.end());
  std::size_t kept = 0;
  for (const std::uint32_t slot : slots) {
    if (!done(slot)) slots[kept++] = slot;
  }
  slots.resize(kept);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t idx = std::min(
      v.size() - 1, std::size_t(q * double(v.size())));
  std::nth_element(v.begin(), v.begin() + std::ptrdiff_t(idx), v.end());
  return v[idx];
}

}  // namespace

FleetScheduler::FleetScheduler(FleetConfig config,
                               std::vector<workload::FleetJobSpec> jobs,
                               QosPolicy policy)
    : config_(config),
      policy_(std::move(policy)),
      // The controller's demand model must agree with the per-job
      // deciders: same channel, same failure rate, same interval clamp.
      admission_(AdmissionConfig{config.admission, config.bandwidth_bps,
                                 config.lambda_total, config.min_interval_s,
                                 config.max_interval_s}),
      sched_([&config] {
        xfer::TransferScheduler::Config c;
        c.chunk_bytes = config.chunk_bytes;
        c.obs = config.obs;
        return c;
      }()) {
  AIC_CHECK_MSG(config_.shards >= 1,
                "shard count must be >= 1, got " << config_.shards);
  AIC_CHECK_MSG(config_.quantum_s > 0.0,
                "round quantum must be positive, got " << config_.quantum_s);
  AIC_CHECK_MSG(config_.lambda_total > 0.0, "fleet lambda must be positive");
  AIC_CHECK_MSG(config_.full_every >= 1, "full_every must be >= 1");
  // Fleet drains are size-only: the level publishes nothing, so it has no
  // sink.
  sched_.add_level(kDrainLevel, {config_.bandwidth_bps, config_.latency_s},
                   nullptr);
  // Installs the tenant table; a reservation set that oversubscribes the
  // channel throws xfer::ReservationError here, before any job runs.
  policy_.apply(sched_, kDrainLevel);

  pending_ = std::move(jobs);
  AIC_CHECK_MSG(pending_.size() <= std::numeric_limits<std::uint32_t>::max(),
                "a fleet holds at most 2^32 - 1 jobs");
  // Each job is activated at most once, so the job table never has to
  // grow (and move every JobState) mid-run.
  jobs_.reserve(pending_.size());
  std::sort(pending_.begin(), pending_.end(),
            [](const workload::FleetJobSpec& a,
               const workload::FleetJobSpec& b) {
              return a.arrival_s != b.arrival_s ? a.arrival_s < b.arrival_s
                                                : a.job_id < b.job_id;
            });
  for (const auto& spec : pending_) {
    AIC_CHECK_MSG(spec.job_id != 0, "fleet job ids must be nonzero");
    AIC_CHECK_MSG(spec.work_s > 0.0,
                  "job " << spec.job_id << " has no work");
    AIC_CHECK_MSG(spec.footprint_bytes > 0,
                  "job " << spec.job_id << " has an empty footprint");
    double prev_at = 0.0;
    for (const auto& rs : spec.resizes) {
      AIC_CHECK_MSG(std::isfinite(rs.factor) && rs.factor > 0.0,
                    "job " << spec.job_id << " resize factor must be positive,"
                           << " got " << rs.factor);
      AIC_CHECK_MSG(rs.at_progress > prev_at,
                    "job " << spec.job_id
                           << " resizes must be strictly ascending in "
                              "at_progress");
      prev_at = rs.at_progress;
    }
  }

  if (config_.obs) {
    auto& m = config_.obs->metrics;
    m_admitted_ = m.counter(on::kFleetJobsAdmitted);
    m_queued_ = m.counter(on::kFleetJobsQueued);
    m_rejected_ = m.counter(on::kFleetJobsRejected);
    m_finished_ = m.counter(on::kFleetJobsFinished);
    m_checkpoints_ = m.counter(on::kFleetCheckpoints);
    m_commits_ = m.counter(on::kFleetCommits);
    m_failures_ = m.counter(on::kFleetFailures);
    m_net2_ = m.counter(on::kFleetNet2Bytes);
    m_resizes_ = m.counter(on::kFleetResizes);
    m_tts_ = m.histogram(on::kFleetTimeToSafeSeconds,
                         obs::Histogram::exponential_buckets(0.1, 2.0, 16));
    g_goodput_ = m.gauge(on::kFleetGoodputBps);
    admission_.set_obs(config_.obs);
  }
}

obs::CausalLog* FleetScheduler::causal_log() const {
  if (config_.obs == nullptr) return nullptr;
  obs::Telemetry* t = config_.obs->telemetry();
  return t == nullptr ? nullptr : &t->causal();
}

FleetScheduler::TenantObs& FleetScheduler::tenant_obs(std::uint64_t tenant) {
  auto it = tenant_obs_.find(tenant);
  if (it == tenant_obs_.end()) {
    auto& m = config_.obs->metrics;
    TenantObs t;
    t.goodput = m.gauge(on::tenant_metric(tenant, on::kTenantGoodputBps));
    t.net2 = m.gauge(on::tenant_metric(tenant, on::kTenantNet2Bytes));
    t.commits = m.gauge(on::tenant_metric(tenant, on::kTenantCommits));
    t.finished = m.gauge(on::tenant_metric(tenant, on::kTenantJobsFinished));
    t.tts = m.histogram(
        on::tenant_metric(tenant, on::kTenantTimeToSafeSeconds),
        obs::Histogram::exponential_buckets(0.1, 2.0, 16));
    it = tenant_obs_.emplace(tenant, t).first;
  }
  return it->second;
}

double FleetScheduler::size_factor(const JobState& j) const {
  return j.resizes_applied == 0
             ? 1.0
             : j.spec.resizes[j.resizes_applied - 1].factor;
}

std::uint64_t FleetScheduler::delta_bytes(const JobState& j) const {
  return std::max<std::uint64_t>(
      1, std::uint64_t(double(j.spec.footprint_bytes) *
                       j.spec.dirty_fraction * size_factor(j)));
}

double FleetScheduler::w_star(const JobState& j) const {
  // Width scales the failure exposure: more nodes, proportionally more
  // strikes — the interval tightens as sqrt(1/factor) on a grow.
  return young_daly_interval(j.pred_drain_s, config_.lambda_total,
                             size_factor(j), config_.min_interval_s,
                             config_.max_interval_s);
}

FleetScheduler::Action FleetScheduler::next_action(JobState& j, double at,
                                                   ActionKind kind) {
  Action a;
  a.time = at;
  a.job = j.spec.job_id;
  a.seq = j.round_seq++;
  a.slot = j.slot;
  a.kind = kind;
  return a;
}

void FleetScheduler::sync_width(JobState& j, double at,
                                std::vector<Action>& out) const {
  const auto& rs = j.spec.resizes;
  std::size_t applied = 0;
  while (applied < rs.size() && j.progress >= rs[applied].at_progress - 1e-9) {
    ++applied;
  }
  if (applied == j.resizes_applied) return;
  while (j.resizes_applied != applied) {
    if (j.resizes_applied < applied) {
      ++j.resizes_applied;
      ++j.stats.resizes;
    } else {
      // A failure rewound progress below the boundary: the width reverts;
      // re-treading the boundary re-fires the resize.
      --j.resizes_applied;
    }
    ++j.width_epoch;
    Action a = next_action(j, at, ActionKind::kResize);
    a.factor = size_factor(j);
    out.push_back(a);
  }
  // The stream of strikes is a pure function of (seed, job, width epoch),
  // so it does not depend on sharding. The epoch counts reverts too: a
  // stream keyed by the width alone would replay the same first strike
  // after every re-crossing of a boundary, and a job whose strike falls
  // before its next commit would never get past it.
  j.failures = failure::FailureInjector(
      failure::FailureSpec::from_total(config_.lambda_total * size_factor(j)),
      Rng(failure::job_stream_seed(
          config_.seed ^ (0x9E3779B97F4A7C15ULL * j.width_epoch),
          j.spec.job_id)));
  j.next_failure = j.failures.next_after(at);
  // Re-plan the work span at the new width immediately — the post-resize
  // exposure and delta size make the previous schedule stale.
  j.next_ckpt = at + w_star(j);
}

void FleetScheduler::mix(std::uint64_t v) {
  digest_ ^= v;
  digest_ *= 0x100000001b3ULL;  // FNV-1a prime
}

void FleetScheduler::activate(const workload::FleetJobSpec& spec,
                              double start) {
  const auto slot = std::uint32_t(jobs_.size());
  AIC_CHECK_MSG(index_.emplace(spec.job_id, slot).second,
                "duplicate fleet job id " << spec.job_id);
  jobs_.emplace_back(
      spec,
      failure::FailureInjector(
          failure::FailureSpec::from_total(config_.lambda_total),
          Rng(failure::job_stream_seed(config_.seed, spec.job_id))),
      slot);
  live_jobs_.push_back(slot);
  JobState& j = jobs_.back();
  j.rewind = ckpt::RewindWindow(config_.rewind_budget);
  j.admission_wait_s = std::max(0.0, start - spec.arrival_s);
  j.stats.start_time = start;
  j.next_failure = j.failures.next_after(start);
  // Initial drain prediction: the delta alone at full channel bandwidth —
  // optimistic on a contended fleet; the EWMA corrects within a few
  // commits.
  j.pred_drain_s = config_.latency_s +
                   double(delta_bytes(j)) / config_.bandwidth_bps;
  j.next_ckpt = start + w_star(j);
  if (m_admitted_) m_admitted_->add();
  if (config_.obs) {
    config_.obs->trace.instant(obs::TimeDomain::kVirtual, on::kCatFleet,
                               on::kEvAdmit, start,
                               std::uint32_t(spec.tenant),
                               {{"job", double(spec.job_id)}});
  }
}

void FleetScheduler::admit_arrivals(double t1) {
  while (next_arrival_ < pending_.size() &&
         pending_[next_arrival_].arrival_s < t1) {
    const workload::FleetJobSpec& spec = pending_[next_arrival_];
    const AdmissionDecision d = admission_.offer(spec);
    switch (d) {
      case AdmissionDecision::kAdmitted:
        activate(spec, spec.arrival_s);
        break;
      case AdmissionDecision::kQueued:
        ++queued_offers_;
        if (m_queued_) m_queued_->add();
        if (config_.obs) {
          config_.obs->trace.instant(obs::TimeDomain::kVirtual, on::kCatFleet,
                                     on::kEvQueue, spec.arrival_s,
                                     std::uint32_t(spec.tenant),
                                     {{"job", double(spec.job_id)}});
        }
        break;
      case AdmissionDecision::kRejected:
        ++rejected_jobs_;
        ++tenant_rejected_[spec.tenant];
        if (m_rejected_) m_rejected_->add();
        if (config_.obs) {
          config_.obs->trace.instant(obs::TimeDomain::kVirtual, on::kCatFleet,
                                     on::kEvReject, spec.arrival_s,
                                     std::uint32_t(spec.tenant),
                                     {{"job", double(spec.job_id)}});
        }
        break;
    }
    ++next_arrival_;
  }
}

void FleetScheduler::job_round(JobState& j, double t0, double t1,
                               std::vector<Action>& out) const {
  j.round_seq = 0;
  double cursor = std::max(t0, j.stats.start_time);
  if (cursor >= t1) return;

  // A resume owed from a restart that ended exactly on (or before) the
  // round boundary: the busy-end event fell outside the previous round's
  // half-open window, so it is honored here.
  if (j.drain_interrupted && j.busy_until <= cursor) {
    out.push_back(next_action(j, cursor, ActionKind::kResume));
    j.drain_interrupted = false;
  }

  while (cursor < t1) {
    const bool busy = j.busy_until > cursor;
    const double e_busy = busy ? j.busy_until : kInf;
    const double e_fail = j.next_failure.time;
    const double e_work = busy ? kInf : cursor + (j.spec.work_s - j.progress);
    const double e_ckpt = (!busy && !j.drain_outstanding)
                              ? std::max(j.next_ckpt, cursor)
                              : kInf;
    // Next elastic boundary, mapped from progress-space to the timeline
    // (work advances 1:1 with time while not busy). Legs stop AT the
    // boundary, so progress never silently overshoots a pending resize.
    const double e_resize =
        (!busy && j.resizes_applied < j.spec.resizes.size())
            ? cursor +
                  std::max(0.0, j.spec.resizes[j.resizes_applied].at_progress -
                                    j.progress)
            : kInf;
    double t = std::min(std::min(std::min(e_busy, e_fail),
                                 std::min(e_work, e_ckpt)),
                        e_resize);
    if (t > t1) t = t1;
    if (!busy) j.progress += t - cursor;
    cursor = t;
    if (cursor >= t1) break;

    if (e_busy <= t) {
      // Restart downtime (or a capture pause) ended; a drain interrupted
      // by the failure resumes now.
      if (j.drain_interrupted) {
        out.push_back(next_action(j, cursor, ActionKind::kResume));
        j.drain_interrupted = false;
      }
      continue;
    }
    if (e_fail <= t) {
      const int level = j.next_failure.level;
      ++j.stats.failures;
      j.stats.rework_s += std::max(0.0, j.progress - j.safe_progress);
      // Deterministic re-execution: the job rewinds to its last *safe*
      // (committed) state. An in-flight drain still covers a valid future
      // state of the recompute, so it keeps draining (level 1) or resumes
      // after the restart (level >= 2 loses the node's streams).
      j.progress = std::min(j.progress, j.safe_progress);
      j.busy_until = cursor + config_.restart_s;
      if (level >= 2 && j.drain_outstanding) j.drain_interrupted = true;
      Action a = next_action(j, cursor, ActionKind::kFailure);
      a.fail_level = level;
      out.push_back(a);
      j.next_failure = j.failures.next_after(cursor);
      // The rewind may have crossed back below an elastic boundary; if so
      // the width (and with it the failure stream just drawn) reverts.
      sync_width(j, cursor, out);
      continue;
    }
    if (e_work <= t) {
      j.finished = true;
      j.stats.finish_time = cursor;
      out.push_back(next_action(j, cursor, ActionKind::kFinish));
      break;
    }
    if (e_resize <= t) {
      sync_width(j, cursor, out);
      continue;
    }
    // Capture: pause for the copy, hand the bytes to the drain engine.
    const bool full =
        j.force_full || j.ckpt_seq % std::uint64_t(config_.full_every) == 0;
    const std::uint64_t bytes =
        full ? std::max<std::uint64_t>(
                   1, std::uint64_t(double(j.spec.footprint_bytes) *
                                    size_factor(j)))
             : delta_bytes(j);
    j.force_full = false;
    j.drain_outstanding = true;
    j.drain_interrupted = false;
    j.drain_capture_time = cursor;
    j.drain_progress = j.progress;
    ++j.ckpt_seq;
    ++j.stats.checkpoints;
    if (full) ++j.stats.fulls;
    j.busy_until = cursor + double(bytes) / kCaptureBps;
    Action a = next_action(j, cursor, ActionKind::kCapture);
    a.bytes = bytes;
    a.ckpt = j.ckpt_seq;
    out.push_back(a);
  }
}

void FleetScheduler::apply_actions(const std::vector<Action>& merged) {
  for (const Action& a : merged) {
    mix(std::bit_cast<std::uint64_t>(a.time));
    mix(a.job);
    mix((std::uint64_t(a.seq) << 8) | std::uint64_t(a.kind));
    mix(a.bytes);
    if (a.kind == ActionKind::kResize) {
      mix(std::bit_cast<std::uint64_t>(a.factor));
    }
    sched_.run_until(a.time);
    JobState& j = jobs_[a.slot];
    switch (a.kind) {
      case ActionKind::kCapture: {
        std::string key = capture_key(a.job, a.ckpt);
        std::uint64_t cid = 0;
        if (obs::CausalLog* log = causal_log()) {
          // One causal chain per checkpoint, opened at capture start; the
          // drain engine adds the queue/wire/backoff/stall segments and
          // closes the chain at commit (or abort), so total == time-to-safe.
          cid = log->open(key, j.spec.tenant, a.time);
          log->add(cid, obs::CausalSegment::kCapture,
                   double(a.bytes) / kCaptureBps);
          if (j.admission_wait_s > 0.0) {
            // Arrival -> activation wait, charged once to the job's first
            // chain: that checkpoint is the first state made safe, so the
            // admission queue genuinely delayed it.
            log->add(cid, obs::CausalSegment::kAdmissionQueue,
                     j.admission_wait_s);
            j.admission_wait_s = 0.0;
          }
        }
        j.drain_id = sched_.submit_sized(kDrainLevel, std::move(key), a.bytes,
                                         j.spec.tenant);
        if (cid != 0) sched_.annotate(j.drain_id, cid);
        live_drains_.push_back(a.slot);
        if (m_checkpoints_) m_checkpoints_->add();
        break;
      }
      case ActionKind::kFailure:
        if (m_failures_) m_failures_->add();
        if (config_.obs) {
          config_.obs->trace.instant(obs::TimeDomain::kVirtual, on::kCatFleet,
                                     on::kEvFailure, a.time,
                                     std::uint32_t(j.spec.tenant),
                                     {{"job", double(a.job)},
                                      {"level", double(a.fail_level)}});
        }
        if (a.fail_level >= 2 && j.drain_id != 0) {
          if (sched_.interrupt(j.drain_id)) ++j.stats.interrupts;
        }
        break;
      case ActionKind::kResume:
        if (j.drain_id != 0 && sched_.resume(j.drain_id)) ++j.stats.resumes;
        break;
      case ActionKind::kFinish:
        unreleased_.push_back(a.slot);
        if (config_.obs) {
          config_.obs->trace.instant(obs::TimeDomain::kVirtual, on::kCatFleet,
                                     on::kEvJobFinish, a.time,
                                     std::uint32_t(j.spec.tenant),
                                     {{"job", double(a.job)}});
        }
        break;
      case ActionKind::kResize:
        // Re-price the job's reserved drain demand at its new width — the
        // fix for the head-room leak a grown job's release used to cause.
        admission_.resize(j.spec, a.factor);
        if (m_resizes_) m_resizes_->add();
        if (config_.obs) {
          config_.obs->trace.instant(obs::TimeDomain::kVirtual, on::kCatFleet,
                                     on::kEvResize, a.time,
                                     std::uint32_t(j.spec.tenant),
                                     {{"job", double(a.job)},
                                      {"factor", a.factor}});
        }
        break;
    }
  }
}

bool FleetScheduler::settle_drain(JobState& j, double t1) {
  const xfer::TransferRecord& rec = sched_.record(j.drain_id);
  if (rec.state == xfer::TransferState::kCommitted) {
    const double tts = rec.commit_time - j.drain_capture_time;
    const double observed = rec.commit_time - rec.submit_time;
    j.pred_drain_s =
        kEwmaAlpha * observed + (1.0 - kEwmaAlpha) * j.pred_drain_s;
    j.safe_progress = std::max(j.safe_progress, j.drain_progress);
    // Retention: the committed checkpoint enters the job's rewind
    // window; overflow picks the era-ladder victim, whose bytes leave
    // the fleet's retained-storage account (digest-covered so a
    // retention divergence breaks shard-determinism loudly). Recovery
    // only ever rewinds to the NEWEST commit (safe_progress), which the
    // schedule never discards.
    if (j.rewind.active()) {
      const auto victim =
          j.rewind.admit(j.ckpt_seq, rec.commit_time, rec.total_bytes);
      if (victim) {
        mix(victim->sequence);
        mix(victim->bytes);
      }
    }
    ++j.stats.commits;
    j.stats.committed_bytes += rec.total_bytes;
    j.stats.net2_bytes += rec.stats.bytes_acked + rec.stats.bytes_wasted;
    j.stats.tts_sum_s += tts;
    tts_samples_.push_back(tts);
    tenant_tts_[j.spec.tenant].push_back(tts);
    mix(std::bit_cast<std::uint64_t>(rec.commit_time));
    mix(j.spec.job_id);
    if (m_commits_) m_commits_->add();
    if (m_net2_) {
      m_net2_->add(rec.stats.bytes_acked + rec.stats.bytes_wasted);
    }
    if (m_tts_) m_tts_->observe(tts);
    if (config_.obs) {
      TenantObs& t = tenant_obs(j.spec.tenant);
      ++t.commits_n;
      t.net2_bytes += rec.stats.bytes_acked + rec.stats.bytes_wasted;
      t.committed_bytes += rec.total_bytes;
      t.tts->observe(tts);
      committed_bytes_total_ += rec.total_bytes;
    }
    sched_.discard(j.drain_id);
    j.drain_id = 0;
    j.drain_outstanding = false;
    j.drain_interrupted = false;
    if (!j.finished) j.next_ckpt = t1 + w_star(j);
    return true;
  }
  if (rec.state == xfer::TransferState::kAborted) {
    ++j.stats.aborts;
    j.stats.net2_bytes += rec.stats.bytes_acked + rec.stats.bytes_wasted;
    if (m_net2_) {
      m_net2_->add(rec.stats.bytes_acked + rec.stats.bytes_wasted);
    }
    if (config_.obs) {
      tenant_obs(j.spec.tenant).net2_bytes +=
          rec.stats.bytes_acked + rec.stats.bytes_wasted;
    }
    sched_.discard(j.drain_id);
    j.drain_id = 0;
    j.drain_outstanding = false;
    j.drain_interrupted = false;
    // The partial drain is gone; the next capture must be
    // self-contained.
    j.force_full = true;
    if (!j.finished) j.next_ckpt = t1;
    return true;
  }
  return false;
}

void FleetScheduler::boundary(double t1) {
  // Both walks go in slot order, the order of jobs_: commits reach the
  // digest and the time-to-safe samples, and releases reach the admission
  // controller's floating-point demand sum, exactly as a walk over every
  // job would deliver them.
  sweep_in_slot_order(live_drains_, [this, t1](std::uint32_t slot) {
    return settle_drain(jobs_[slot], t1);
  });
  sweep_in_slot_order(unreleased_, [this](std::uint32_t slot) {
    JobState& j = jobs_[slot];
    if (j.drain_id != 0) return false;  // its last drain is still live
    j.released = true;
    ++finished_jobs_;
    admission_.release(j.spec);
    if (m_finished_) m_finished_->add();
    if (config_.obs) ++tenant_obs(j.spec.tenant).jobs_finished;
    return true;
  });
  for (const workload::FleetJobSpec& spec : admission_.drain_queue()) {
    activate(spec, t1);
  }
}

void FleetScheduler::round_telemetry(double t1) {
  if (config_.obs == nullptr) return;
  if (t1 > 0.0) g_goodput_->set(double(committed_bytes_total_) / t1);
  for (auto& [tenant, t] : tenant_obs_) {
    if (t1 > 0.0) t.goodput->set(double(t.committed_bytes) / t1);
    t.net2->set(double(t.net2_bytes));
    t.commits->set(double(t.commits_n));
    t.finished->set(double(t.jobs_finished));
  }
  if (obs::Telemetry* tel = config_.obs->telemetry()) tel->tick(t1);
}

void FleetScheduler::run() {
  const std::size_t shards = std::size_t(config_.shards);
  std::vector<std::vector<Action>> shard_actions(shards);
  std::vector<Action> merged;
  // One clock read per phase: each lap charges the time since the last.
  std::uint64_t mark = obs::wall_now_ns();
  auto lap = [&mark](double& phase_s) {
    const std::uint64_t t = obs::wall_now_ns();
    phase_s += double(t - mark) * 1e-9;
    mark = t;
  };
  while (!finished() && now_ < config_.max_virtual_s) {
    const double t0 = now_;
    const double t1 = t0 + config_.quantum_s;
    admit_arrivals(t1);
    lap(phase_wall_.admission_s);

    for (auto& v : shard_actions) v.clear();
    // Shard s takes every shards-th live job from the s-th on.
    auto pass = [this, shards, t0, t1, &shard_actions](std::size_t s) {
      for (std::size_t i = s; i < live_jobs_.size(); i += shards) {
        job_round(jobs_[live_jobs_[i]], t0, t1, shard_actions[s]);
      }
    };
    common::parallel_for(shards, shards, pass);
    std::erase_if(live_jobs_,
                  [this](std::uint32_t slot) { return jobs_[slot].finished; });
    lap(phase_wall_.shards_s);

    merged.clear();
    for (const auto& v : shard_actions) {
      merged.insert(merged.end(), v.begin(), v.end());
    }
    std::sort(merged.begin(), merged.end(),
              [](const Action& a, const Action& b) {
                if (a.time != b.time) return a.time < b.time;
                if (a.job != b.job) return a.job < b.job;
                return a.seq < b.seq;
              });
    lap(phase_wall_.merge_s);
    apply_actions(merged);
    sched_.run_until(t1);
    lap(phase_wall_.apply_s);
    boundary(t1);
    round_telemetry(t1);
    now_ = t1;
    lap(phase_wall_.boundary_s);
  }
  if (config_.obs) export_metrics(report());
}

bool FleetScheduler::finished() const {
  return next_arrival_ >= pending_.size() && admission_.queued() == 0 &&
         finished_jobs_ == jobs_.size();
}

const JobStats& FleetScheduler::job_stats(std::uint64_t job_id) const {
  auto it = index_.find(job_id);
  AIC_CHECK_MSG(it != index_.end(), "unknown fleet job " << job_id);
  return jobs_[it->second].stats;
}

FleetReport FleetScheduler::report() const {
  FleetReport r;
  r.elapsed_s = now_;
  r.complete = finished();
  r.jobs = pending_.size();
  r.admitted = admission_.admitted_total();
  r.queued = queued_offers_;
  r.rejected = rejected_jobs_;
  r.finished = finished_jobs_;
  r.digest = digest_;

  for (const auto& spec : pending_) {
    ++r.tenants[spec.tenant].jobs;
  }
  for (const auto& [tenant, n] : tenant_rejected_) {
    r.tenants[tenant].jobs_rejected = n;
  }
  for (const JobState& j : jobs_) {
    TenantStats& t = r.tenants[j.spec.tenant];
    ++t.jobs_admitted;
    t.jobs_finished += j.released ? 1 : 0;
    t.checkpoints += j.stats.checkpoints;
    t.commits += j.stats.commits;
    t.failures += j.stats.failures;
    t.net2_bytes += j.stats.net2_bytes;
    t.committed_bytes += j.stats.committed_bytes;
    t.rework_s += j.stats.rework_s;
    t.tts_sum_s += j.stats.tts_sum_s;
    r.checkpoints += j.stats.checkpoints;
    r.commits += j.stats.commits;
    r.failures += j.stats.failures;
    r.net2_bytes += j.stats.net2_bytes;
    r.committed_bytes += j.stats.committed_bytes;
    r.rework_s += j.stats.rework_s;
    r.resizes += j.stats.resizes;
    if (j.rewind.active()) {
      r.rewind_discards += j.rewind.discards();
      r.rewind_live_bytes += j.rewind.live_bytes();
      if (j.rewind.size() > 0) {
        r.rewind_max_gap_s = std::max(r.rewind_max_gap_s,
                                      j.rewind.max_gap(now_));
        r.rewind_gap_bound_s = std::max(r.rewind_gap_bound_s,
                                        j.rewind.gap_bound(now_));
      }
    }
  }
  if (r.elapsed_s > 0.0) {
    r.goodput_bps = double(r.committed_bytes) / r.elapsed_s;
    for (auto& [tenant, t] : r.tenants) {
      t.goodput_bps = double(t.committed_bytes) / r.elapsed_s;
    }
  }
  if (!tts_samples_.empty()) {
    double sum = 0.0;
    for (const double s : tts_samples_) sum += s;
    r.tts_mean_s = sum / double(tts_samples_.size());
    r.tts_p50_s = percentile(tts_samples_, 0.50);
    r.tts_p99_s = percentile(tts_samples_, 0.99);
  }
  for (const auto& [tenant, samples] : tenant_tts_) {
    r.tenants[tenant].tts_p99_s = percentile(samples, 0.99);
  }
  return r;
}

void FleetScheduler::export_metrics(const FleetReport& r) const {
  auto& m = config_.obs->metrics;
  m.gauge(on::kFleetGoodputBps)->set(r.goodput_bps);
  m.gauge(on::kFleetReworkSeconds)->set(r.rework_s);
  if (config_.rewind_budget > 0) {
    m.gauge(on::kFleetRewindLiveBytes)->set(double(r.rewind_live_bytes));
    m.gauge(on::kFleetRewindDiscards)->set(double(r.rewind_discards));
    m.gauge(on::kFleetRewindMaxGapSeconds)->set(r.rewind_max_gap_s);
    m.gauge(on::kFleetRewindGapBoundSeconds)->set(r.rewind_gap_bound_s);
  }
  for (const auto& [tenant, t] : r.tenants) {
    m.gauge(on::tenant_metric(tenant, on::kTenantGoodputBps))
        ->set(t.goodput_bps);
    m.gauge(on::tenant_metric(tenant, on::kTenantNet2Bytes))
        ->set(double(t.net2_bytes));
    m.gauge(on::tenant_metric(tenant, on::kTenantCommits))
        ->set(double(t.commits));
    m.gauge(on::tenant_metric(tenant, on::kTenantJobsFinished))
        ->set(double(t.jobs_finished));
    m.gauge(on::tenant_metric(tenant, on::kTenantTimeToSafeP99))
        ->set(t.tts_p99_s);
  }
}

}  // namespace aic::fleet
