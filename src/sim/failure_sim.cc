#include "sim/failure_sim.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "ckpt/checkpointer.h"
#include "common/check.h"
#include "mem/snapshot.h"
#include "model/optimizer.h"
#include "obs/names.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "storage/multilevel_store.h"
#include "workload/elastic.h"

namespace aic::sim {
namespace {

namespace on = obs::names;

/// Abort guard: a run whose wall clock passes this has stopped making
/// progress.
constexpr double kMaxWall = 1e7;

/// The simulator's instrumentation surface. Every method is a no-op when
/// the run has no hub.
class SimObs {
 public:
  explicit SimObs(obs::Hub* hub) : hub_(hub) {
    if (hub_ == nullptr) return;
    obs::MetricsRegistry& m = hub_->metrics;
    m_failures_[0] = m.counter(on::kSimFailuresL1);
    m_failures_[1] = m.counter(on::kSimFailuresL2);
    m_failures_[2] = m.counter(on::kSimFailuresL3);
    m_restores_ = m.counter(on::kSimRestores);
    m_checkpoints_ = m.counter(on::kSimCheckpoints);
    m_resumed_ = m.counter(on::kSimDrainsResumed);
    m_resizes_ = m.counter(on::kSimResizes);
    m_replans_ = m.counter(on::kSimReplans);
  }

  void failure(double t, int level) {
    if (hub_ == nullptr) return;
    m_failures_[std::size_t(level - 1)]->add();
    hub_->trace.instant(obs::TimeDomain::kVirtual, on::kCatSim, on::kEvFailure,
                        t, std::uint32_t(level), {{"level", double(level)}});
  }

  /// The recovery read, from the failure instant to work resumption.
  void restore(double t0, double t1, int level, double read_seconds) {
    if (hub_ == nullptr) return;
    m_restores_->add();
    hub_->trace.span(obs::TimeDomain::kVirtual, on::kCatSim, on::kEvRestore,
                     t0, t1, std::uint32_t(level),
                     {{"level", double(level)}, {"read_s", read_seconds}});
    tick(t1);
  }

  void interval(double t0, double t1, std::uint64_t file_bytes) {
    if (hub_ == nullptr) return;
    m_checkpoints_->add();
    hub_->trace.span(obs::TimeDomain::kVirtual, on::kCatCkpt, on::kEvInterval,
                     t0, t1, 0, {{"file_bytes", double(file_bytes)}});
    tick(t1);
  }

  /// One telemetry round on the sim's virtual clock (checkpoint and
  /// restore boundaries). Out-of-order boundaries (a restore span ending
  /// before the last checkpoint tick) are skipped — the sampler demands a
  /// nondecreasing clock.
  void tick(double t) {
    if (hub_ == nullptr) return;
    obs::Telemetry* tel = hub_->telemetry();
    if (tel == nullptr || (tel->ticks() > 0 && t < tel->last_tick_s())) return;
    tel->tick(t);
  }

  void drains_resumed(std::size_t n) {
    if (hub_ != nullptr && n > 0) m_resumed_->add(n);
  }

  void resize(double t, std::uint64_t cores_before, std::uint64_t cores_after) {
    if (hub_ == nullptr) return;
    m_resizes_->add();
    hub_->trace.instant(obs::TimeDomain::kVirtual, on::kCatSim, on::kEvResize,
                        t, 0,
                        {{"cores_before", double(cores_before)},
                         {"cores_after", double(cores_after)}});
  }

  void replan(double t, double w) {
    if (hub_ == nullptr) return;
    m_replans_->add();
    hub_->trace.instant(obs::TimeDomain::kVirtual, on::kCatSim, on::kEvReplan,
                        t, 0, {{"w", w}});
  }

  void finish(const FailureSimResult& result) {
    if (hub_ == nullptr) return;
    obs::MetricsRegistry& m = hub_->metrics;
    m.gauge(on::kSimTurnaroundSeconds)->set(result.turnaround);
    m.gauge(on::kSimBaseSeconds)->set(result.base_time);
    m.gauge(on::kSimNet2)->set(result.net2());
  }

 private:
  obs::Hub* hub_;
  std::array<obs::Counter*, 3> m_failures_{};
  obs::Counter* m_restores_ = nullptr;
  obs::Counter* m_checkpoints_ = nullptr;
  obs::Counter* m_resumed_ = nullptr;
  obs::Counter* m_resizes_ = nullptr;
  obs::Counter* m_replans_ = nullptr;
};

/// The run's workload: the plain benchmark, or an ElasticWorkload over the
/// same profile when resize events are configured.
std::unique_ptr<workload::Workload> make_sim_workload(
    const FailureSimConfig& config) {
  if (config.resizes.empty()) {
    return workload::make_spec_workload(config.benchmark,
                                        config.workload_scale);
  }
  workload::ElasticProfile ep;
  ep.base = workload::spec_profile(config.benchmark, config.workload_scale);
  ep.resizes = config.resizes;
  return std::make_unique<workload::ElasticWorkload>(std::move(ep));
}

/// What a failure leaves restorable: the checkpoint to roll back to and
/// the drains resumed after the restart.
struct Rollback {
  std::uint64_t sequence = 0;
  std::size_t drains_resumed = 0;
};

/// Where a checkpoint's L2/L3 copies land, and so what survives a failure:
/// the one part of the job loop that differs between the analytic model
/// and the transfer engine.
class Placement {
 public:
  /// Stages the initial full checkpoint at every level before t = 0.
  virtual void stage_initial(const ckpt::CheckpointFile& full) = 0;
  /// Advances in-flight placements to wall-clock time `wall`.
  virtual void sync(double /*wall*/) {}
  /// "No L1 until the last L3 has finished": whether the checkpointing
  /// core is free for the next checkpoint at `wall`.
  virtual bool core_free(double wall) const = 0;
  /// Places the checkpoint just captured at `wall`; returns the blocking
  /// halt it costs the application.
  virtual double put(const ckpt::CheckpointFile& file,
                     const ckpt::CaptureStats& st,
                     const control::CostModel& costs, double wall) = 0;
  /// Mirrors the chain's last rewind-window prune.
  virtual void prune(const ckpt::CheckpointChain& chain) = 0;
  /// Applies a level-`level` failure striking at `wall`.
  virtual Rollback fail(int level, double wall) = 0;
  /// Seconds to read the restart chain back after the last fail().
  virtual double recovery_seconds(int level,
                                  const ckpt::CheckpointChain& chain,
                                  const control::CostModel& costs) const = 0;
  /// Settles the placement once the job has finished.
  virtual void finish(FailureSimResult& /*result*/) {}

 protected:
  ~Placement() = default;  // never deleted through the base
};

/// L2/L3 copies land after the c2/c3 formula durations (no drain engine).
class AnalyticPlacement final : public Placement {
 public:
  void stage_initial(const ckpt::CheckpointFile&) override {
    landings_.push_back({0, 0.0, 0.0});
  }

  bool core_free(double wall) const override { return wall >= core_free_at_; }

  double put(const ckpt::CheckpointFile& file, const ckpt::CaptureStats& st,
             const control::CostModel& costs, double wall) override {
    const auto params = costs.delta_params(st.uncompressed_bytes,
                                           st.file_bytes, st.delta_work_units);
    const double halted = wall + params.c1;
    landings_.push_back({file.sequence, halted + (params.c2 - params.c1),
                         halted + (params.c3 - params.c1)});
    core_free_at_ = halted + (params.c3 - params.c1);
    return params.c1;
  }

  void prune(const ckpt::CheckpointChain& chain) override {
    // The victim no longer exists at any level (and is never the newest).
    const std::uint64_t victim = chain.last_prune()->victim_sequence;
    std::erase_if(landings_,
                  [&](const Landing& l) { return l.sequence == victim; });
  }

  Rollback fail(int level, double wall) override {
    // Newest retained checkpoint whose surviving copy covers this failure
    // level; the oldest retained one (its chain starts with a staged or
    // re-anchored full) is the fallback when nothing newer has landed.
    std::uint64_t seq = landings_.front().sequence;
    for (const Landing& l : landings_) {
      const double done = level <= 2 ? l.l2_done : l.l3_done;
      if (done <= wall && l.sequence >= seq) seq = l.sequence;
    }
    std::erase_if(landings_,
                  [&](const Landing& l) { return l.sequence > seq; });
    core_free_at_ = wall;  // the in-flight transfer died with the failure
    return {seq, 0};
  }

  double recovery_seconds(int level, const ckpt::CheckpointChain& chain,
                          const control::CostModel& costs) const override {
    const double bw = level <= 2 ? costs.b2_bps : costs.b3_bps;
    return double(chain.restart_chain_bytes()) / bw;
  }

 private:
  /// One checkpoint's L2/L3 landing times on the wall clock.
  struct Landing {
    std::uint64_t sequence;
    double l2_done;
    double l3_done;
  };
  std::vector<Landing> landings_;
  double core_free_at_ = 0.0;
};

/// L2/L3 copies are real chunked drains through a MultiLevelStore, advanced
/// in lockstep with the wall clock: a failure interrupts whatever chunk is
/// in flight, recovery reads exactly the committed objects (RAID
/// reconstruction included) through store.recover(), and interrupted drains
/// resume from their last acked chunk after the restart.
class DrainPlacement final : public Placement {
 public:
  explicit DrainPlacement(const FailureSimConfig& config)
      : store_(store_config(config)),
        rng_(config.seed ^ 0x9e3779b97f4a7c15ull) {
    if (config.remote_drop_probability > 0.0) {
      store_.xfer().channel(3).set_drop_probability(
          config.remote_drop_probability, config.seed ^ 0xf11e57a7ull);
    }
  }

  void stage_initial(const ckpt::CheckpointFile& full) override {
    // Drained to completion off the clock; the store's virtual clock is
    // then pinned to the wall clock through the clock0_ offset.
    (void)store_.put_checkpoint(full);
    clock0_ = store_.xfer().now();
  }

  void sync(double wall) override { store_.xfer().run_until(clock0_ + wall); }

  bool core_free(double) const override {
    return store_.unfinished_drains() == 0;
  }

  double put(const ckpt::CheckpointFile& file, const ckpt::CaptureStats& st,
             const control::CostModel& costs, double) override {
    const storage::DrainTicket ticket = store_.put_checkpoint_async(file);
    // The local write plus the delta-compression latency; the drains
    // overlap with computation from here on.
    return ticket.local_seconds + costs.delta_latency(st.delta_work_units);
  }

  void prune(const ckpt::CheckpointChain& chain) override {
    // The victim's objects are erased at every level and a re-anchored
    // successor's stored copy (or in-flight drain) is rewritten with the
    // new full bytes.
    const auto& ev = *chain.last_prune();
    const auto& files = chain.files();
    const auto it = std::find_if(
        files.begin(), files.end(), [&](const ckpt::CheckpointFile& f) {
          return ev.reanchored_sequence == f.sequence;
        });
    store_.reclaim_checkpoint(ev.victim_sequence,
                              it == files.end() ? nullptr : &*it);
  }

  Rollback fail(int level, double wall) override {
    sync(wall);  // bring every drain to the failure instant
    store_.apply_failure(level, rng_);
    auto rec = store_.recover();
    AIC_CHECK_MSG(rec.has_value(),
                  "level-" << level << " failure left nothing restorable");
    read_seconds_ = rec->read_seconds;
    const std::uint64_t seq = rec->chain.back().sequence;
    store_.truncate_to(seq + 1);
    if (!store_.raid().available()) {
      // Two RAID members gone (level-3 damage): replace the group and
      // re-seed it from the remote copies before new drains target it.
      store_.repair_raid_group();
      (void)store_.reseed_from_remote();
    }
    return {seq, store_.resume_drains()};
  }

  double recovery_seconds(int, const ckpt::CheckpointChain&,
                          const control::CostModel&) const override {
    // The measured read of the surviving chain; interrupted drains resume
    // concurrently with it.
    return read_seconds_;
  }

  void finish(FailureSimResult& result) override {
    // Let the tail drains land so the committed story is complete.
    store_.xfer().run_until_idle();
    result.xfer_stats = store_.xfer().stats();
  }

 private:
  static storage::MultiLevelConfig store_config(
      const FailureSimConfig& config) {
    storage::MultiLevelConfig mc;
    mc.local_bps = config.costs.local_bps;
    mc.raid_bps = config.costs.b2_bps;
    mc.remote_bps = config.costs.b3_bps;
    mc.xfer.obs = config.obs;
    if (config.xfer_max_attempts_override > 0) {
      mc.xfer.retry.max_attempts_per_chunk = config.xfer_max_attempts_override;
    }
    return mc;
  }

  storage::MultiLevelStore store_;
  Rng rng_;
  double clock0_ = 0.0;
  double read_seconds_ = 0.0;
};

/// The job loop: steps the workload on the wall clock, checkpoints every
/// `interval` of progress once the core is free, and on every failure rolls
/// the chain back to what `placement` says survived, restores it and pays
/// the recovery read. Elastic jobs re-derive the cost model, the failure
/// exposure and (with replan_on_resize) the work span w_L* on every resize
/// and on every rollback that reverts one.
FailureSimResult simulate(const FailureSimConfig& config,
                          Placement& placement) {
  FailureSimResult result;

  // Failure-free reference final state (determinism makes this exact).
  mem::Snapshot reference;
  {
    auto ref = make_sim_workload(config);
    mem::AddressSpace space;
    ref->initialize(space);
    ref->step(space, ref->base_time());
    reference = mem::Snapshot::capture(space);
    result.base_time = ref->base_time();
  }

  auto wl = make_sim_workload(config);
  auto* ewl = dynamic_cast<workload::ElasticWorkload*>(wl.get());
  mem::AddressSpace space;
  wl->initialize(space);

  SimObs obs(config.obs);
  // Delta-compressed incrementals, bounded-regret retention when asked.
  ckpt::CheckpointChain chain(ckpt::CheckpointChain::Config{
      .obs = config.obs, .rewind_budget = config.rewind_budget});
  failure::FailureInjector injector(config.failures, Rng(config.seed));

  double wall = 0.0;
  double interval_start_progress = 0.0;
  double interval_start_wall = 0.0;

  // Width-dependent state, re-derived at every reconfiguration: the cost
  // model (per-node resources scale with the allocation; the per-node
  // remote share b3 does not), the failure exposure (lambda ∝ cores), and
  // the checkpoint interval (under replan_on_resize).
  control::CostModel costs = config.costs;
  failure::FailureSpec exposure = config.failures;
  double interval = config.checkpoint_interval;
  std::optional<ckpt::CaptureStats> last_st;
  std::size_t last_applied = 0;
  std::uint64_t width_epoch = 0;
  std::uint64_t seen_discards = 0;

  // Initial full checkpoint, staged everywhere before t = 0.
  chain.capture(space, wl->cpu_state(), 0.0);
  space.protect_all();
  placement.stage_initial(chain.files().back());

  failure::FailureEvent pending = injector.next_after(0.0);

  // AIC re-plan: minimize the adaptive interval model's NET^2 in the work
  // span, parameterized by the last capture's measured artifacts under the
  // *current* cost model (or the raw footprint before any incremental).
  auto replan = [&]() {
    const model::IntervalParams prev =
        last_st.has_value()
            ? costs.delta_params(last_st->uncompressed_bytes,
                                 last_st->file_bytes,
                                 last_st->delta_work_units)
            : costs.raw_params(ewl->footprint_pages() * kPageSize);
    model::SystemProfile sys;
    sys.lambda = exposure.lambda;
    sys.c = {prev.c1, prev.c2, prev.c3};
    sys.r = {prev.r1, prev.r2, prev.r3};
    const double lo = std::max(1.0, prev.c1);
    const double hi = std::max(lo * 2.0, wl->base_time());
    const auto opt = model::extreme_value_minimum(
        [&](double w) { return model::net2_adaptive(sys, w, prev, prev); },
        lo, hi, std::clamp(interval, lo, hi));
    interval = std::max(1.0, opt.x);
    ++result.replans;
    obs.replan(wall, interval);
  };

  // Re-derives every width-dependent input after the applied-resize count
  // moved — forward (a resize fired during step()) or backward (a rollback
  // reverted one). The failure process is rebuilt at the new rate with a
  // fresh deterministic stream per width epoch; returns whether it was, so
  // the caller draws the new stream's first failure exactly once.
  auto check_width = [&]() {
    if (ewl == nullptr || ewl->applied_resizes() == last_applied) {
      return false;
    }
    const double f = ewl->scale_factor();
    costs = config.costs;
    costs.local_bps *= f;
    costs.compress_bps *= f;
    costs.b2_bps *= f;
    exposure = config.failures;
    for (double& l : exposure.lambda) l *= f;
    ++width_epoch;
    injector = failure::FailureInjector(
        exposure, Rng(config.seed ^ (0x9E3779B97F4A7C15ull * width_epoch)));
    if (ewl->applied_resizes() > last_applied) {
      result.resizes_applied += int(ewl->applied_resizes() - last_applied);
      const auto& mig = ewl->last_migration();
      obs.resize(wall,
                 mig.has_value() ? mig->cores_before
                                 : ewl->profile().base_cores,
                 ewl->cores());
    }
    last_applied = ewl->applied_resizes();
    if (config.replan_on_resize) replan();
    return true;
  };

  auto handle_failure = [&](int level) {
    ++result.failures_by_level[std::size_t(level - 1)];
    ++result.restores;
    const double fail_at = wall;
    obs.failure(fail_at, level);
    const Rollback rollback = placement.fail(level, wall);
    chain.rollback_to(rollback.sequence);
    result.drains_resumed += int(rollback.drains_resumed);
    obs.drains_resumed(rollback.drains_resumed);

    auto restored = chain.restore();
    space = restored.memory.materialize();
    wl->restore_cpu_state(restored.cpu_state);
    space.protect_all();
    interval_start_progress = wl->progress();
    // A rollback can land before a resize boundary: the job restarts at
    // the narrower width, so re-derive everything from it.
    check_width();

    // Recovery: read the restart chain from the surviving level.
    const double recovery = placement.recovery_seconds(level, chain, costs);
    wall += recovery;
    placement.sync(wall);
    obs.restore(fail_at, wall, level, recovery);
    interval_start_wall = wall;
    // The next failure strikes after recovery, drawn from the stream of
    // the width the job restarts at.
    pending = injector.next_after(wall);
  };

  const double quantum = 1.0;
  while (!wl->finished()) {
    AIC_CHECK_MSG(wall < kMaxWall, "failure sim exceeded its wall guard");
    if (pending.time <= wall) {
      handle_failure(pending.level);
      continue;
    }
    // Advance work until the next failure, checkpoint moment, or finish.
    const double step = std::min(quantum, pending.time - wall);
    wl->step(space, step);
    wall += step;
    placement.sync(wall);  // drains progress while the application computes
    if (check_width()) pending = injector.next_after(wall);

    const double elapsed = wl->progress() - interval_start_progress;
    if (elapsed >= interval && placement.core_free(wall) &&
        !wl->finished()) {
      // The local write halts the process; a failure during the halt
      // aborts the checkpoint (nothing was captured yet). Estimate c1 from
      // the dirty set before committing.
      const double c1_est = double(space.dirty_page_count() * kPageSize) /
                            costs.local_bps;
      if (pending.time <= wall + c1_est) {
        wall = pending.time;
        handle_failure(pending.level);
        continue;
      }
      ckpt::CaptureStats st = chain.capture(space, wl->cpu_state(), wall);
      last_st = st;
      ++result.checkpoints;
      const double halt = placement.put(chain.files().back(), st, costs, wall);
      if (chain.rewind().discards() != seen_discards) {
        seen_discards = chain.rewind().discards();
        placement.prune(chain);
        ++result.checkpoints_pruned;
      }
      wall += halt;
      placement.sync(wall);
      space.protect_all();
      interval_start_progress = wl->progress();
      obs.interval(interval_start_wall, wall, st.file_bytes);
      interval_start_wall = wall;
    }
  }

  placement.finish(result);
  result.turnaround = wall;
  result.final_checkpoint_interval = interval;
  result.final_state_verified = reference.equals_space(space);
  obs.finish(result);
  return result;
}

}  // namespace

FailureSimResult run_failure_sim(const FailureSimConfig& config) {
  AIC_CHECK(config.checkpoint_interval > 0.0);
  AIC_CHECK_MSG(config.resizes.empty() || !config.use_transfer_engine,
                "elastic resizes require the analytic placement");
  try {
    if (config.use_transfer_engine) {
      DrainPlacement drains(config);
      return simulate(config, drains);
    }
    AnalyticPlacement analytic;
    return simulate(config, analytic);
  } catch (const CheckError& e) {
    // A dying run leaves its flight recording behind (no-op unless the hub
    // enabled one); the typed error still propagates unchanged.
    if (config.obs != nullptr) {
      config.obs->dump_postmortem("failure-sim", e.what());
    }
    throw;
  }
}

}  // namespace aic::sim
