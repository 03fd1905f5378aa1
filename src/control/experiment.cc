#include "control/experiment.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ckpt/checkpointer.h"
#include "common/check.h"
#include "model/moody.h"
#include "model/optimizer.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace aic::control {
namespace {

using model::IntervalParams;
namespace on = obs::names;

// AicDecider's gating constants.
constexpr std::size_t kWindow = 40;  // decisions (~seconds), > a phase cycle
constexpr double kDipSlack = 1.1;    // "cheap" = within 10% of the dip
constexpr double kMeanFraction = 0.7;      // "clearly below" the mean
constexpr double kStarvationFactor = 3.0;  // fire anyway past 3x w_L*

/// Sub-steps the workload in tick-sized chunks so the fault observer sees
/// sub-second arrival times (the hot-page grouping threshold T_g starts at
/// 10 ms).
void fine_step(workload::Workload& w, mem::AddressSpace& space, double dt,
               double& now) {
  const double quantum = workload::SyntheticWorkload::kTick;
  double remaining = dt;
  while (remaining > 1e-12) {
    const double chunk = std::min(quantum, remaining);
    w.step(space, chunk);
    now += chunk;
    remaining -= chunk;
  }
}

/// Shared state of one failure-free run with concurrent incremental+delta
/// checkpointing (AIC and SIC differ only in the decision rule).
class ConcurrentRun {
 public:
  ConcurrentRun(workload::SpecBenchmark benchmark,
                const ExperimentConfig& config)
      : config_(config),
        workload_(workload::make_spec_workload(benchmark,
                                               config.workload_scale)),
        sampler_(config.sampler) {
    // Only the initial checkpoint is full (the paper's short-run
    // evaluation): a mid-run full would monopolize the remote link for the
    // footprint/B3 transfer time.
    ckpt::CheckpointChain::Config chain_cfg;
    chain_cfg.compress_workers = config.compress_workers;
    chain_cfg.obs = config.obs;
    chain_ = std::make_unique<ckpt::CheckpointChain>(chain_cfg);

    workload_->initialize(space_);
    space_.set_fault_observer([this](mem::PageId id) {
      sampler_.on_fault(id, now_, space_.page_bytes(id));
    });
    // Initial full checkpoint before any work. Like the paper's testbed,
    // the full image is staged to all levels before timed execution
    // starts, so interval 1 has no previous concurrent segment to rerun
    // (c2 = c3 = c1) — but recovering to it still costs the full-image
    // read times.
    ckpt::CaptureStats st = chain_->capture(space_, workload_->cpu_state(),
                                            0.0);
    const auto full = config_.costs.raw_params(st.uncompressed_bytes);
    prev_params_.c1 = full.c1;
    prev_params_.c2 = full.c1;
    prev_params_.c3 = full.c1;
    prev_params_.r1 = full.r1;
    prev_params_.r2 = full.r2;
    prev_params_.r3 = full.r3;
    initial_prev_ = prev_params_;
    halt_time_ += full.c1;
    space_.protect_all();
    sampler_.reset_interval();
  }

  bool finished() const { return workload_->finished(); }
  double now() const { return now_; }
  double interval_elapsed() const { return now_ - interval_start_; }
  /// The paper's pipelining constraint: no new L1 until the previous
  /// checkpoint's L3 transfer has finished on the checkpointing core.
  bool core_free() const { return now_ >= core_free_time_ - 1e-9; }

  /// Advances one decision period and returns the metrics at the decision
  /// point.
  predictor::BaseMetrics advance() {
    fine_step(*workload_, space_, config_.decision_period, now_);
    predictor::BaseMetrics m;
    m.dirty_pages = double(space_.dirty_page_count());
    m.elapsed = interval_elapsed();
    const auto jd_di = sampler_.compute(space_);
    m.jd = jd_di.mean_jd;
    m.di = jd_di.mean_di;
    metric_overhead_ += config_.costs.metric_seconds_per_page *
                        double(sampler_.stats().samples);
    return m;
  }

  /// Takes a checkpoint now and records the interval.
  IntervalRecord checkpoint(const predictor::BaseMetrics& metrics) {
    ckpt::CaptureStats st =
        chain_->capture(space_, workload_->cpu_state(), now_);
    IntervalRecord rec;
    rec.start_time = interval_start_;
    rec.w = std::max(now_ - interval_start_, 1e-6);
    if (st.kind == ckpt::CheckpointKind::kFull) {
      rec.params = config_.costs.raw_params(st.uncompressed_bytes);
      rec.delta_latency = 0.0;
      rec.delta_bytes = st.file_bytes;
    } else {
      rec.params = config_.costs.delta_params(st.uncompressed_bytes,
                                              st.file_bytes,
                                              st.delta_work_units);
      rec.delta_latency = config_.costs.delta_latency(st.delta_work_units);
      rec.delta_bytes = st.file_bytes;
    }
    rec.uncompressed_bytes = st.uncompressed_bytes;
    rec.dirty_pages = st.pages_written;
    rec.metrics = metrics;
    intervals_.push_back(rec);
    if (config_.obs != nullptr) {
      config_.obs->trace.span(
          obs::TimeDomain::kVirtual, on::kCatCkpt, on::kEvInterval,
          interval_start_, now_, 0,
          {{"w", rec.w},
           {"c1", rec.params.c1},
           {"c3", rec.params.c3},
           {"dirty_pages", double(rec.dirty_pages)}});
    }

    halt_time_ += rec.params.c1;  // the local write blocks the process
    // The checkpointing core is now occupied for the concurrent transfer
    // (the process computes through it, so app time tracks wall time).
    core_free_time_ = now_ + (rec.params.c3 - rec.params.c1);
    sampler_.adapt();
    sampler_.reset_interval();
    space_.protect_all();
    interval_start_ = now_;
    prev_params_ = rec.params;
    return rec;
  }

  /// Eq. (1): NET^2 = sum of expected interval times over the base work,
  /// using each interval's measured parameters (and its predecessor's for
  /// the old-checkpoint recovery states). The tail segment after the last
  /// checkpoint carries no checkpoint cost. Numerator and denominator both
  /// include the concurrent-segment work, so the ratio stays consistent.
  ExperimentResult finish(Scheme scheme) {
    ExperimentResult res;
    res.scheme = scheme;
    res.workload = workload_->name();
    res.base_time = workload_->base_time();
    res.control_overhead = decision_overhead_ + metric_overhead_;
    res.exec_time = workload_->progress() + halt_time_ + res.control_overhead;
    res.intervals = intervals_;

    double total_expected = 0.0;
    double total_work = 0.0;
    // The first interval's predecessor is the initial full checkpoint.
    IntervalParams prev = initial_prev_;
    for (const IntervalRecord& rec : res.intervals) {
      total_expected += model::expected_interval_time_adaptive(
          config_.system, rec.w, rec.params, prev);
      total_work +=
          model::interval_work_adaptive(config_.system, rec.w, rec.params);
      prev = rec.params;
    }
    const double tail = now_ - interval_start_;
    // The tail runs unprotected: failures throw it back to the last
    // checkpoint (prev) — model that exposure rather than counting the
    // tail as free time.
    total_expected += model::expected_tail_time(config_.system, tail, prev);
    total_work += tail;
    res.net2 = total_work > 0 ? total_expected / total_work : 1.0;
    return res;
  }

  void add_decision_overhead(double seconds) {
    decision_overhead_ += seconds;
  }
  void set_last_predicted_c3(double c3) {
    if (!intervals_.empty()) intervals_.back().predicted_c3 = c3;
  }
  const IntervalParams& prev_params() const { return prev_params_; }

 private:
  ExperimentConfig config_;
  std::unique_ptr<workload::SyntheticWorkload> workload_;
  mem::AddressSpace space_;
  predictor::HotPageSampler sampler_;
  std::unique_ptr<ckpt::CheckpointChain> chain_;

  double now_ = 0.0;
  double interval_start_ = 0.0;
  double core_free_time_ = 0.0;
  double halt_time_ = 0.0;
  double decision_overhead_ = 0.0;
  double metric_overhead_ = 0.0;
  IntervalParams prev_params_;
  IntervalParams initial_prev_;
  std::vector<IntervalRecord> intervals_;
};

/// Latency variables of a concurrent incremental checkpoint whose local
/// write takes c1, delta compression dl and whose delta is ds bytes.
IntervalParams concurrent_params(double c1, double dl, double ds,
                                 const CostModel& costs) {
  IntervalParams p;
  p.c1 = c1;
  p.c2 = c1 + dl + ds / costs.b2_bps;
  p.c3 = c1 + dl + ds / costs.b3_bps;
  p.r1 = p.c1;
  p.r2 = p.c2;
  p.r3 = p.c3;
  return p;
}

ExperimentResult run_aic(workload::SpecBenchmark benchmark,
                         const ExperimentConfig& config) {
  ConcurrentRun run(benchmark, config);
  predictor::AicPredictor predictor;
  predictor.set_obs(config.obs);
  AicDecider decider(config.system, config.obs);

  // Exponential moving average of the regression model's relative error on
  // ds, fed by the per-checkpoint measurements the paper sends back "for
  // its model update". While the model's error is high (sparse or
  // degenerate training points — short runs give it only a handful), the
  // decider falls back to the direct metric estimate, which makes AIC
  // adaptive from the very first decision; the regression keeps learning
  // in the background either way.
  double model_err_ema = 1.0;
  const double kModelTrustError = 0.35;

  while (!run.finished()) {
    const predictor::BaseMetrics metrics = run.advance();
    IntervalParams cur;
    if (predictor.warmed_up() && model_err_ema < kModelTrustError) {
      const double c1 =
          predictor.predict(predictor::Target::kC1, metrics);
      const double dl =
          predictor.predict(predictor::Target::kDeltaLatency, metrics);
      const double ds =
          predictor.predict(predictor::Target::kDeltaSize, metrics);
      cur = concurrent_params(c1, dl, ds, config.costs);
    } else {
      cur = estimate_params(metrics.dirty_pages * double(kPageSize),
                            metrics.jd, config.costs);
    }
    // No checkpoint is forced at job completion: the job is done and the
    // tail segment simply runs out.
    const DecisionTrace d =
        decider.decide(run.now(), run.interval_elapsed(), cur,
                       run.prev_params(), run.core_free(), run.finished());
    run.add_decision_overhead(config.costs.decision_seconds);
    if (config.decision_hook) config.decision_hook(d);
    if (d.take) {
      const IntervalRecord rec = run.checkpoint(metrics);
      run.set_last_predicted_c3(d.c3_pred);
      if (predictor.warmed_up() && rec.delta_bytes > 0) {
        const double model_ds =
            predictor.predict(predictor::Target::kDeltaSize, metrics);
        const double rel_err =
            std::abs(model_ds - double(rec.delta_bytes)) /
            double(rec.delta_bytes);
        model_err_ema = 0.5 * model_err_ema + 0.5 * std::min(rel_err, 2.0);
      }
      predictor.observe(metrics, rec.params.c1, rec.delta_latency,
                        double(rec.delta_bytes));
    }
  }
  return run.finish(Scheme::kAic);
}

ExperimentResult run_sic(workload::SpecBenchmark benchmark,
                         const ExperimentConfig& config) {
  // Profiling pre-pass for the average incremental checkpoint latencies
  // ("Both Moody and SIC require the average checkpoint latency
  // beforehand").
  const ProfiledCosts profiled = profile_workload(benchmark, config);

  // Static optimal work span from the L2L3 concurrent model.
  model::SystemProfile sys = config.system;
  sys.c = {profiled.incremental.c1, profiled.incremental.c2,
           profiled.incremental.c3};
  sys.r = sys.c;
  const auto best = model::minimize_scalar(
      [&](double w) {
        return model::net2_static(model::LevelCombo::kL2L3, sys, w);
      },
      kMinWorkSpan, kMaxWorkSpan, 32, 50);
  const double w_star = best.x;

  ConcurrentRun run(benchmark, config);
  while (!run.finished()) {
    const predictor::BaseMetrics metrics = run.advance();
    if (run.interval_elapsed() >= w_star && run.core_free() &&
        !run.finished()) {
      run.checkpoint(metrics);
    }
  }
  return run.finish(Scheme::kSic);
}

ExperimentResult run_moody(workload::SpecBenchmark benchmark,
                           const ExperimentConfig& config) {
  const ProfiledCosts profiled = profile_workload(benchmark, config);
  model::SystemProfile sys = config.system;
  sys.c = {profiled.full.c1, profiled.full.c2, profiled.full.c3};
  sys.r = sys.c;
  const model::MoodyResult schedule = model::optimize_moody(sys);

  // Execute: periodic *blocking full* checkpoints at the schedule's w,
  // level per the hierarchical pattern. Every checkpoint writes the whole
  // image, so its cost follows from the footprint alone.
  auto wl = workload::make_spec_workload(benchmark, config.workload_scale);
  mem::AddressSpace space;
  wl->initialize(space);

  ExperimentResult res;
  res.scheme = Scheme::kMoody;
  res.workload = wl->name();
  res.base_time = wl->base_time();

  double now = 0.0;
  double halt = 0.0;
  int slot = 0;
  const int period_slots = (schedule.n1 + 1) * (schedule.n2 + 1);
  while (!wl->finished()) {
    fine_step(*wl, space, schedule.w, now);
    ++slot;
    int level = 1;
    if (slot % period_slots == 0) {
      level = 3;
    } else if (slot % (schedule.n1 + 1) == 0) {
      level = 2;
    }
    const std::uint64_t image_bytes =
        space.footprint_bytes() + wl->cpu_state().size();
    const IntervalParams p = config.costs.raw_params(image_bytes);
    const double block = level == 1 ? p.c1 : (level == 2 ? p.c2 : p.c3);
    halt += block;  // blocking: the process waits out the full transfer

    IntervalRecord rec;
    rec.start_time = now - schedule.w;
    rec.w = schedule.w;
    rec.params = p;
    rec.uncompressed_bytes = image_bytes;
    rec.dirty_pages = space.page_count();
    res.intervals.push_back(rec);
  }
  res.exec_time = wl->progress() + halt;
  // Moody's NET^2 comes from the Moody model at the profiled costs, as the
  // paper does with the released Moody code.
  res.net2 = model::moody_net2(sys, schedule.w, schedule.n1, schedule.n2);
  return res;
}

}  // namespace

const char* to_string(Scheme scheme) {
  switch (scheme) {
    case Scheme::kAic:
      return "AIC";
    case Scheme::kSic:
      return "SIC";
    case Scheme::kMoody:
      return "Moody";
  }
  return "?";
}

AicDecider::AicDecider(const model::SystemProfile& system, obs::Hub* obs)
    : system_(system), obs_(obs), c3_window_(kWindow) {
  if (obs_ == nullptr) return;
  obs::MetricsRegistry& m = obs_->metrics;
  evals_ = m.counter(on::kDeciderEvaluations);
  takes_ = m.counter(on::kDeciderTakes);
  boundary_picks_ = m.counter(on::kDeciderBoundaryPicks);
  newton_iters_ = m.histogram(on::kDeciderNewtonIters,
                              obs::Histogram::linear_buckets(0, 200, 20));
  w_star_ = m.histogram(on::kDeciderWStar,
                        obs::Histogram::exponential_buckets(1.0, 2.0, 18));
}

DecisionTrace AicDecider::decide(double now, double elapsed,
                                 const IntervalParams& cur,
                                 const IntervalParams& prev, bool core_free,
                                 bool job_finished) {
  model::EvtDiag diag;
  const double w_star =
      model::extreme_value_minimum(
          [&](double w) { return model::net2_adaptive(system_, w, cur, prev); },
          kMinWorkSpan, kMaxWorkSpan, std::max(elapsed, kMinWorkSpan), &diag)
          .x;

  c3_window_.push(cur.c3);
  double window_min = std::numeric_limits<double>::infinity();
  double window_mean = 0.0;
  // Oldest first: the pinned runs depend on the summation order.
  c3_window_.for_each([&](double v) {
    window_min = std::min(window_min, v);
    window_mean += v;
  });
  window_mean /= double(c3_window_.size());
  // Valley detection: the predicted cost declines while a consolidation
  // phase runs and turns back up when the next burst starts; firing on the
  // first upturn after a sustained decline lands within one decision
  // period of the local minimum — even when the minimum's absolute value
  // drifts upward over the interval (scratch accumulates).
  const bool upturn =
      decline_streak_ >= 3 && prev_c3_ >= 0.0 && cur.c3 > prev_c3_;
  if (prev_c3_ >= 0.0 && cur.c3 < prev_c3_) {
    ++decline_streak_;
  } else if (cur.c3 > prev_c3_) {
    decline_streak_ = 0;
  }
  prev_c3_ = cur.c3;

  DecisionTrace d;
  d.time = now;
  d.elapsed = elapsed;
  d.w_star = w_star;
  d.c3_pred = cur.c3;
  d.span_reached = w_star <= elapsed;
  // "Cheap moment": back at the trailing window's dip, clearly below its
  // typical cost, or just past a local valley.
  d.at_dip = cur.c3 <= kDipSlack * window_min ||
             cur.c3 <= kMeanFraction * window_mean || upturn;
  d.starved = elapsed > kStarvationFactor * w_star;
  d.core_free = core_free;
  d.take = d.span_reached && (d.at_dip || d.starved) && core_free &&
           !job_finished;
  if (obs_ != nullptr) {
    evals_->add();
    newton_iters_->observe(double(diag.newton_iters));
    w_star_->observe(w_star);
    if (diag.used_boundary) boundary_picks_->add();
    if (d.take) takes_->add();
    obs_->trace.instant(obs::TimeDomain::kVirtual, on::kCatDecider,
                        on::kEvDecision, now, 0,
                        {{"w_star", w_star},
                         {"c3", cur.c3},
                         {"take", d.take ? 1.0 : 0.0},
                         {"newton_iters", double(diag.newton_iters)}});
  }
  return d;
}

IntervalParams estimate_params(double dirty_bytes, double jd,
                               const CostModel& costs) {
  return concurrent_params(dirty_bytes / costs.local_bps,
                           2.5 * dirty_bytes / costs.compress_bps,
                           dirty_bytes * std::max(jd, 0.02), costs);
}

double ExperimentResult::mean_delta_bytes() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& r : intervals) {
    if (r.delta_latency > 0.0 || r.delta_bytes > 0) {
      sum += double(r.delta_bytes);
      ++n;
    }
  }
  return n ? sum / double(n) : 0.0;
}

double ExperimentResult::mean_delta_latency() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& r : intervals) {
    sum += r.delta_latency;
    ++n;
  }
  return n ? sum / double(n) : 0.0;
}

double ExperimentResult::mean_compression_ratio() const {
  double in = 0.0, out = 0.0;
  for (const auto& r : intervals) {
    in += double(r.uncompressed_bytes);
    out += double(r.delta_bytes);
  }
  return in > 0 ? out / in : 1.0;
}

ExperimentResult run_experiment(Scheme scheme,
                                workload::SpecBenchmark benchmark,
                                const ExperimentConfig& config) {
  switch (scheme) {
    case Scheme::kAic:
      return run_aic(benchmark, config);
    case Scheme::kSic:
      return run_sic(benchmark, config);
    case Scheme::kMoody:
      return run_moody(benchmark, config);
  }
  AIC_CHECK(false);
  return {};
}

ProfiledCosts profile_workload(workload::SpecBenchmark benchmark,
                               const ExperimentConfig& config,
                               double probe_interval) {
  AIC_CHECK(probe_interval > 0.0);
  auto wl = workload::make_spec_workload(benchmark, config.workload_scale);
  mem::AddressSpace space;
  wl->initialize(space);
  ckpt::CheckpointChain::Config chain_cfg;
  chain_cfg.compress_workers = config.compress_workers;
  ckpt::CheckpointChain chain(chain_cfg);
  chain.capture(space, wl->cpu_state(), 0.0);
  space.protect_all();

  double now = 0.0;
  double sum_c1 = 0, sum_c2 = 0, sum_c3 = 0;
  double sum_fc1 = 0, sum_fc2 = 0, sum_fc3 = 0;
  int n = 0;
  // Probe at most 1/4 of the run (cheap, like the paper's pre-profiling).
  const int probes =
      std::max(2, int(wl->base_time() / probe_interval / 4.0));
  for (int i = 0; i < probes && !wl->finished(); ++i) {
    fine_step(*wl, space, probe_interval, now);
    ckpt::CaptureStats st = chain.capture(space, wl->cpu_state(), now);
    space.protect_all();
    const auto inc = config.costs.delta_params(
        st.uncompressed_bytes, st.file_bytes, st.delta_work_units);
    sum_c1 += inc.c1;
    sum_c2 += inc.c2;
    sum_c3 += inc.c3;
    // A full checkpoint at this moment would move the whole footprint.
    const auto full = config.costs.raw_params(space.footprint_bytes());
    sum_fc1 += full.c1;
    sum_fc2 += full.c2;
    sum_fc3 += full.c3;
    ++n;
  }
  AIC_CHECK(n > 0);
  ProfiledCosts out;
  out.incremental.c1 = sum_c1 / n;
  out.incremental.c2 = sum_c2 / n;
  out.incremental.c3 = sum_c3 / n;
  out.incremental.r1 = out.incremental.c1;
  out.incremental.r2 = out.incremental.c2;
  out.incremental.r3 = out.incremental.c3;
  out.full.c1 = sum_fc1 / n;
  out.full.c2 = sum_fc2 / n;
  out.full.c3 = sum_fc3 / n;
  out.full.r1 = out.full.c1;
  out.full.r2 = out.full.c2;
  out.full.r3 = out.full.c3;
  return out;
}

}  // namespace aic::control
