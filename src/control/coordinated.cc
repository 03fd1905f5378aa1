#include "control/coordinated.h"

#include <algorithm>
#include <cmath>

#include "ckpt/checkpointer.h"
#include "common/check.h"
#include "model/optimizer.h"
#include "predictor/hot_page_sampler.h"

namespace aic::control {
namespace {

using model::IntervalParams;

/// One MPI rank's local state.
struct Rank {
  std::unique_ptr<workload::SyntheticWorkload> wl;
  mem::AddressSpace space;
  std::unique_ptr<predictor::HotPageSampler> sampler;
  ckpt::CheckpointChain chain;
};

double cycle_length(const workload::WorkloadProfile& profile) {
  double total = 0.0;
  for (const auto& p : profile.phases) total += p.duration;
  return total;
}

/// Job-wide latency estimate: every rank writes its local checkpoint and
/// ships its delta in parallel; the coordinated barrier completes at the
/// slowest rank, so each c_k aggregates by max.
IntervalParams aggregate_estimate(const std::vector<Rank>& ranks,
                                  const CostModel& costs) {
  IntervalParams job{};
  for (const Rank& r : ranks) {
    const double dirty_bytes =
        double(r.space.dirty_page_count()) * double(kPageSize);
    const auto jd_di = r.sampler->compute(r.space);
    const double jd = jd_di.ok ? jd_di.mean_jd : 1.0;
    const double ds = dirty_bytes * std::max(jd, 0.02);
    const double dl = 2.5 * dirty_bytes / costs.compress_bps;
    const double c1 = dirty_bytes / costs.local_bps;
    job.c1 = std::max(job.c1, c1);
    job.c2 = std::max(job.c2, c1 + dl + ds / costs.b2_bps);
    job.c3 = std::max(job.c3, c1 + dl + ds / costs.b3_bps);
  }
  job.r1 = job.c1;
  job.r2 = job.c2;
  job.r3 = job.c3;
  return job;
}

}  // namespace

CoordinatedResult run_coordinated(Scheme scheme,
                                  workload::SpecBenchmark benchmark,
                                  const CoordinatedConfig& config) {
  AIC_CHECK_MSG(scheme != Scheme::kMoody,
                "coordinated runs compare adaptive vs static");
  AIC_CHECK(config.processes >= 1);

  const ExperimentConfig& base = config.base;
  // Any rank's failure kills the job: the job-level rates scale with N.
  model::SystemProfile sys = base.system;
  for (auto& l : sys.lambda) l *= double(config.processes);

  // Build the staggered ranks.
  std::vector<Rank> ranks(std::size_t(config.processes));
  const auto proto = workload::spec_profile(benchmark, base.workload_scale);
  const double cycle = cycle_length(proto);
  for (int r = 0; r < config.processes; ++r) {
    auto profile = proto;
    profile.seed ^= std::uint64_t(r) * 0x9E3779B97F4A7C15ULL;
    profile.phase_shift =
        cycle * config.stagger_fraction * double(r) / config.processes;
    auto& rank = ranks[std::size_t(r)];
    rank.wl = std::make_unique<workload::SyntheticWorkload>(profile);
    rank.wl->initialize(rank.space);
    rank.sampler =
        std::make_unique<predictor::HotPageSampler>(base.sampler);
  }
  // Wire the fault observers (shared virtual clock).
  double now = 0.0;
  for (auto& rank : ranks) {
    auto* sampler = rank.sampler.get();
    auto* space = &rank.space;
    rank.space.set_fault_observer([sampler, space, &now](mem::PageId id) {
      sampler->on_fault(id, now, space->page_bytes(id));
    });
  }

  // Staged initial fulls everywhere.
  IntervalParams prev{};
  for (auto& rank : ranks) {
    auto st = rank.chain.capture(rank.space, rank.wl->cpu_state(), 0.0);
    const auto full = base.costs.raw_params(st.uncompressed_bytes);
    prev.c1 = std::max(prev.c1, full.c1);
    prev.r1 = std::max(prev.r1, full.r1);
    prev.r2 = std::max(prev.r2, full.r2);
    prev.r3 = std::max(prev.r3, full.r3);
    rank.space.protect_all();
    rank.sampler->reset_interval();
  }
  prev.c2 = prev.c1;
  prev.c3 = prev.c1;

  // SIC: one static span from the estimate at a probe point.
  double w_static = 0.0;
  if (scheme == Scheme::kSic) {
    // Cheap approximation: run one cycle, take the aggregate estimate.
    std::vector<Rank> probe(1);
    auto profile = proto;
    probe[0].wl = std::make_unique<workload::SyntheticWorkload>(profile);
    probe[0].wl->initialize(probe[0].space);
    probe[0].sampler =
        std::make_unique<predictor::HotPageSampler>(base.sampler);
    probe[0].space.protect_all();
    probe[0].wl->step(probe[0].space, cycle);
    const auto est = aggregate_estimate(probe, base.costs);
    const auto best = model::minimize_scalar(
        [&](double w) { return model::net2_adaptive(sys, w, est, est); },
        kMinWorkSpan, kMaxWorkSpan, 24, 40);
    w_static = best.x;
  }

  CoordinatedResult result;
  result.scheme = scheme;
  result.workload = proto.name;
  result.processes = config.processes;
  result.base_time = proto.base_time;

  double interval_start = 0.0;
  double core_free_at = 0.0;
  double total_expected = 0.0;
  double total_work = 0.0;
  double total_delta = 0.0;
  std::vector<double> c3_window;
  double prev_c3 = -1.0;
  int decline_streak = 0;

  auto finished = [&] {
    for (auto& rank : ranks)
      if (!rank.wl->finished()) return false;
    return true;
  };

  while (!finished()) {
    for (auto& rank : ranks) rank.wl->step(rank.space, base.decision_period);
    now += base.decision_period;
    const double elapsed = now - interval_start;

    const IntervalParams cur = aggregate_estimate(ranks, base.costs);
    bool take = false;
    if (scheme == Scheme::kSic) {
      take = elapsed >= w_static;
    } else {
      auto objective = [&](double w) {
        return model::net2_adaptive(sys, w, cur, prev);
      };
      const auto best = model::extreme_value_minimum(
          objective, kMinWorkSpan, kMaxWorkSpan,
          std::max(elapsed, kMinWorkSpan));

      c3_window.push_back(cur.c3);
      if (c3_window.size() > 40) c3_window.erase(c3_window.begin());
      const double wmin =
          *std::min_element(c3_window.begin(), c3_window.end());
      double wmean = 0.0;
      for (double v : c3_window) wmean += v;
      wmean /= double(c3_window.size());
      const bool upturn =
          decline_streak >= 3 && prev_c3 >= 0.0 && cur.c3 > prev_c3;
      if (prev_c3 >= 0.0 && cur.c3 < prev_c3) {
        ++decline_streak;
      } else if (cur.c3 > prev_c3) {
        decline_streak = 0;
      }
      prev_c3 = cur.c3;
      const bool at_dip =
          cur.c3 <= 1.1 * wmin || cur.c3 <= 0.7 * wmean || upturn;
      const bool starved = elapsed > 3.0 * best.x;
      take = best.x <= elapsed && (at_dip || starved);
    }
    take = take && now >= core_free_at - 1e-9;

    if (take && !finished()) {
      // Coordinated capture: every rank checkpoints at the barrier; the
      // realized job latency aggregates by max, delta bytes by sum.
      IntervalParams measured{};
      double job_delta = 0.0;
      for (auto& rank : ranks) {
        auto st =
            rank.chain.capture(rank.space, rank.wl->cpu_state(), now);
        const auto p = base.costs.delta_params(
            st.uncompressed_bytes, st.file_bytes, st.delta_work_units);
        measured.c1 = std::max(measured.c1, p.c1);
        measured.c2 = std::max(measured.c2, p.c2);
        measured.c3 = std::max(measured.c3, p.c3);
        job_delta += double(st.file_bytes);
        rank.space.protect_all();
        rank.sampler->adapt();
        rank.sampler->reset_interval();
      }
      measured.r1 = measured.c1;
      measured.r2 = measured.c2;
      measured.r3 = measured.c3;

      const double w = std::max(elapsed, 1e-6);
      total_expected +=
          model::expected_interval_time_adaptive(sys, w, measured, prev);
      total_work += model::interval_work_adaptive(sys, w, measured);
      total_delta += job_delta;
      ++result.checkpoints;
      core_free_at = now + (measured.c3 - measured.c1);
      interval_start = now;
      prev = measured;
    }
  }
  const double tail = now - interval_start;
  total_expected += model::expected_tail_time(sys, tail, prev);
  total_work += tail;
  result.net2 = total_work > 0 ? total_expected / total_work : 1.0;
  result.mean_delta_bytes =
      result.checkpoints ? total_delta / double(result.checkpoints) : 0.0;
  return result;
}

}  // namespace aic::control
