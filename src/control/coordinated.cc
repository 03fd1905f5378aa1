#include "control/coordinated.h"

#include <algorithm>

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
  std::unique_ptr<ckpt::CheckpointChain> chain;
};

double cycle_length(const workload::WorkloadProfile& profile) {
  double total = 0.0;
  for (const auto& p : profile.phases) total += p.duration;
  return total;
}

/// Every rank writes its local checkpoint and ships its delta in parallel;
/// the coordinated barrier completes at the slowest rank, so the job's
/// latencies aggregate by max.
void widen(IntervalParams& job, const IntervalParams& rank) {
  job.c1 = std::max(job.c1, rank.c1);
  job.c2 = std::max(job.c2, rank.c2);
  job.c3 = std::max(job.c3, rank.c3);
  job.r1 = std::max(job.r1, rank.r1);
  job.r2 = std::max(job.r2, rank.r2);
  job.r3 = std::max(job.r3, rank.r3);
}

double dirty_bytes(const mem::AddressSpace& space) {
  return double(space.dirty_page_count()) * double(kPageSize);
}

/// Job-wide estimate of checkpointing now. A rank whose sampler holds no
/// usable page yet is charged a full delta (JD = 1).
IntervalParams job_estimate(const std::vector<Rank>& ranks,
                            const CostModel& costs) {
  IntervalParams job{};
  for (const Rank& r : ranks) {
    const auto jd_di = r.sampler->compute(r.space);
    widen(job, estimate_params(dirty_bytes(r.space),
                               jd_di.ok ? jd_di.mean_jd : 1.0, costs));
  }
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
  ckpt::CheckpointChain::Config chain_cfg;
  chain_cfg.compress_workers = base.compress_workers;
  chain_cfg.obs = base.obs;
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
    rank.chain = std::make_unique<ckpt::CheckpointChain>(chain_cfg);
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
    auto st = rank.chain->capture(rank.space, rank.wl->cpu_state(), 0.0);
    widen(prev, base.costs.raw_params(st.uncompressed_bytes));
    rank.space.protect_all();
    rank.sampler->reset_interval();
  }
  prev.c2 = prev.c1;
  prev.c3 = prev.c1;

  // SIC: one static span from the estimate at a probe point — one cycle
  // of an unstaggered rank, charged a full delta per dirty page.
  double w_static = 0.0;
  if (scheme == Scheme::kSic) {
    workload::SyntheticWorkload probe(proto);
    mem::AddressSpace space;
    probe.initialize(space);
    space.protect_all();
    probe.step(space, cycle);
    const auto est = estimate_params(dirty_bytes(space), 1.0, base.costs);
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
  AicDecider decider(sys, base.obs);

  auto finished = [&] {
    for (auto& rank : ranks)
      if (!rank.wl->finished()) return false;
    return true;
  };

  while (!finished()) {
    for (auto& rank : ranks) rank.wl->step(rank.space, base.decision_period);
    now += base.decision_period;
    const double elapsed = now - interval_start;
    const bool core_free = now >= core_free_at - 1e-9;
    const bool done = finished();
    bool take;
    if (scheme == Scheme::kSic) {
      take = elapsed >= w_static && core_free && !done;
    } else {
      const IntervalParams cur = job_estimate(ranks, base.costs);
      const DecisionTrace d =
          decider.decide(now, elapsed, cur, prev, core_free, done);
      if (base.decision_hook) base.decision_hook(d);
      take = d.take;
    }

    if (take) {
      // Coordinated capture: every rank checkpoints at the barrier; the
      // realized job latency aggregates by max, delta bytes by sum.
      IntervalParams measured{};
      double job_delta = 0.0;
      for (auto& rank : ranks) {
        auto st =
            rank.chain->capture(rank.space, rank.wl->cpu_state(), now);
        widen(measured, base.costs.delta_params(
                            st.uncompressed_bytes, st.file_bytes,
                            st.delta_work_units));
        job_delta += double(st.file_bytes);
        rank.space.protect_all();
        rank.sampler->adapt();
        rank.sampler->reset_interval();
      }

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
