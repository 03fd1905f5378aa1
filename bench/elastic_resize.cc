// Elastic-resize bench: an elastic job grows 4x mid-run (failure exposure
// and capture costs re-derived at the new width) and the question is
// whether re-planning w_L* at the reconfiguration pays. Two policies run
// the same seeds through the analytic failure simulator:
//
//   replan  — the AIC decider re-runs the EVT minimization of the
//             adaptive NET^2 objective at every resize;
//   static  — the ablation: the pre-resize work span is kept for the
//             whole run.
//
// The span is deliberately provisioned for the NARROW width, so after the
// grow the static policy checkpoints far too sparsely for the scaled-up
// strike rate: its wasted time (turnaround - base_time) should exceed the
// re-planner's. Every run must still recover byte-exact, and the timeline
// must be deterministic per seed — the same contracts the unit suite
// pins, re-checked here at bench scale. A third leg enables the rewind
// window (budget k) and checks pruning never breaks recovery.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "failure/failure.h"
#include "obs/clock.h"
#include "sim/failure_sim.h"
#include "workload/workload.h"

using namespace aic;

namespace {

sim::FailureSimConfig elastic_config(std::uint64_t seed, bool replan) {
  sim::FailureSimConfig cfg;
  cfg.benchmark = workload::SpecBenchmark::kBzip2;
  cfg.workload_scale = bench::smoke_pick(0.25, 0.125);
  // Sparse static span, tuned (loosely) for the pre-resize width: the
  // grow at a third of the run scales lambda with the width and leaves
  // the no-replan ablation exposed for the remaining two thirds. Smoke
  // softens the grow (2x, lower strike rate) — the static ablation's
  // thrashing is exactly what makes the full run expensive.
  cfg.failures =
      failure::FailureSpec::from_total(bench::smoke_pick(0.03, 0.02));
  cfg.checkpoint_interval = 40.0;
  cfg.resizes = {{50.0, bench::smoke_pick<std::uint64_t>(16, 8)}};
  cfg.replan_on_resize = replan;
  cfg.seed = seed;
  return cfg;
}

struct PolicyAgg {
  double wasted_sum = 0.0;
  double net2_sum = 0.0;
  double interval_sum = 0.0;
  int runs = 0;
  int verified = 0;
  int resizes = 0;
  int replans = 0;

  void add(const sim::FailureSimResult& r) {
    wasted_sum += r.turnaround - r.base_time;
    net2_sum += r.net2();
    interval_sum += r.final_checkpoint_interval;
    ++runs;
    verified += r.final_state_verified ? 1 : 0;
    resizes += r.resizes_applied;
    replans += r.replans;
  }
  double mean_wasted() const { return wasted_sum / double(runs); }
  double mean_net2() const { return net2_sum / double(runs); }
  double mean_interval() const { return interval_sum / double(runs); }
};

}  // namespace

int main() {
  bench::Session session("elastic_resize");
  bench::Checker check;

  const int seeds = bench::smoke_pick(20, 5);

  // Determinism spot-check before anything else: one seed, two runs.
  {
    const sim::FailureSimResult a = run_failure_sim(elastic_config(1, true));
    const sim::FailureSimResult b = run_failure_sim(elastic_config(1, true));
    check.expect(a.turnaround == b.turnaround &&
                     a.checkpoints == b.checkpoints &&
                     a.replans == b.replans,
                 "elastic sim timeline is deterministic per seed");
  }

  PolicyAgg replan, fixed;
  const std::uint64_t t0 = obs::wall_now_ns();
  for (int s = 0; s < seeds; ++s) {
    const std::uint64_t seed = 100 + std::uint64_t(s);
    const sim::FailureSimResult on =
        run_failure_sim(elastic_config(seed, true));
    const sim::FailureSimResult off =
        run_failure_sim(elastic_config(seed, false));
    replan.add(on);
    fixed.add(off);
    session.sample("elastic.replan.wasted_s", "s",
                   on.turnaround - on.base_time);
    session.sample("elastic.static.wasted_s", "s",
                   off.turnaround - off.base_time);
  }
  const double wall_s = obs::wall_seconds_since(t0);

  session.sample("elastic.replan.net2", "net2", replan.mean_net2());
  session.sample("elastic.static.net2", "net2", fixed.mean_net2());
  session.sample("elastic.replan.interval_s", "s", replan.mean_interval());

  TextTable table("Elastic grow (4x): replanned vs static work span");
  table.set_header({"policy", "mean wasted s", "mean NET^2",
                    "mean final w s", "resizes", "replans"});
  table.add_row({"replan", TextTable::num(replan.mean_wasted(), 2),
                 TextTable::num(replan.mean_net2(), 3),
                 TextTable::num(replan.mean_interval(), 1),
                 std::to_string(replan.resizes),
                 std::to_string(replan.replans)});
  table.add_row({"static", TextTable::num(fixed.mean_wasted(), 2),
                 TextTable::num(fixed.mean_net2(), 3),
                 TextTable::num(fixed.mean_interval(), 1),
                 std::to_string(fixed.resizes),
                 std::to_string(fixed.replans)});
  table.print(std::cout);
  table.print_csv(std::cout);
  std::cout << "(" << seeds << " seeds per policy, " << wall_s
            << " s wall)\n";

  check.expect(replan.verified == replan.runs && fixed.verified == fixed.runs,
               "every run recovers byte-exact across the resize");
  check.expect(replan.resizes >= replan.runs && fixed.resizes >= fixed.runs,
               "every run applies the reconfiguration");
  check.expect(replan.replans >= replan.resizes,
               "the replanner re-decides w_L* at every resize");
  check.expect(fixed.replans == 0, "the ablation never re-plans");
  check.expect(replan.mean_interval() < elastic_config(0, true)
                                            .checkpoint_interval,
               "post-grow replan tightens the work span below the static "
               "setting");
  check.expect(replan.mean_wasted() < fixed.mean_wasted(),
               "replanning beats the static span on mean wasted time");

  // Rewind-window leg: a budget of 4 live checkpoints must prune on these
  // runs and recovery must survive every discard schedule decision.
  {
    sim::FailureSimConfig cfg = elastic_config(7, true);
    cfg.rewind_budget = 4;
    const sim::FailureSimResult r = run_failure_sim(cfg);
    session.sample("elastic.rewind.pruned", "count",
                   double(r.checkpoints_pruned));
    check.expect(r.final_state_verified,
                 "rewind budget 4: recovery survives pruning");
    check.expect(r.checkpoints_pruned > 0,
                 "rewind budget 4: the schedule actually prunes");
  }

  return session.finish(check);
}
