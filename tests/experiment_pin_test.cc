// Golden pins for the failure-free experiment runs: NET^2 as an exact
// double, the checkpoint count and the execution time of AIC on every
// kernel and of SIC on sjeng and milc, at the Section V testbed
// configuration (the fig11/table3 setup at workload scale 0.25). The
// decider's inputs, its w_L* search and its gating all feed these figures,
// so a refactor of the decision path must reproduce them bit for bit. One
// test per run, so ctest runs them in parallel. AicDecisions checks what
// the decider reports on one of these runs.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "control/experiment.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace aic::control {
namespace {

using workload::SpecBenchmark;

/// bench::testbed_config(kernel, 0.25): failure rate 1e-3 split with the
/// Coastal shares, Coastal bandwidths rescaled to the footprint, SF = 1.
ExperimentConfig testbed_config(SpecBenchmark b) {
  ExperimentConfig cfg;
  const auto split = model::split_rate(1e-3);
  cfg.system.lambda = {split[0], split[1], split[2]};
  cfg.workload_scale = 0.25;
  const auto prof = workload::spec_profile(b, cfg.workload_scale);
  cfg.costs = CostModel::paper_scaled(prof.footprint_pages * kPageSize);
  return cfg;
}

/// Exact figures of one run.
struct RunPin {
  double net2;
  std::size_t checkpoints;
  double exec_time;
};

void expect_pinned(Scheme scheme, SpecBenchmark kernel, const RunPin& pin) {
  const ExperimentResult r =
      run_experiment(scheme, kernel, testbed_config(kernel));
  EXPECT_EQ(r.net2, pin.net2);
  EXPECT_EQ(r.intervals.size(), pin.checkpoints);
  EXPECT_EQ(r.exec_time, pin.exec_time);
}

TEST(AicPin, Bzip2) {
  expect_pinned(Scheme::kAic, SpecBenchmark::kBzip2,
                {1.0605964650193824, 5, 153.62416655999999});
}

TEST(AicPin, Sjeng) {
  expect_pinned(Scheme::kAic, SpecBenchmark::kSjeng,
                {1.1386261329760221, 10, 667.11085486400009});
}

TEST(AicPin, Libquantum) {
  expect_pinned(Scheme::kAic, SpecBenchmark::kLibquantum,
                {1.1072484169028318, 13, 856.176864432});
}

TEST(AicPin, Milc) {
  expect_pinned(Scheme::kAic, SpecBenchmark::kMilc,
                {1.2158343030574739, 5, 535.23648334400002});
}

TEST(AicPin, Lbm) {
  expect_pinned(Scheme::kAic, SpecBenchmark::kLbm,
                {1.3846371816423193, 2, 469.06906260800002});
}

TEST(AicPin, Sphinx3) {
  expect_pinned(Scheme::kAic, SpecBenchmark::kSphinx3,
                {1.0031574454858954, 413, 750.04566323200004});
}

// The run's last decision falls after the job's final step, where no
// checkpoint can follow; sphinx3 checkpoints often enough that it would
// be a take. Every take reported to the hook and the hub is a checkpoint.
TEST(AicDecisions, EveryReportedTakeIsACheckpoint) {
  ExperimentConfig cfg = testbed_config(SpecBenchmark::kSphinx3);
  obs::Hub hub(1 << 12);
  cfg.obs = &hub;
  std::uint64_t takes = 0;
  cfg.decision_hook = [&takes](const DecisionTrace& d) { takes += d.take; };
  const ExperimentResult r =
      run_experiment(Scheme::kAic, SpecBenchmark::kSphinx3, cfg);
  EXPECT_EQ(r.intervals.size(), 413u);
  EXPECT_EQ(takes, r.intervals.size());
  EXPECT_EQ(
      hub.metrics.snapshot().counter_or_zero(obs::names::kDeciderTakes),
      r.intervals.size());
}

TEST(SicPin, Sjeng) {
  expect_pinned(Scheme::kSic, SpecBenchmark::kSjeng,
                {1.1746206853808929, 8, 666.15562817600005});
}

TEST(SicPin, Milc) {
  expect_pinned(Scheme::kSic, SpecBenchmark::kMilc,
                {1.2960381296626204, 3, 534.33924857599993});
}

}  // namespace
}  // namespace aic::control
