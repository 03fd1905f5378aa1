// aic_report — human-readable summary of an instrumented AIC run.
//
// Usage:
//   aic_report [--csv] <metrics.json> [chrome_trace.json]
//   aic_report --demo [--out DIR]
//
// The first form reads a metrics snapshot exported by
// obs::metrics_to_json and (optionally) the run's Chrome-trace file from
// obs::trace_to_chrome_json, and prints the per-run report: simulator
// outcome, decider behaviour with the chosen w_L* history, predictor
// residual statistics, compression and transfer-engine totals. --csv
// instead re-emits the metrics as kind,name,field,value CSV rows.
//
// --demo runs a small instrumented pipeline onto one hub — an adaptive
// (AIC) experiment to exercise the decider and predictor, then a
// failure-simulator run with the transfer engine on and a few injected
// failures — prints its report, and with --out also writes
// DIR/metrics.json and DIR/trace.json, ready to open in chrome://tracing
// or feed back through the first form.
//
// Exit status: 0 success, 1 malformed input, 2 usage or I/O error.
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>

#include "common/check.h"
#include "common/units.h"
#include "control/cost_model.h"
#include "control/experiment.h"
#include "failure/failure.h"
#include "file_io.h"
#include "model/system_profile.h"
#include "obs/export.h"
#include "obs/report.h"
#include "sim/failure_sim.h"
#include "workload/workload.h"

namespace {

using aic::tools::read_file;
using aic::tools::write_file;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--csv] <metrics.json> [chrome_trace.json]\n"
            << "       " << argv0 << " --demo [--out DIR]\n";
  return 2;
}

int run_demo(const std::string& out_dir) {
  aic::obs::Hub hub;

  // Adaptive experiment first: populates the decider and predictor
  // sections (w_L* history, Newton iterations, residual histograms).
  {
    const auto benchmark = aic::workload::SpecBenchmark::kBzip2;
    aic::control::ExperimentConfig ecfg;
    const auto split = aic::model::split_rate(1e-3);
    ecfg.system.lambda = {split[0], split[1], split[2]};
    ecfg.workload_scale = 0.125;
    const auto prof = aic::workload::spec_profile(benchmark,
                                                  ecfg.workload_scale);
    ecfg.costs = aic::control::CostModel::paper_scaled(prof.footprint_pages *
                                                       aic::kPageSize);
    ecfg.obs = &hub;
    aic::control::run_experiment(aic::control::Scheme::kAic, benchmark, ecfg);
  }

  // Then a failure-simulator run through the same hub: transfer-engine
  // chunk spans, failure/restore instants, end-of-run gauges.
  aic::sim::FailureSimConfig cfg;
  cfg.benchmark = aic::workload::SpecBenchmark::kBzip2;
  cfg.workload_scale = 0.125;
  cfg.failures = aic::failure::FailureSpec::from_total(0.04);
  cfg.checkpoint_interval = 10.0;
  cfg.seed = 11;
  cfg.use_transfer_engine = true;
  cfg.obs = &hub;
  const aic::sim::FailureSimResult res = aic::sim::run_failure_sim(cfg);

  const aic::obs::RunReport report = aic::obs::RunReport::from_hub(hub);
  std::cout << report.render();
  std::cout << "\n(final state verified: "
            << (res.final_state_verified ? "yes" : "NO") << ")\n";

  if (!out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string metrics_path = out_dir + "/metrics.json";
    const std::string trace_path = out_dir + "/trace.json";
    if (!write_file(metrics_path,
                    aic::obs::metrics_to_json(hub.metrics.snapshot())) ||
        !write_file(trace_path, aic::obs::trace_to_chrome_json(hub.trace))) {
      std::cerr << "aic_report: cannot write into " << out_dir << "\n";
      return 2;
    }
    std::cout << "wrote " << metrics_path << " and " << trace_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  bool demo = false;
  std::string out_dir;
  std::string metrics_path;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--csv") {
      csv = true;
    } else if (arg == "--demo") {
      demo = true;
    } else if (arg == "--out") {
      if (++i >= argc) return usage(argv[0]);
      out_dir = argv[i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (metrics_path.empty()) {
      metrics_path = arg;
    } else if (trace_path.empty()) {
      trace_path = arg;
    } else {
      return usage(argv[0]);
    }
  }

  if (demo) {
    if (csv || !metrics_path.empty()) return usage(argv[0]);
    return run_demo(out_dir);
  }
  if (metrics_path.empty()) return usage(argv[0]);

  const auto metrics_json = read_file(metrics_path);
  if (!metrics_json) {
    std::cerr << "aic_report: cannot read " << metrics_path << "\n";
    return 2;
  }
  std::string trace_json;
  if (!trace_path.empty()) {
    const auto t = read_file(trace_path);
    if (!t) {
      std::cerr << "aic_report: cannot read " << trace_path << "\n";
      return 2;
    }
    trace_json = *t;
  }

  try {
    if (csv) {
      std::cout << aic::obs::metrics_to_csv(
          aic::obs::metrics_from_json(*metrics_json));
      return 0;
    }
    const aic::obs::RunReport report =
        aic::obs::RunReport::from_json(*metrics_json, trace_json);
    std::cout << report.render();
  } catch (const aic::CheckError& e) {
    std::cerr << "aic_report: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
