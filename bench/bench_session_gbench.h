// Session adapter for the google-benchmark targets (micro_*): a reporter
// that mirrors every iteration run into a bench::Session metric, so the
// micro benches emit the same BENCH_<target>.json as the table/figure
// benches and aic_benchdiff can track them too. Kept out of bench_util.h
// so the non-micro benches don't take the benchmark dependency.
#pragma once

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_util.h"

namespace aic::bench {

/// ConsoleReporter that also records each per-iteration run (seconds per
/// iteration, real time) under the benchmark's full name, plus every
/// user counter as "<name>.<counter>" — that is how ratio and peak-memory
/// metrics become diffable alongside the timings. Aggregate rows and
/// errored runs are passed through to the console but not recorded.
class SessionReporter : public benchmark::ConsoleReporter {
 public:
  explicit SessionReporter(Session* session) : session_(session) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred ||
          run.iterations <= 0) {
        continue;
      }
      session_->sample(run.benchmark_name(), "s/iter",
                       run.real_accumulated_time / double(run.iterations));
      for (const auto& [cname, counter] : run.counters) {
        // Rates (bytes_per_second, items_per_second) are higher-better;
        // every other counter follows the session default: lower is
        // better (ratios, peak bytes). Constant config counters (e.g.
        // "workers") diff as neutral.
        session_->sample(run.benchmark_name() + "." + cname, "counter",
                         double(counter.value),
                         (counter.flags & benchmark::Counter::kIsRate) != 0);
      }
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  Session* session_;
};

/// Shared main for the micro benches: google-benchmark under a
/// SessionReporter, then the usual bench-record emission. Replaces
/// BENCHMARK_MAIN().
inline int run_gbench_main(const char* target, int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  Session session(target);
  SessionReporter reporter(&session);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const Checker no_checks;
  return session.finish(no_checks);
}

}  // namespace aic::bench
