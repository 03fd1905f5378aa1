// Microbenchmarks (google-benchmark): cost of the observability layer.
//
// Two families:
//
//   * raw primitive costs — Counter::add, Gauge::set, Histogram::observe,
//     TraceLog::span — the per-operation price an instrument pays when a
//     hub is attached;
//   * a representative instrumented kernel (page checksum loop with the
//     same handle-caching pattern the pipeline components use), built
//     three ways: instrumentation removed entirely, instrumentation
//     present but disabled (null hub — one branch per site), and enabled.
//     The overhead-guard test (tests/obs_test.cc) asserts the disabled
//     path allocates nothing; this bench makes the wall-clock difference
//     between "removed" and "disabled" visible — the contract is that it
//     stays in the noise (< 2%).
#include <benchmark/benchmark.h>

#include "bench_session_gbench.h"

#include <cstdint>
#include <string>
#include <vector>

#include "obs/causal.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace {

using namespace aic;

// File-local metric names for the bench-only instruments (the
// obs-name-literal rule's sanctioned form).
constexpr const char* kBenchCounter = "bench.counter";
constexpr const char* kBenchGauge = "bench.gauge";
constexpr const char* kBenchHisto = "bench.histogram";
constexpr const char* kBenchKernelPages = "bench.kernel.pages";
constexpr const char* kBenchKernelBytes = "bench.kernel.bytes";
constexpr const char* kBenchKernelPageSum = "bench.kernel.page_sum";
constexpr const char* kBenchTelCounter = "bench.tel.events";
constexpr const char* kBenchTelGauge = "bench.tel.depth";
constexpr const char* kBenchTelHisto = "bench.tel.latency";
constexpr const char* kBenchTelSeries = "bench.tel.depth";

// ---------------------------------------------------------------------------
// Raw primitive costs.

void BM_CounterAdd(benchmark::State& state) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.counter(kBenchCounter);
  for (auto _ : state) {
    c->add();
  }
  benchmark::DoNotOptimize(c->value());
}
BENCHMARK(BM_CounterAdd);

void BM_GaugeSet(benchmark::State& state) {
  obs::MetricsRegistry reg;
  obs::Gauge* g = reg.gauge(kBenchGauge);
  double v = 0.0;
  for (auto _ : state) {
    g->set(v);
    v += 1.0;
  }
  benchmark::DoNotOptimize(g->value());
}
BENCHMARK(BM_GaugeSet);

void BM_HistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.histogram(
      kBenchHisto, obs::Histogram::exponential_buckets(1e-6, 4.0, 16));
  double v = 1e-7;
  for (auto _ : state) {
    h->observe(v);
    v = v < 1.0 ? v * 1.5 : 1e-7;
  }
  benchmark::DoNotOptimize(h->count());
}
BENCHMARK(BM_HistogramObserve);

void BM_TraceSpan(benchmark::State& state) {
  // Small capacity: spans past the bound only bump dropped(), which is the
  // steady state of a long instrumented run.
  obs::TraceLog log(1 << 12);
  double t = 0.0;
  for (auto _ : state) {
    log.span(obs::TimeDomain::kVirtual, "bench", "span", t, t + 0.5, 0,
             {{"bytes", 4096.0}});
    t += 1.0;
  }
  benchmark::DoNotOptimize(log.dropped());
}
BENCHMARK(BM_TraceSpan);

// ---------------------------------------------------------------------------
// Representative instrumented kernel: checksum a buffer page by page,
// bumping per-page instruments the way the pipeline components do (handles
// resolved once at attach, one null-hub branch per site on the hot path).

constexpr std::size_t kKernelPage = 4096;
constexpr std::size_t kKernelPages = 64;

std::vector<std::uint8_t> kernel_buffer() {
  std::vector<std::uint8_t> buf(kKernelPage * kKernelPages);
  std::uint32_t x = 0x9e3779b9u;
  for (auto& b : buf) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = std::uint8_t(x);
  }
  return buf;
}

std::uint64_t checksum_page(const std::uint8_t* p) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < kKernelPage; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

/// The component pattern under test: resolve handles iff a hub is attached,
/// branch on them at each site.
class InstrumentedScanner {
 public:
  explicit InstrumentedScanner(obs::Hub* hub) {
    if (hub != nullptr) {
      m_pages_ = hub->metrics.counter(kBenchKernelPages);
      m_bytes_ = hub->metrics.counter(kBenchKernelBytes);
      m_page_sum_ = hub->metrics.histogram(
          kBenchKernelPageSum,
          obs::Histogram::exponential_buckets(1.0, 4.0, 16));
    }
  }

  std::uint64_t scan(const std::vector<std::uint8_t>& buf) {
    std::uint64_t acc = 0;
    for (std::size_t pg = 0; pg < kKernelPages; ++pg) {
      const std::uint64_t h = checksum_page(buf.data() + pg * kKernelPage);
      acc ^= h;
      if (m_pages_ != nullptr) m_pages_->add();
      if (m_bytes_ != nullptr) m_bytes_->add(kKernelPage);
      if (m_page_sum_ != nullptr) m_page_sum_->observe(double(h >> 32));
    }
    return acc;
  }

 private:
  obs::Counter* m_pages_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Histogram* m_page_sum_ = nullptr;
};

/// Same kernel with the instrumentation sites not written at all — the
/// "removed" baseline the disabled path must match.
std::uint64_t scan_uninstrumented(const std::vector<std::uint8_t>& buf) {
  std::uint64_t acc = 0;
  for (std::size_t pg = 0; pg < kKernelPages; ++pg) {
    acc ^= checksum_page(buf.data() + pg * kKernelPage);
  }
  return acc;
}

void BM_KernelRemoved(benchmark::State& state) {
  const auto buf = kernel_buffer();
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan_uninstrumented(buf));
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(buf.size()));
}
BENCHMARK(BM_KernelRemoved);

void BM_KernelObsDisabled(benchmark::State& state) {
  const auto buf = kernel_buffer();
  InstrumentedScanner scanner(nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scanner.scan(buf));
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(buf.size()));
}
BENCHMARK(BM_KernelObsDisabled);

void BM_KernelObsEnabled(benchmark::State& state) {
  const auto buf = kernel_buffer();
  obs::Hub hub;
  InstrumentedScanner scanner(&hub);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scanner.scan(buf));
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(buf.size()));
}
BENCHMARK(BM_KernelObsEnabled);

// ---------------------------------------------------------------------------
// Telemetry-plane kernels: the per-round-boundary costs the fleet pays
// when the sampler, SLO engine, and causal log are attached. These run
// once per scheduler quantum, not per page, so the budget is microseconds,
// but they must stay flat in the registry size they scan.

/// One sampler tick over a registry shaped like a mid-size fleet's: 16
/// counters, 16 gauges (one tenant family), 4 histograms.
void BM_SamplerSample(benchmark::State& state) {
  obs::MetricsRegistry reg;
  for (int i = 0; i < 16; ++i) {
    const std::string suffix = "." + std::to_string(i);
    reg.counter(kBenchTelCounter + suffix)->add(std::uint64_t(i) * 7);
    reg.gauge(kBenchTelGauge + suffix)->set(double(i));
  }
  std::vector<obs::Histogram*> hs;
  for (int i = 0; i < 4; ++i) {
    hs.push_back(
        reg.histogram(kBenchTelHisto + ("." + std::to_string(i)),
                      obs::Histogram::exponential_buckets(1e-3, 2.0, 16)));
  }
  obs::TimeseriesStore store;
  obs::Sampler sampler(&reg, &store);
  double t = 0.0;
  for (auto _ : state) {
    for (obs::Histogram* h : hs) h->observe(t - double(std::int64_t(t)) + 0.1);
    sampler.sample(t);
    t += 1.0;
  }
  benchmark::DoNotOptimize(sampler.samples());
}
BENCHMARK(BM_SamplerSample);

/// One SLO evaluation round: 8 rules (half with burn windows) against a
/// store whose watched series hold a full ring of samples.
void BM_SloEvaluate(benchmark::State& state) {
  obs::TimeseriesStore store;
  obs::SloEngine engine;
  for (int i = 0; i < 8; ++i) {
    const std::string series = kBenchTelSeries + ("." + std::to_string(i));
    obs::Series& s = store.series(series);
    for (int k = 0; k < 512; ++k) s.push(double(k), double((k * 7 + i) % 10));
    std::string rule = "r" + std::to_string(i) + ": " + series + " < 8";
    if (i % 2 == 0) rule += " budget 0.25 burn 30/300 x2";
    engine.add_rule(rule);
  }
  double t = 512.0;
  for (auto _ : state) {
    for (int i = 0; i < 8; ++i) {
      store.series(kBenchTelSeries + ("." + std::to_string(i)))
          .push(t, double(std::int64_t(t) % 10));
    }
    benchmark::DoNotOptimize(engine.evaluate(store, t));
    t += 1.0;
  }
  benchmark::DoNotOptimize(engine.evaluations());
}
BENCHMARK(BM_SloEvaluate);

/// A full causal-chain lifecycle: open, the fleet's typical five segment
/// adds, close — the per-checkpoint price of time-to-safe attribution.
void BM_CausalChainCycle(benchmark::State& state) {
  obs::CausalLog log;
  double t = 0.0;
  for (auto _ : state) {
    const std::uint64_t id = log.open("bench/chain", 3, t);
    log.add(id, obs::CausalSegment::kCapture, 0.05);
    log.add(id, obs::CausalSegment::kAdmissionQueue, 0.01);
    log.add(id, obs::CausalSegment::kDrainQueue, 0.2);
    log.add(id, obs::CausalSegment::kInFlight, 1.0);
    log.add(id, obs::CausalSegment::kBackoff, 0.1);
    log.close_at(id, t + 1.4);
    t += 1.0;
  }
  benchmark::DoNotOptimize(log.closed());
}
BENCHMARK(BM_CausalChainCycle);

}  // namespace

int main(int argc, char** argv) {
  return aic::bench::run_gbench_main("micro_obs", argc, argv);
}
