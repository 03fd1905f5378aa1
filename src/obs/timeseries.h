// Bounded ring-buffer time-series over the metrics registry: the fleet's
// "when did it degrade" layer.
//
// MetricsRegistry answers "what happened in total"; a Series answers "what
// was it at t". The Sampler bridges the two: each sample(now) takes one
// registry snapshot and appends derived points to a TimeseriesStore —
//
//   * counters   -> "<name>.rate"     events (or bytes, ...) per second over
//                   the sampling window, with counter-reset handling: a
//                   value below the previous sample means the process (or
//                   registry) restarted, and the full current value is the
//                   window's delta;
//   * gauges     -> "<name>"          last value wins, sampled as-is;
//   * histograms -> "<name>.p50/.p95/.p99" interpolated quantiles of the
//                   observations that landed *within* the window (delta of
//                   the cumulative bucket counts), plus "<name>.rate"
//                   observations per second. An empty window appends no
//                   quantile points at all — a quiet interval reports
//                   nothing rather than a fabricated zero.
//
// Time is whatever clock the caller passes to sample(): the fleet scheduler
// ticks at round boundaries and the failure simulator at checkpoint
// boundaries, both in *virtual* seconds. Nothing here reads a host clock —
// obs::wall_now_ns stays the library's only gateway and the det-clock lint
// holds.
//
// Storage is bounded: each Series is a ring of `capacity` points (oldest
// evicted first, evictions counted), so a week-long fleet run holds a
// fixed-size telemetry plane no matter how many rounds it ticks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/ring.h"
#include "obs/metrics.h"

namespace aic::obs {

struct SamplePoint {
  double t = 0.0;
  double v = 0.0;
};

/// One named series: a bounded ring of (t, v) points, appended in
/// nondecreasing time order. Thread-safe (one mutex per series; the sampler
/// is the only writer in practice, readers are dashboards and SLO rules).
class Series {
 public:
  Series(std::string name, std::size_t capacity);

  const std::string& name() const { return name_; }
  std::size_t capacity() const { return ring_.capacity(); }

  /// Appends one point; evicts the oldest once the ring is full. Points
  /// must arrive in nondecreasing t (CheckError otherwise — a time-series
  /// that goes backwards is a clock bug, not data).
  void push(double t, double v);

  std::size_t size() const;
  bool empty() const { return size() == 0; }
  /// Points pushed over the series' whole life (>= size()).
  std::uint64_t total_pushed() const;
  /// Points evicted by the capacity bound.
  std::uint64_t evicted() const;

  /// The newest point; CheckError when empty.
  SamplePoint last() const;
  /// Retained points, oldest -> newest.
  std::vector<SamplePoint> points() const;
  /// Retained points with from_t <= t <= to_t, oldest -> newest.
  std::vector<SamplePoint> points_in(double from_t, double to_t) const;

 private:
  const std::string name_;
  mutable std::mutex mutex_;
  common::Ring<SamplePoint> ring_;
};

/// Named series registry; get-or-create, stable handles (node ownership),
/// same shape as MetricsRegistry.
class TimeseriesStore {
 public:
  static constexpr std::size_t kDefaultCapacity = 512;

  explicit TimeseriesStore(std::size_t capacity_per_series = kDefaultCapacity);

  Series& series(std::string_view name);
  /// Lookup without creating; nullptr when absent.
  const Series* find(std::string_view name) const;

  std::vector<std::string> names() const;
  std::size_t size() const;
  bool empty() const { return size() == 0; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Series>, std::less<>> series_;
};

/// Derives time-series points from successive MetricsRegistry snapshots.
/// Single writer by design: call sample() from one place (a round-boundary
/// hook), with nondecreasing timestamps.
class Sampler {
 public:
  struct Config {
    /// Samples closer than this to the previous one are skipped entirely
    /// (returns 0 points) — the throttle for fine-grained tick sources.
    double min_interval_s = 0.0;
  };

  Sampler(const MetricsRegistry* metrics, TimeseriesStore* out);
  Sampler(const MetricsRegistry* metrics, TimeseriesStore* out,
          Config config);

  /// Takes one snapshot at virtual time now_s and appends derived points.
  /// Returns the number of points appended. The first call establishes the
  /// baseline: gauges are recorded, rates and quantiles need a window and
  /// start with the second call.
  std::size_t sample(double now_s);

  std::uint64_t samples() const { return samples_; }

 private:
  const MetricsRegistry* metrics_;
  TimeseriesStore* out_;
  Config config_;
  bool have_prev_ = false;
  double prev_t_ = 0.0;
  MetricsSnapshot prev_;
  std::uint64_t samples_ = 0;
};

}  // namespace aic::obs
