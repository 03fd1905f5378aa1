#include "obs/timeseries.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace aic::obs {

Series::Series(std::string name, std::size_t capacity)
    : name_(std::move(name)), ring_(capacity) {
  AIC_CHECK_MSG(capacity >= 1, "series '" << name_ << "' needs capacity");
}

void Series::push(double t, double v) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!ring_.empty()) {
    const double newest = ring_.newest().t;
    AIC_CHECK_MSG(t >= newest, "series '" << name_
                                          << "' time went backwards: "
                                          << newest << " -> " << t);
  }
  ring_.push({t, v});
}

std::size_t Series::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::uint64_t Series::total_pushed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.pushed();
}

std::uint64_t Series::evicted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.pushed() - ring_.size();
}

SamplePoint Series::last() const {
  std::lock_guard<std::mutex> lock(mutex_);
  AIC_CHECK_MSG(!ring_.empty(), "series '" << name_ << "' is empty");
  return ring_.newest();
}

std::vector<SamplePoint> Series::points() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.items();
}

std::vector<SamplePoint> Series::points_in(double from_t, double to_t) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SamplePoint> out;
  ring_.for_each([&](const SamplePoint& p) {
    if (p.t >= from_t && p.t <= to_t) out.push_back(p);
  });
  return out;
}

TimeseriesStore::TimeseriesStore(std::size_t capacity_per_series)
    : capacity_(capacity_per_series) {
  AIC_CHECK_MSG(capacity_ >= 1, "per-series capacity must be >= 1");
}

Series& TimeseriesStore::series(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_
             .emplace(std::string(name),
                      std::make_unique<Series>(std::string(name), capacity_))
             .first;
  }
  return *it->second;
}

const Series* TimeseriesStore::find(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : it->second.get();
}

std::vector<std::string> TimeseriesStore::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, s] : series_) out.push_back(name);
  return out;
}

std::size_t TimeseriesStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return series_.size();
}

Sampler::Sampler(const MetricsRegistry* metrics, TimeseriesStore* out)
    : Sampler(metrics, out, Config{}) {}

Sampler::Sampler(const MetricsRegistry* metrics, TimeseriesStore* out,
                 Config config)
    : metrics_(metrics), out_(out), config_(config) {
  AIC_CHECK_MSG(metrics_ != nullptr, "sampler needs a metrics registry");
  AIC_CHECK_MSG(out_ != nullptr, "sampler needs a timeseries store");
  AIC_CHECK(config_.min_interval_s >= 0.0);
}

std::size_t Sampler::sample(double now_s) {
  if (have_prev_) {
    AIC_CHECK_MSG(now_s >= prev_t_, "sampler time went backwards: "
                                        << prev_t_ << " -> " << now_s);
    if (now_s - prev_t_ < config_.min_interval_s) return 0;
  }
  MetricsSnapshot cur = metrics_->snapshot();
  std::size_t pushed = 0;

  for (const auto& [name, v] : cur.gauges) {
    out_->series(name).push(now_s, v);
    ++pushed;
  }

  const double dt = have_prev_ ? now_s - prev_t_ : 0.0;
  if (dt > 0.0) {
    for (const auto& [name, v] : cur.counters) {
      const auto it = prev_.counters.find(name);
      const std::uint64_t prev = it == prev_.counters.end() ? 0 : it->second;
      // A counter below its previous sample means the source restarted;
      // the whole current value accumulated inside this window.
      const std::uint64_t delta = v >= prev ? v - prev : v;
      out_->series(name + ".rate").push(now_s, double(delta) / dt);
      ++pushed;
    }
    for (const auto& [name, h] : cur.histograms) {
      HistogramSnapshot win = h;
      const auto it = prev_.histograms.find(name);
      if (it != prev_.histograms.end() && it->second.count <= h.count &&
          it->second.counts.size() == h.counts.size()) {
        for (std::size_t i = 0; i < win.counts.size(); ++i) {
          win.counts[i] -= it->second.counts[i];
        }
        win.count -= it->second.count;
        win.sum -= it->second.sum;
      }
      out_->series(name + ".rate").push(now_s, double(win.count) / dt);
      ++pushed;
      // Empty window: no observations landed, so there is no quantile to
      // report — fabricating one (a zero, or the lifetime value) would
      // poison the SLO math.
      if (win.count == 0) continue;
      out_->series(name + ".p50").push(now_s, win.quantile(0.50));
      out_->series(name + ".p95").push(now_s, win.quantile(0.95));
      out_->series(name + ".p99").push(now_s, win.quantile(0.99));
      pushed += 3;
    }
  }

  prev_ = std::move(cur);
  prev_t_ = now_s;
  have_prev_ = true;
  ++samples_;
  return pushed;
}

}  // namespace aic::obs
