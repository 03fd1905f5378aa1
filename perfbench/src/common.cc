#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "bench.h"
#include "obs/clock.h"
#include "obs/export.h"

namespace perfbench {

namespace {

constexpr const char* kBenchCategory = "perfbench";

using Interval = std::pair<double, double>;

/// Length of the union of `v` clipped to [lo, hi]. Sorts `v`.
double union_length(std::vector<Interval>& v, double lo, double hi) {
  std::sort(v.begin(), v.end());
  double covered = 0.0;
  double cur_lo = 0.0;
  double cur_hi = -1.0;
  bool open = false;
  for (auto [a, b] : v) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

/// Ledger layer of a span the library emitted on its own.
std::string library_layer(const aic::obs::TraceEvent& e) {
  if (std::strcmp(e.category, "delta") == 0 &&
      std::strcmp(e.name, "shard") == 0) {
    return "delta.encode";
  }
  return std::string(e.category) + "." + e.name;
}

}  // namespace

double now_s() { return double(aic::obs::wall_now_ns()) * 1e-9; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t image_digest(const aic::mem::AddressSpace& space) {
  // FNV-1a over 64-bit words: the page id, then the page's bytes.
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const aic::mem::PageId id : space.live_pages()) {
    h = (h ^ id) * kPrime;
    const aic::ByteSpan bytes = space.page_bytes(id);
    for (std::size_t off = 0; off + 8 <= bytes.size(); off += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, bytes.data() + off, 8);
      h = (h ^ w) * kPrime;
    }
  }
  return h;
}

double Samples::sum() const {
  double s = 0.0;
  for (double v : v_) s += v;
  return s;
}

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * double(s.size() - 1);
  const std::size_t lo = std::size_t(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (pos - double(lo)) * (s[hi] - s[lo]);
}

std::string describe(const char* what, const Samples& s, double scale,
                     const char* unit, double tail_q) {
  char buf[256];
  if (tail_q <= 0.5) {
    std::snprintf(buf, sizeof buf, "%s: median %.4f %s (n=%zu)", what,
                  s.quantile(0.5) * scale, unit, s.size());
  } else if (s.tail_ok(tail_q)) {
    std::snprintf(buf, sizeof buf, "%s: p50 %.4f %s, p%g %.4f %s (n=%zu)",
                  what, s.quantile(0.5) * scale, unit, tail_q * 100.0,
                  s.quantile(tail_q) * scale, unit, s.size());
  } else {
    std::snprintf(buf, sizeof buf,
                  "%s: p50 %.4f %s (n=%zu; too few samples for p%g)", what,
                  s.quantile(0.5) * scale, unit, s.size(), tail_q * 100.0);
  }
  return buf;
}

Ledger::Ledger(aic::obs::Hub* hub)
    : hub_(hub), origin_ns_(aic::obs::wall_now_ns()) {}

double Ledger::now() const {
  return hub_ != nullptr ? hub_->trace.wall_seconds()
                         : aic::obs::wall_seconds_since(origin_ns_);
}

Ledger::Span::Span(Ledger& ledger, const char* layer)
    : ledger_(ledger), layer_(layer), start_(ledger.now()) {
  if (!ledger_.recording_) return;
  const std::ptrdiff_t parent =
      ledger_.open_.empty() ? -1 : std::ptrdiff_t(ledger_.open_.back());
  index_ = ledger_.spans_.size();
  ledger_.spans_.push_back({layer_, start_, start_, parent});
  ledger_.open_.push_back(index_);
  recorded_ = true;
}

double Ledger::Span::close() {
  if (duration_ >= 0.0) return duration_;
  const double end = ledger_.now();
  duration_ = end - start_;
  if (recorded_) {
    ledger_.spans_[index_].end = end;
    if (!ledger_.open_.empty() && ledger_.open_.back() == index_) {
      ledger_.open_.pop_back();
    }
    if (ledger_.hub_ != nullptr) {
      ledger_.hub_->trace.span(aic::obs::TimeDomain::kWall, kBenchCategory,
                               layer_, start_, end);
    }
  }
  return duration_;
}

std::map<std::string, Ledger::Layer> Ledger::layers() const {
  std::map<std::string, Layer> out;
  std::vector<std::vector<Interval>> cover(spans_.size());
  for (const Recorded& s : spans_) {
    if (s.parent >= 0) cover[std::size_t(s.parent)].push_back({s.start, s.end});
  }

  if (hub_ != nullptr) {
    // Library spans, grouped by (enclosing benchmark span, layer).
    std::map<std::pair<std::ptrdiff_t, std::string>, std::vector<Interval>>
        groups;
    for (const aic::obs::TraceEvent& e : hub_->trace.snapshot()) {
      if (e.phase != aic::obs::TraceEvent::Phase::kSpan ||
          e.domain != aic::obs::TimeDomain::kWall ||
          std::strcmp(e.category, kBenchCategory) == 0) {
        continue;
      }
      const double a = e.start;
      const double b = e.start + e.duration;
      // The innermost benchmark span open at `a` is the last one started
      // at or before it, or one of that span's ancestors.
      auto it = std::upper_bound(
          spans_.begin(), spans_.end(), a,
          [](double t, const Recorded& s) { return t < s.start; });
      std::ptrdiff_t p = std::ptrdiff_t(it - spans_.begin()) - 1;
      while (p >= 0 && !(spans_[std::size_t(p)].start <= a &&
                         spans_[std::size_t(p)].end >= b)) {
        p = spans_[std::size_t(p)].parent;
      }
      groups[{p, library_layer(e)}].push_back({a, b});
    }
    for (auto& [key, v] : groups) {
      Layer& L = out[key.second];
      double longest = 0.0;
      double sum = 0.0;
      for (const auto& [a, b] : v) {
        sum += b - a;
        longest = std::max(longest, b - a);
      }
      L.spans += v.size();
      L.total_s += sum;
      L.straggler_s += longest - sum / double(v.size());
      if (key.first < 0) {
        L.self_s += union_length(v, -1e300, 1e300);
        continue;
      }
      const Recorded& parent = spans_[std::size_t(key.first)];
      L.self_s += union_length(v, parent.start, parent.end);
      auto& c = cover[std::size_t(key.first)];
      c.insert(c.end(), v.begin(), v.end());
    }
  }

  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Recorded& s = spans_[i];
    Layer& L = out[s.layer];
    const double d = s.end - s.start;
    L.spans += 1;
    L.total_s += d;
    L.self_s += d - union_length(cover[i], s.start, s.end);
  }
  return out;
}

double Ledger::covered_seconds() const {
  double t = 0.0;
  for (const Recorded& s : spans_) {
    if (s.parent < 0) t += s.end - s.start;
  }
  for (const auto& [name, L] : layers()) {
    if (name.rfind("op.", 0) == 0) t -= L.self_s;
  }
  return t;
}

bool Ledger::write_chrome_trace(const std::string& path) const {
  if (hub_ == nullptr) return false;
  std::ofstream out(path, std::ios::binary);
  out << aic::obs::trace_to_chrome_json(hub_->trace);
  return bool(out);
}

bool write_ledger_table(const std::string& path, const std::string& title,
                        const std::map<std::string, Ledger::Layer>& layers,
                        double timed_s, const Result& result) {
  std::vector<std::pair<std::string, Ledger::Layer>> rows(layers.begin(),
                                                          layers.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  std::ofstream out(path, std::ios::binary);
  char buf[256];
  out << title << "\n";
  std::snprintf(buf, sizeof buf, "timed wall %.6f s\n\n", timed_s);
  out << buf;
  std::snprintf(buf, sizeof buf, "%-22s %8s %12s %12s %8s %12s\n", "layer",
                "spans", "total_s", "self_s", "share", "straggler_s");
  out << buf;
  for (const auto& [name, L] : rows) {
    std::snprintf(buf, sizeof buf, "%-22s %8llu %12.6f %12.6f %8.4f %12.6f\n",
                  name.c_str(), static_cast<unsigned long long>(L.spans),
                  L.total_s, L.self_s, timed_s > 0 ? L.self_s / timed_s : 0.0,
                  L.straggler_s);
    out << buf;
  }
  out << "\nmetrics\n";
  for (const auto& [name, v] : result.metrics) {
    std::snprintf(buf, sizeof buf, "  %-26s %.9g\n", name.c_str(), v);
    out << buf;
  }
  out << "\nnotes\n";
  for (const std::string& n : result.notes) out << "  " << n << "\n";
  return bool(out);
}

}  // namespace perfbench
