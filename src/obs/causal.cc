#include "obs/causal.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace aic::obs {

const char* to_string(CausalSegment s) {
  switch (s) {
    case CausalSegment::kCapture:
      return "capture";
    case CausalSegment::kCompress:
      return "compress";
    case CausalSegment::kAdmissionQueue:
      return "admission-queue";
    case CausalSegment::kDrainQueue:
      return "drain-queue";
    case CausalSegment::kInFlight:
      return "in-flight";
    case CausalSegment::kBackoff:
      return "backoff";
    case CausalSegment::kStalled:
      return "stalled";
  }
  return "?";
}

double CausalChain::accounted() const {
  double sum = 0.0;
  for (const double s : seg) sum += s;
  return sum;
}

double CausalChain::unattributed() const {
  return std::max(0.0, total_s - accounted());
}

CausalSegment CausalChain::dominant() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < seg.size(); ++i) {
    if (seg[i] > seg[best]) best = i;
  }
  return CausalSegment(best);
}

CausalLog::CausalLog() : CausalLog(Config{}) {}

CausalLog::CausalLog(Config config)
    : config_(config), recent_(config.ring_capacity) {
  AIC_CHECK_MSG(config_.ring_capacity >= 1, "causal ring capacity >= 1");
  AIC_CHECK_MSG(config_.top_k >= 1, "causal top_k must be >= 1");
}

std::uint64_t CausalLog::open(std::string label, std::uint64_t tenant,
                              double t) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = next_id_++;
  CausalChain c;
  c.id = id;
  c.label = std::move(label);
  c.tenant = tenant;
  c.open_t = t;
  open_.emplace(id, std::move(c));
  return id;
}

void CausalLog::add(std::uint64_t id, CausalSegment s, double seconds) {
  if (id == 0 || seconds <= 0.0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  it->second.seg[std::size_t(s)] += seconds;
}

void CausalLog::finish(std::uint64_t id, double total_s, bool aborted) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  CausalChain c = std::move(it->second);
  open_.erase(it);
  c.closed = true;
  c.aborted = aborted;
  c.total_s = std::max(0.0, total_s);
  if (!aborted) {
    // Keep top_ sorted slowest-first; insert then trim.
    auto pos = std::upper_bound(top_.begin(), top_.end(), c,
                                [](const CausalChain& a,
                                   const CausalChain& b) {
                                  return a.total_s > b.total_s;
                                });
    top_.insert(pos, c);
    if (top_.size() > config_.top_k) top_.resize(config_.top_k);
  }
  recent_.push(std::move(c));
}

void CausalLog::close_total(std::uint64_t id, double total_s, bool aborted) {
  if (id == 0) return;
  finish(id, total_s, aborted);
}

void CausalLog::close_at(std::uint64_t id, double t_now, bool aborted) {
  if (id == 0) return;
  double total = 0.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = open_.find(id);
    if (it == open_.end()) return;
    total = t_now - it->second.open_t;
  }
  finish(id, total, aborted);
}

std::vector<CausalChain> CausalLog::recent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recent_.items();
}

std::vector<CausalChain> CausalLog::slowest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return top_;
}

std::uint64_t CausalLog::opened() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_ - 1;
}

std::uint64_t CausalLog::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recent_.pushed();
}

std::size_t CausalLog::open_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return open_.size();
}

}  // namespace aic::obs
