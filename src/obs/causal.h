// Causal time-to-safe attribution: where did each checkpoint's
// capture -> commit latency actually go?
//
// A CausalChain follows one checkpoint from the instant its capture starts
// to the instant its last chunk acks, accumulating seconds into a fixed
// segment taxonomy:
//
//   kCapture        local copy pause (footprint / capture bandwidth)
//   kCompress       delta/compression work (wall seconds on the host)
//   kAdmissionQueue waiting in the fleet admission queue before the job
//                   could run at all (attributed to the job's first chain)
//   kDrainQueue     submitted but not on the wire (waiting for a chunk
//                   attempt to start)
//   kInFlight       chunk attempts occupying the wire (successful or not)
//   kBackoff        retry backoff waits between failed attempts
//   kStalled        interrupted by a failure, waiting for the restart to
//                   resume the drain
//
// total_s is authoritative (reported by the closer, e.g. commit - capture
// in virtual time); unattributed() is the remainder the segments do not
// explain — in the fleet that is mostly round-boundary staleness (a commit
// is observed only at the next quantum edge). The decomposition is what
// lets a p99 time-to-safe sample be *explained*: the dominant segment
// names the bottleneck (wire vs retries vs stalls), not just the latency.
//
// The producers are TransferScheduler (drain segments, closes the chain at
// commit/abort), FleetScheduler (opens per capture, adds capture +
// admission-queue), and AsyncCheckpointer (capture/compress wall seconds +
// drain; a chain may mix wall and virtual seconds — totals come from the
// closer, not from subtracting clocks). The CausalLog keeps a bounded ring
// of recently closed chains plus the top-k slowest, so a 10k-job run
// retains the interesting tail in O(k) memory.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/ring.h"

namespace aic::obs {

enum class CausalSegment : std::uint8_t {
  kCapture = 0,
  kCompress,
  kAdmissionQueue,
  kDrainQueue,
  kInFlight,
  kBackoff,
  kStalled,
};

inline constexpr std::size_t kCausalSegmentCount = 7;

const char* to_string(CausalSegment s);

struct CausalChain {
  std::uint64_t id = 0;
  std::string label;  // e.g. the drain key "j<job>/c<ckpt>"
  std::uint64_t tenant = 0;
  double open_t = 0.0;   // clock of the opener (informational)
  double total_s = 0.0;  // authoritative end-to-end latency
  bool closed = false;
  bool aborted = false;
  std::array<double, kCausalSegmentCount> seg{};

  double segment(CausalSegment s) const { return seg[std::size_t(s)]; }
  double accounted() const;
  /// total_s minus the segments' sum (clamped at 0): latency the taxonomy
  /// does not explain (round-boundary staleness, mostly).
  double unattributed() const;
  /// The largest segment — the critical path's head.
  CausalSegment dominant() const;
};

class CausalLog {
 public:
  struct Config {
    /// Recently closed chains retained (ring, oldest evicted).
    std::size_t ring_capacity = 1024;
    /// Slowest closed (non-aborted) chains retained, by total_s.
    std::size_t top_k = 16;
  };

  CausalLog();
  explicit CausalLog(Config config);

  /// Opens a chain; returns its id (never 0).
  std::uint64_t open(std::string label, std::uint64_t tenant, double t);
  /// Accumulates seconds into a segment; unknown ids are ignored (a chain
  /// evicted or never opened — attribution is best-effort by design).
  void add(std::uint64_t id, CausalSegment s, double seconds);
  /// Closes with an explicit end-to-end total.
  void close_total(std::uint64_t id, double total_s, bool aborted = false);
  /// Closes at time t_now on the opener's clock (total = t_now - open_t).
  void close_at(std::uint64_t id, double t_now, bool aborted = false);

  /// Recently closed chains, oldest -> newest.
  std::vector<CausalChain> recent() const;
  /// The top-k slowest closed non-aborted chains, slowest first.
  std::vector<CausalChain> slowest() const;

  std::uint64_t opened() const;
  std::uint64_t closed() const;
  std::size_t open_count() const;

 private:
  void finish(std::uint64_t id, double total_s, bool aborted);

  const Config config_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, CausalChain> open_;
  common::Ring<CausalChain> recent_;  // every closed chain passes through
  std::vector<CausalChain> top_;      // sorted slowest-first
};

}  // namespace aic::obs
