// Simulated network channel for checkpoint drains.
//
// A Channel models one link between the checkpointing core and a storage
// level (L2 partner group or L3 remote store): configurable bandwidth and
// per-message latency, and injectable faults. All time is virtual; a
// send() returns how long the attempt took, the caller (TransferScheduler)
// owns the clock.
//
// Bandwidth sharing — the Fig. 7 SF mechanism, made emergent: the
// scheduler prices each send attempt at the stream's share of the channel
// as of the moment the attempt starts (with default QoS, bandwidth over
// the attempts on the wire). N equal concurrent drains therefore
// interleave chunk by chunk and each observes ~1/N of the channel's
// goodput, instead of the sharing factor being assumed by a model
// parameter.
//
// Faults are deterministic and scripted (a FIFO applied to upcoming sends)
// or probabilistic from a seeded RNG:
//   kDrop          the chunk never arrives; the attempt wastes wire time.
//   kStall         delivery is delayed; the scheduler's chunk timeout may
//                  turn the stall into a failed attempt.
//   kPartialWrite  only a prefix of the chunk reaches the far side before
//                  the connection breaks; the attempt fails and the retry
//                  resends the whole chunk from the last ack.
#pragma once

#include <cstdint>
#include <deque>

#include "common/check.h"
#include "common/rng.h"

namespace aic::xfer {

enum class FaultKind : std::uint8_t { kDrop = 0, kStall, kPartialWrite };

struct Fault {
  FaultKind kind = FaultKind::kDrop;
  /// Extra delivery delay for kStall (seconds).
  double stall_seconds = 0.0;
  /// Fraction of the chunk delivered before the break, for kPartialWrite.
  double deliver_fraction = 0.5;
};

class Channel {
 public:
  struct Config {
    double bandwidth_bps = 1.0e6;
    double latency_s = 0.0;
  };

  explicit Channel(Config config);

  double bandwidth_bps() const { return config_.bandwidth_bps; }
  double latency_s() const { return config_.latency_s; }

  /// Scripts a fault for an upcoming send (FIFO over all streams).
  void inject(Fault fault) { scripted_.push_back(fault); }
  /// Scripts `count` consecutive drops — the retry/backoff test harness.
  void inject_drops(int count);
  /// Independent per-send drop probability from a seeded RNG (applies only
  /// when no scripted fault is pending).
  void set_drop_probability(double p, std::uint64_t seed);

  struct SendOutcome {
    bool acked = false;
    /// Virtual seconds the attempt occupied (as seen by the sender).
    double seconds = 0.0;
  };

  /// One chunk-send attempt at a per-stream bandwidth the caller priced:
  /// the TransferScheduler computes each stream's share from tenant
  /// reservations and weights and passes it here. A zero bandwidth yields
  /// an attempt of infinite duration (a starved stream), never a division
  /// fault.
  SendOutcome send(std::uint64_t bytes, double bandwidth_bps);

 private:
  Config config_;
  std::deque<Fault> scripted_;
  double drop_probability_ = 0.0;
  Rng rng_;
};

}  // namespace aic::xfer
