#include "xfer/channel.h"

#include <cmath>
#include <limits>

namespace aic::xfer {

Channel::Channel(Config config) : config_(config) {
  AIC_CHECK_MSG(std::isfinite(config.bandwidth_bps) &&
                    config.bandwidth_bps > 0.0,
                "channel bandwidth must be positive and finite, got "
                    << config.bandwidth_bps);
  AIC_CHECK_MSG(std::isfinite(config.latency_s) && config.latency_s >= 0.0,
                "channel latency must be non-negative and finite, got "
                    << config.latency_s);
}

void Channel::inject_drops(int count) {
  AIC_CHECK(count >= 0);
  for (int i = 0; i < count; ++i) inject(Fault{FaultKind::kDrop, 0.0, 0.0});
}

void Channel::set_drop_probability(double p, std::uint64_t seed) {
  AIC_CHECK_MSG(p >= 0.0 && p < 1.0,
                "drop probability must be in [0, 1), got " << p);
  drop_probability_ = p;
  rng_ = Rng(seed);
}

Channel::SendOutcome Channel::send(std::uint64_t bytes,
                                   double bandwidth_bps) {
  AIC_CHECK_MSG(std::isfinite(bandwidth_bps) && bandwidth_bps >= 0.0,
                "per-stream bandwidth must be non-negative and finite, got "
                    << bandwidth_bps);
  // A zero share (a starved best-effort stream while reservations consume
  // the whole channel) yields an attempt that never completes: the
  // scheduler leaves it in flight and virtual time passes it by.
  const double base =
      bandwidth_bps > 0.0
          ? config_.latency_s + double(bytes) / bandwidth_bps
          : std::numeric_limits<double>::infinity();

  if (!scripted_.empty()) {
    const Fault fault = scripted_.front();
    scripted_.pop_front();
    if (fault.kind == FaultKind::kStall) {
      AIC_CHECK(fault.stall_seconds >= 0.0);
      // Delivery eventually succeeds, late; the scheduler's chunk timeout
      // decides whether the sender was still listening.
      return SendOutcome{true, base + fault.stall_seconds};
    }
    if (fault.kind == FaultKind::kPartialWrite) {
      AIC_CHECK(fault.deliver_fraction >= 0.0 && fault.deliver_fraction < 1.0);
      const auto delivered =
          std::uint64_t(double(bytes) * fault.deliver_fraction);
      const double frac = bytes > 0 ? double(delivered) / double(bytes) : 0.0;
      return SendOutcome{
          false, config_.latency_s + frac * (base - config_.latency_s)};
    }
    // kDrop: the chunk is lost in flight — full wire time wasted, nothing
    // lands.
    return SendOutcome{false, base};
  }
  if (drop_probability_ > 0.0 && rng_.bernoulli(drop_probability_)) {
    return SendOutcome{false, base};
  }
  return SendOutcome{true, base};
}

}  // namespace aic::xfer
