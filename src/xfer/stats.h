// Per-transfer and aggregate counters for the chunked transfer engine.
//
// Every counter is in virtual (simulated) time/bytes: the discrete-event
// scheduler charges chunk sends against the channel's bandwidth share and
// accumulates the outcome here, so benches can report effective goodput,
// retry pressure, and backoff overhead per drain.
#pragma once

#include <cstdint>

namespace aic::xfer {

struct Stats {
  std::uint64_t chunks_sent = 0;     // attempts that were acked
  std::uint64_t chunks_failed = 0;   // dropped / partial / timed-out attempts
  std::uint64_t retries = 0;         // re-sends after a failed attempt
  std::uint64_t bytes_acked = 0;     // payload bytes acked by the far side
  std::uint64_t bytes_wasted = 0;    // bytes sent in failed attempts
  double wire_seconds = 0.0;         // virtual time attempts held the wire
  double backoff_seconds = 0.0;      // virtual time spent backing off
  std::uint64_t transfers_committed = 0;
  std::uint64_t transfers_aborted = 0;
  std::uint64_t transfers_interrupted = 0;  // failure-interruption events

  /// Acked payload bytes per second of elapsed virtual time (not wire
  /// time): the figure the Fig. 7 sharing-factor comparison needs.
  double goodput_bps(double elapsed_seconds) const {
    return elapsed_seconds > 0.0 ? double(bytes_acked) / elapsed_seconds
                                 : 0.0;
  }

  Stats& operator+=(const Stats& o) {
    chunks_sent += o.chunks_sent;
    chunks_failed += o.chunks_failed;
    retries += o.retries;
    bytes_acked += o.bytes_acked;
    bytes_wasted += o.bytes_wasted;
    wire_seconds += o.wire_seconds;
    backoff_seconds += o.backoff_seconds;
    transfers_committed += o.transfers_committed;
    transfers_aborted += o.transfers_aborted;
    transfers_interrupted += o.transfers_interrupted;
    return *this;
  }
};

}  // namespace aic::xfer
