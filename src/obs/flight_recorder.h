// Failure flight recorder: the last N trace events + final metric values,
// dumped as postmortem.json when a run dies.
//
// TraceLog is capacity-bounded from the *front* — once full it drops new
// events, because for timeline export the beginning of a run matters as
// much as the end. A crash investigation needs the opposite: the most
// recent events, however long the run was. The FlightRecorder is a small
// ring buffer that taps every TraceLog event (including the ones the log
// itself drops past capacity), so the tail of the flight is always
// available. On failure — a CheckError/TransferError caught at a subsystem
// boundary (AsyncCheckpointer's worker, the failure simulator) or an
// uncaught exception reaching std::terminate via the installable hook —
// it writes postmortem.json: the failure reason and detail, the recent
// events oldest-to-newest, and a final metrics snapshot. A failed run
// leaves a diagnosable artifact instead of a stack trace.
//
// Schema "aic-postmortem-v1":
//
//   {
//     "schema": "aic-postmortem-v1",
//     "reason": "failure-sim",
//     "detail": "transfer of ckpt-000000 to level 3 aborted at ...",
//     "events_total": 1234,        // recorded over the whole flight
//     "events": [{"domain": "virtual", "cat": "xfer", "name": "abort",
//                 "phase": "instant", "t": 12.5, "dur": 0, "track": 3,
//                 "args": {"offset": 65536, "attempts": 4}}, ...],
//     "slo_events": [{"rule": "tts-p99", "kind": "breach", "t": 40.0,
//                     "value": 0.61, "burn_short": 2.5,
//                     "burn_long": 1.1}, ...],   // record_slo ring
//     "metrics": { ... obs::metrics_to_json snapshot ... }
//   }
//
// Event strings are the TraceLog contract's static literals, so holding
// TraceEvent copies in the ring is safe for the program's lifetime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/ring.h"
#include "obs/slo.h"
#include "obs/trace.h"

namespace aic::obs {

inline constexpr const char kPostmortemSchema[] = "aic-postmortem-v1";

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;
  /// Retained tail of SLO events (record_slo), a separate smaller ring —
  /// SLO state changes are rare next to trace events and must not be
  /// evicted by a burst of chunk spans.
  static constexpr std::size_t kSloCapacity = 64;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// Appends one event, evicting the oldest once `capacity` is reached.
  /// Same hot-path shape as TraceLog::push: one mutex, no allocation after
  /// the ring fills.
  void record(const TraceEvent& e);

  /// The retained tail, oldest -> newest.
  std::vector<TraceEvent> recent() const;
  /// Events seen over the whole flight (>= recent().size()).
  std::uint64_t total_recorded() const;

  /// Appends one SLO event to the dedicated ring (fed by Telemetry::tick);
  /// the postmortem's "slo_events" section is this ring, oldest -> newest.
  void record_slo(const SloEvent& e);
  std::vector<SloEvent> recent_slo() const;
  std::uint64_t total_slo_recorded() const;

  /// Metrics source embedded in the postmortem (may be nullptr: the dump
  /// then has an empty metrics object).
  void set_metrics(const MetricsRegistry* metrics);
  void set_dump_path(std::string path);
  const std::string& dump_path() const { return dump_path_; }

  std::string postmortem_json(std::string_view reason,
                              std::string_view detail) const;
  /// Writes postmortem_json to dump_path(); false on I/O failure. Safe to
  /// call from a terminate handler (no exceptions escape).
  bool dump(std::string_view reason, std::string_view detail) const noexcept;

  /// Routes std::terminate through `recorder` (dump, then chain to the
  /// previously installed handler). Pass the recorder that should own the
  /// postmortem; uninstall restores the previous handler.
  static void install_terminate_hook(FlightRecorder* recorder);
  static void uninstall_terminate_hook();

 private:
  mutable std::mutex mutex_;
  common::Ring<TraceEvent> ring_;
  common::Ring<SloEvent> slo_ring_{kSloCapacity};
  const MetricsRegistry* metrics_ = nullptr;
  std::string dump_path_ = "postmortem.json";
};

}  // namespace aic::obs
