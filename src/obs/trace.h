// Typed span/instant tracing across the AIC pipeline's two timelines.
//
// The pipeline lives in two kinds of time at once: *wall-clock* time (real
// work on the host — delta compression on the checkpointing cores) and
// *virtual* time (the discrete-event clocks of the transfer engine and the
// failure simulator). A trace event carries its TimeDomain so one run
// exports as a single Chrome-trace file with one "process" lane per domain
// (export.h: trace_to_chrome_json), and a whole simulated run — intervals,
// compression shards, drain chunks, backoffs, failures, restarts —
// renders as a timeline in chrome://tracing or Perfetto.
//
// Event identity is two static strings (category + name) plus a small
// fixed set of numeric args; nothing in an event owns memory, so recording
// is one mutex acquisition and one vector append. Capacity is bounded:
// once `capacity` events are held, further events are counted in dropped()
// instead of growing without limit (a long simulation can emit millions of
// chunk spans).
//
// Virtual-time events pass their simulator timestamps directly; wall-clock
// events use seconds since the log's creation (wall_seconds(), backed by
// obs::wall_now_ns — the library's only host-clock gateway).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.h"
#include "obs/metrics.h"

namespace aic::obs {

class FlightRecorder;
class Telemetry;

enum class TimeDomain : std::uint8_t { kVirtual = 0, kWall = 1 };

const char* to_string(TimeDomain d);

/// One key/value annotation; keys must be string literals (or otherwise
/// outlive the log).
struct TraceArg {
  const char* key = "";
  double value = 0.0;
};

struct TraceEvent {
  enum class Phase : std::uint8_t { kSpan = 0, kInstant = 1 };
  static constexpr std::size_t kMaxArgs = 4;

  const char* category = "";  // subsystem: "ckpt", "delta", "xfer", ...
  const char* name = "";      // event type: "interval", "chunk", ...
  Phase phase = Phase::kInstant;
  TimeDomain domain = TimeDomain::kVirtual;
  double start = 0.0;     // seconds in the event's domain
  double duration = 0.0;  // 0 for instants
  /// Export lane within the domain (shard index, transfer level, ...).
  std::uint32_t track = 0;
  std::uint8_t arg_count = 0;
  std::array<TraceArg, kMaxArgs> args{};
};

class TraceLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 20;

  explicit TraceLog(std::size_t capacity = kDefaultCapacity);

  /// Records a completed span [start_s, end_s] (seconds in `domain`). Args
  /// beyond TraceEvent::kMaxArgs are dropped.
  void span(TimeDomain domain, const char* category, const char* name,
            double start_s, double end_s, std::uint32_t track = 0,
            std::initializer_list<TraceArg> args = {});

  /// Records a point event at time t_s.
  void instant(TimeDomain domain, const char* category, const char* name,
               double t_s, std::uint32_t track = 0,
               std::initializer_list<TraceArg> args = {});

  /// Wall-clock seconds since this log was created — the time base every
  /// kWall event must use so lanes line up in the export.
  double wall_seconds() const { return wall_seconds_since(origin_ns_); }

  /// Copies the events recorded so far (stable order of recording).
  std::vector<TraceEvent> snapshot() const;

  std::size_t size() const;
  /// Events discarded after the capacity bound was reached.
  std::uint64_t dropped() const;

  /// Forwards every recorded event to `tap` (the failure flight recorder)
  /// BEFORE the capacity check, so the tap keeps seeing the tail of a run
  /// even after this log stops growing. nullptr detaches.
  void set_tap(FlightRecorder* tap) {
    tap_.store(tap, std::memory_order_release);
  }

 private:
  void push(TraceEvent e, std::initializer_list<TraceArg> args);

  const std::uint64_t origin_ns_;
  const std::size_t capacity_;
  std::atomic<FlightRecorder*> tap_{nullptr};
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

/// The observability hub an instrumented component attaches to: one metrics
/// registry plus one trace log, threaded through the pipeline as a single
/// `obs::Hub*` (nullptr = observability disabled, near-zero cost).
struct Hub {
  MetricsRegistry metrics;
  TraceLog trace;

  explicit Hub(std::size_t trace_capacity = TraceLog::kDefaultCapacity);
  ~Hub();
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  /// Attaches a failure flight recorder (flight_recorder.h): a ring of the
  /// last `capacity` trace events — fed even past the TraceLog's own
  /// capacity bound — with final values drawn from `metrics`, dumping to
  /// `dump_path` on failure. Idempotent; returns the recorder.
  FlightRecorder& enable_flight_recorder(
      std::size_t capacity = 256, std::string dump_path = "postmortem.json");

  /// The attached recorder, or nullptr when none was enabled.
  FlightRecorder* flight() const { return flight_.get(); }

  /// Attaches the telemetry plane (telemetry.h): a TimeseriesStore fed by
  /// a Sampler over `metrics`, an SLO engine, and a causal time-to-safe
  /// log, driven by Telemetry::tick from a virtual clock. Idempotent;
  /// returns the plane. Enable before constructing the components that
  /// will feed it — instruments resolve the plane once, at attach time.
  Telemetry& enable_telemetry();

  /// The attached telemetry plane, or nullptr when none was enabled.
  Telemetry* telemetry() const { return telemetry_.get(); }

  /// Writes the postmortem via the attached recorder; false (and no file)
  /// when no recorder is enabled. Never throws — this runs on failure
  /// paths.
  bool dump_postmortem(std::string_view reason,
                       std::string_view detail) const noexcept;

 private:
  std::unique_ptr<FlightRecorder> flight_;
  std::unique_ptr<Telemetry> telemetry_;
};

}  // namespace aic::obs
