#include "obs/trace.h"

#include <algorithm>

#include "obs/flight_recorder.h"
#include "obs/telemetry.h"

namespace aic::obs {

const char* to_string(TimeDomain d) {
  switch (d) {
    case TimeDomain::kVirtual:
      return "virtual";
    case TimeDomain::kWall:
      return "wall";
  }
  return "?";
}

TraceLog::TraceLog(std::size_t capacity)
    : origin_ns_(wall_now_ns()), capacity_(std::max<std::size_t>(capacity, 1)) {}

void TraceLog::push(TraceEvent e, std::initializer_list<TraceArg> args) {
  for (const TraceArg& a : args) {
    if (e.arg_count >= TraceEvent::kMaxArgs) break;
    e.args[e.arg_count++] = a;
  }
  // The flight recorder sees every event, including the ones dropped past
  // this log's capacity — a postmortem needs the newest events, the
  // exported timeline needs the oldest.
  if (FlightRecorder* tap = tap_.load(std::memory_order_acquire)) {
    tap->record(e);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(e);
}

void TraceLog::span(TimeDomain domain, const char* category, const char* name,
                    double start_s, double end_s, std::uint32_t track,
                    std::initializer_list<TraceArg> args) {
  TraceEvent e;
  e.category = category;
  e.name = name;
  e.phase = TraceEvent::Phase::kSpan;
  e.domain = domain;
  e.start = start_s;
  e.duration = std::max(0.0, end_s - start_s);
  e.track = track;
  push(e, args);
}

void TraceLog::instant(TimeDomain domain, const char* category,
                       const char* name, double t_s, std::uint32_t track,
                       std::initializer_list<TraceArg> args) {
  TraceEvent e;
  e.category = category;
  e.name = name;
  e.phase = TraceEvent::Phase::kInstant;
  e.domain = domain;
  e.start = t_s;
  e.track = track;
  push(e, args);
}

std::vector<TraceEvent> TraceLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::size_t TraceLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::uint64_t TraceLog::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

Hub::Hub(std::size_t trace_capacity) : trace(trace_capacity) {}

Hub::~Hub() {
  // Detach the tap before the recorder is destroyed (members are torn down
  // after this body, in reverse declaration order — trace before flight_
  // would be fine, but a late event from another thread must not race the
  // recorder's destruction).
  trace.set_tap(nullptr);
}

FlightRecorder& Hub::enable_flight_recorder(std::size_t capacity,
                                            std::string dump_path) {
  if (!flight_) {
    flight_ = std::make_unique<FlightRecorder>(capacity);
    flight_->set_metrics(&metrics);
    trace.set_tap(flight_.get());
  }
  flight_->set_dump_path(std::move(dump_path));
  return *flight_;
}

Telemetry& Hub::enable_telemetry() {
  if (!telemetry_) telemetry_ = std::make_unique<Telemetry>(*this);
  return *telemetry_;
}

bool Hub::dump_postmortem(std::string_view reason,
                          std::string_view detail) const noexcept {
  if (!flight_) return false;
  return flight_->dump(reason, detail);
}

}  // namespace aic::obs
