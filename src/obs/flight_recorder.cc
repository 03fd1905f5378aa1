#include "obs/flight_recorder.h"

#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>

#include "obs/export.h"
#include "obs/json.h"

namespace aic::obs {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(capacity < 1 ? 1 : capacity) {}

void FlightRecorder::record(const TraceEvent& e) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.push(e);
}

std::vector<TraceEvent> FlightRecorder::recent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.items();
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.pushed();
}

void FlightRecorder::record_slo(const SloEvent& e) {
  std::lock_guard<std::mutex> lock(mutex_);
  slo_ring_.push(e);
}

std::vector<SloEvent> FlightRecorder::recent_slo() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slo_ring_.items();
}

std::uint64_t FlightRecorder::total_slo_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slo_ring_.pushed();
}

void FlightRecorder::set_metrics(const MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(mutex_);
  metrics_ = metrics;
}

void FlightRecorder::set_dump_path(std::string path) {
  std::lock_guard<std::mutex> lock(mutex_);
  dump_path_ = std::move(path);
}

std::string FlightRecorder::postmortem_json(std::string_view reason,
                                            std::string_view detail) const {
  const std::vector<TraceEvent> events = recent();
  const MetricsRegistry* metrics = nullptr;
  std::uint64_t total = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    metrics = metrics_;
    total = ring_.pushed();
  }
  std::ostringstream os;
  os << "{\"schema\":\"" << kPostmortemSchema << "\"";
  os << ",\"reason\":\"" << json_escape(reason) << "\"";
  os << ",\"detail\":\"" << json_escape(detail) << "\"";
  os << ",\"events_total\":" << total;
  os << ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i) os << ",";
    os << "{\"domain\":\"" << to_string(e.domain) << "\",\"cat\":\""
       << json_escape(e.category) << "\",\"name\":\"" << json_escape(e.name)
       << "\",\"phase\":\""
       << (e.phase == TraceEvent::Phase::kSpan ? "span" : "instant")
       << "\",\"t\":" << json_number(e.start)
       << ",\"dur\":" << json_number(e.duration) << ",\"track\":" << e.track;
    if (e.arg_count > 0) {
      os << ",\"args\":{";
      for (std::uint8_t a = 0; a < e.arg_count; ++a) {
        if (a) os << ",";
        os << "\"" << json_escape(e.args[a].key)
           << "\":" << json_number(e.args[a].value);
      }
      os << "}";
    }
    os << "}";
  }
  os << "],\"slo_events\":[";
  const std::vector<SloEvent> slo_events = recent_slo();
  for (std::size_t i = 0; i < slo_events.size(); ++i) {
    if (i) os << ",";
    append_json(os, slo_events[i]);
  }
  os << "],\"metrics\":"
     << metrics_to_json(metrics != nullptr ? metrics->snapshot()
                                           : MetricsSnapshot{})
     << "}";
  return os.str();
}

bool FlightRecorder::dump(std::string_view reason,
                          std::string_view detail) const noexcept {
  try {
    std::string path;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      path = dump_path_;
    }
    std::ofstream out(path, std::ios::binary);
    if (!out) return false;
    out << postmortem_json(reason, detail);
    return bool(out);
  } catch (...) {  // aic-lint: allow(exc-catch-all): noexcept dump boundary
    return false;
  }
}

namespace {

FlightRecorder* g_flight_recorder = nullptr;
std::terminate_handler g_previous_terminate = nullptr;

void terminate_with_postmortem() {
  if (FlightRecorder* recorder = g_flight_recorder) {
    std::string detail = "(no active exception)";
    if (const std::exception_ptr ep = std::current_exception()) {
      try {
        std::rethrow_exception(ep);
      } catch (const std::exception& e) {
        detail = e.what();
      } catch (...) {  // aic-lint: allow(exc-catch-all): classifying, not hiding
        detail = "(non-standard exception)";
      }
    }
    recorder->dump("uncaught-exception", detail);
  }
  if (g_previous_terminate != nullptr) g_previous_terminate();
  // Terminate handlers must not return; if the chained handler somehow
  // did, end the process with the conventional SIGABRT-like status.
  std::_Exit(134);  // aic-lint: allow(abort-exit): terminate handlers must not return
}

}  // namespace

void FlightRecorder::install_terminate_hook(FlightRecorder* recorder) {
  g_flight_recorder = recorder;
  if (std::get_terminate() != &terminate_with_postmortem) {
    g_previous_terminate = std::set_terminate(&terminate_with_postmortem);
  }
}

void FlightRecorder::uninstall_terminate_hook() {
  g_flight_recorder = nullptr;
  if (std::get_terminate() == &terminate_with_postmortem &&
      g_previous_terminate != nullptr) {
    std::set_terminate(g_previous_terminate);
    g_previous_terminate = nullptr;
  }
}

}  // namespace aic::obs
