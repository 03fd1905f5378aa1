// The assembled telemetry plane: one TimeseriesStore + Sampler + SloEngine
// + CausalLog hanging off an obs::Hub, ticked from a virtual clock.
//
// Enable with Hub::enable_telemetry() (trace.h), then drive tick(now_s)
// from the simulation's own timeline — the fleet scheduler ticks at round
// boundaries, the failure simulator at checkpoint boundaries. Each tick:
//
//   1. samples the hub's MetricsRegistry into the store (timeseries.h);
//   2. evaluates every SLO rule against the store (slo.h);
//   3. publishes the verdicts back as `fleet.slo.<rule>.*` gauges and
//      counters (so SLO health is itself a sampled series), emits one
//      trace instant per event (category "slo"), and forwards events to
//      the flight recorder's SLO ring when one is attached — a mid-drain
//      postmortem then names the SLO state at death.
//
// Everything is a pure *read* of the instrumented run (the SLO gauges land
// in the registry, never in any simulation state), so attaching telemetry
// provably cannot perturb a deterministic timeline — the fleet digest
// tests pin that.
//
// doc() freezes the whole plane into a TelemetryDoc; telemetry_to_json /
// telemetry_from_json round-trip it as schema "aic-telemetry-v1", the
// recorded-run format tools/aic_top renders and replays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/causal.h"
#include "obs/slo.h"
#include "obs/timeseries.h"

namespace aic::obs {

struct Hub;
class Gauge;
class Counter;

inline constexpr const char kTelemetrySchema[] = "aic-telemetry-v1";

/// The frozen view of a telemetry plane (and the parse result of a
/// recorded run).
struct TelemetryDoc {
  double now_s = 0.0;
  std::map<std::string, std::vector<SamplePoint>> series;
  std::vector<SloRule> rules;
  std::vector<SloStatus> status;
  std::vector<SloEvent> events;
  std::vector<CausalChain> slowest;
  std::vector<CausalChain> recent;
};

std::string telemetry_to_json(const TelemetryDoc& doc);
/// Inverse of telemetry_to_json; throws aic::CheckError on malformed or
/// schema-violating input.
TelemetryDoc telemetry_from_json(std::string_view json);

class Telemetry {
 public:
  /// Every part at its defaults: TimeseriesStore::kDefaultCapacity points
  /// per series, SloEngine::kDefaultEventCapacity events.
  explicit Telemetry(Hub& hub);

  TimeseriesStore& store() { return store_; }
  const TimeseriesStore& store() const { return store_; }
  Sampler& sampler() { return sampler_; }
  SloEngine& slo() { return slo_; }
  const SloEngine& slo() const { return slo_; }
  CausalLog& causal() { return causal_; }
  const CausalLog& causal() const { return causal_; }

  /// One telemetry round at virtual time now_s (see file comment).
  /// Returns the SLO events emitted this tick.
  std::vector<SloEvent> tick(double now_s);

  std::uint64_t ticks() const { return ticks_; }
  double last_tick_s() const { return last_tick_s_; }

  TelemetryDoc doc() const;

 private:
  Hub& hub_;
  TimeseriesStore store_;
  Sampler sampler_;
  SloEngine slo_;
  CausalLog causal_;
  std::uint64_t ticks_ = 0;
  double last_tick_s_ = 0.0;
  Counter* m_evaluations_ = nullptr;
  Counter* m_events_ = nullptr;
  Counter* m_breaches_ = nullptr;
  Counter* m_burn_alerts_ = nullptr;
  /// Per-rule gauge handles (ok, value, burn_short, burn_long), resolved
  /// lazily at first publish and cached.
  struct RuleGauges {
    Gauge* ok = nullptr;
    Gauge* value = nullptr;
    Gauge* burn_short = nullptr;
    Gauge* burn_long = nullptr;
  };
  std::map<std::string, RuleGauges> rule_gauges_;
};

}  // namespace aic::obs
