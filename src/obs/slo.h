// Declarative SLO rules over the telemetry time-series: thresholds plus
// multi-window burn-rate alerting.
//
// A rule binds one series to a comparison, in the textual grammar
//
//   <rule-name>: <series> <op> <threshold> [budget <frac>] [burn <S>/<L> x<F>]
//
//   tts-p99:  fleet.time_to_safe_seconds.p99 < 0.5
//   goodput:  fleet.tenant.0.goodput_bps >= 9e7 budget 0.05 burn 60/600 x2
//
// with op one of < <= > >=. The threshold alone defines "good": a sample
// violating the comparison is a *breach* (edge-triggered kBreach/kRecover
// events on the newest sample). The optional burn clause adds the
// SRE-style error-budget view: `budget f` allows a fraction f of samples
// to be bad (default 0.01); over a window W the burn rate is
//
//   burn(W) = bad_fraction(W) / budget
//
// — 1.0 means the budget is being consumed exactly at its sustainable
// pace, x means x times too fast. The alert fires (kBurnAlert) only while
// BOTH the short and the long window burn at >= F: the short window makes
// the alert fast to clear when the incident ends, the long window keeps a
// brief blip from paging at all. kBurnClear marks the edge back down.
//
// Evaluation is a pure read of the TimeseriesStore — deterministic, no
// clocks — so an SLO engine attached to the fleet scheduler provably
// cannot perturb its timeline. Events are retained in a bounded ring and
// also fan out to the flight recorder and trace log via obs::Telemetry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/ring.h"
#include "obs/timeseries.h"

namespace aic::obs {

enum class SloComparison : std::uint8_t { kLt = 0, kLe, kGt, kGe };

const char* to_string(SloComparison c);

struct SloRule {
  std::string name;
  std::string series;
  SloComparison cmp = SloComparison::kLt;
  double threshold = 0.0;
  /// Fraction of samples allowed to violate the threshold (error budget).
  double error_budget = 0.01;
  /// Burn-rate windows (seconds); 0 disables burn alerting for this rule.
  double short_window_s = 0.0;
  double long_window_s = 0.0;
  /// Alert while burn(short) and burn(long) are both >= this factor.
  double burn_factor = 1.0;

  bool burn_enabled() const { return long_window_s > 0.0; }
  /// True when `value` satisfies the comparison (is "good").
  bool good(double value) const;
};

/// Parses the rule grammar above; throws aic::CheckError naming the defect
/// on malformed input.
SloRule parse_slo_rule(std::string_view text);
/// Round-trippable textual form (parse_slo_rule(to_string(r)) == r).
std::string to_string(const SloRule& r);

struct SloEvent {
  enum class Kind : std::uint8_t {
    kBreach = 0,   // newest sample turned bad
    kRecover,      // newest sample turned good again
    kBurnAlert,    // both burn windows crossed the factor
    kBurnClear,    // burn alert condition ended
  };
  std::string rule;
  Kind kind = Kind::kBreach;
  double t = 0.0;
  double value = 0.0;  // newest sample at the time of the event
  double burn_short = 0.0;
  double burn_long = 0.0;
};

const char* to_string(SloEvent::Kind k);
/// Writes `e` as the one JSON object both the telemetry document and the
/// postmortem carry: {"rule","kind","t","value","burn_short","burn_long"}.
void append_json(std::ostream& os, const SloEvent& e);

/// Point-in-time verdict per rule (for dashboards and postmortems).
struct SloStatus {
  std::string rule;
  std::string series;
  bool evaluated = false;  // series had at least one sample
  bool breached = false;
  bool burning = false;
  double value = 0.0;
  double threshold = 0.0;
  SloComparison cmp = SloComparison::kLt;
  double burn_short = 0.0;
  double burn_long = 0.0;
  std::uint64_t breaches = 0;     // kBreach edges so far
  std::uint64_t burn_alerts = 0;  // kBurnAlert edges so far
};

class SloEngine {
 public:
  static constexpr std::size_t kDefaultEventCapacity = 1024;

  explicit SloEngine(std::size_t event_capacity = kDefaultEventCapacity);

  void add_rule(SloRule rule);
  void add_rule(std::string_view text) { add_rule(parse_slo_rule(text)); }
  std::size_t rule_count() const { return rules_.size(); }
  std::vector<SloRule> rules() const;

  /// Evaluates every rule against the store at virtual time now_s and
  /// returns the newly emitted (edge-triggered) events. Rules whose series
  /// is absent or empty are skipped (evaluated = false in status()).
  std::vector<SloEvent> evaluate(const TimeseriesStore& store, double now_s);

  std::vector<SloStatus> status() const;
  /// Retained events, oldest -> newest (bounded ring).
  std::vector<SloEvent> events() const { return events_.items(); }
  std::uint64_t total_events() const { return events_.pushed(); }
  std::uint64_t evaluations() const { return evaluations_; }

 private:
  struct RuleState {
    SloRule rule;
    bool evaluated = false;
    bool breached = false;
    bool burning = false;
    double value = 0.0;
    double burn_short = 0.0;
    double burn_long = 0.0;
    std::uint64_t breaches = 0;
    std::uint64_t burn_alerts = 0;
  };

  /// bad_fraction over [now - window, now] divided by the budget.
  static double burn_rate(const Series& s, const SloRule& r, double now_s,
                          double window_s);

  std::vector<RuleState> rules_;
  common::Ring<SloEvent> events_;
  std::uint64_t evaluations_ = 0;
};

}  // namespace aic::obs
