#include "obs/telemetry.h"

#include <sstream>
#include <utility>

#include "common/check.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace aic::obs {
namespace on = names;

Telemetry::Telemetry(Hub& hub)
    : hub_(hub), sampler_(&hub.metrics, &store_) {
  m_evaluations_ = hub_.metrics.counter(on::kSloEvaluations);
  m_events_ = hub_.metrics.counter(on::kSloEvents);
  m_breaches_ = hub_.metrics.counter(on::kSloBreaches);
  m_burn_alerts_ = hub_.metrics.counter(on::kSloBurnAlerts);
}

std::vector<SloEvent> Telemetry::tick(double now_s) {
  sampler_.sample(now_s);
  std::vector<SloEvent> events = slo_.evaluate(store_, now_s);
  m_evaluations_->add();
  m_events_->add(events.size());

  for (const SloStatus& st : slo_.status()) {
    if (!st.evaluated) continue;
    auto it = rule_gauges_.find(st.rule);
    if (it == rule_gauges_.end()) {
      RuleGauges g;
      g.ok = hub_.metrics.gauge(on::slo_metric(st.rule, on::kSloRuleOk));
      g.value = hub_.metrics.gauge(on::slo_metric(st.rule, on::kSloRuleValue));
      g.burn_short =
          hub_.metrics.gauge(on::slo_metric(st.rule, on::kSloRuleBurnShort));
      g.burn_long =
          hub_.metrics.gauge(on::slo_metric(st.rule, on::kSloRuleBurnLong));
      it = rule_gauges_.emplace(st.rule, g).first;
    }
    it->second.ok->set(st.breached || st.burning ? 0.0 : 1.0);
    it->second.value->set(st.value);
    it->second.burn_short->set(st.burn_short);
    it->second.burn_long->set(st.burn_long);
  }

  FlightRecorder* flight = hub_.flight();
  for (const SloEvent& e : events) {
    if (e.kind == SloEvent::Kind::kBreach) m_breaches_->add();
    if (e.kind == SloEvent::Kind::kBurnAlert) m_burn_alerts_->add();
    hub_.trace.instant(TimeDomain::kVirtual, on::kCatSlo, to_string(e.kind),
                       e.t, 0,
                       {{"value", e.value},
                        {"burn_short", e.burn_short},
                        {"burn_long", e.burn_long}});
    if (flight) flight->record_slo(e);
  }

  ++ticks_;
  last_tick_s_ = now_s;
  return events;
}

TelemetryDoc Telemetry::doc() const {
  TelemetryDoc d;
  d.now_s = last_tick_s_;
  for (const std::string& name : store_.names()) {
    if (const Series* s = store_.find(name)) d.series[name] = s->points();
  }
  d.rules = slo_.rules();
  d.status = slo_.status();
  d.events = slo_.events();
  d.slowest = causal_.slowest();
  d.recent = causal_.recent();
  return d;
}

namespace {

void append_chain(std::ostringstream& os, const CausalChain& c) {
  os << "{\"label\":\"" << json_escape(c.label) << "\",\"tenant\":" << c.tenant
     << ",\"total_s\":" << json_number(c.total_s)
     << ",\"aborted\":" << (c.aborted ? "true" : "false") << ",\"seg\":{";
  for (std::size_t i = 0; i < kCausalSegmentCount; ++i) {
    if (i) os << ",";
    os << "\"" << to_string(CausalSegment(i))
       << "\":" << json_number(c.seg[i]);
  }
  os << "}}";
}

void append_event(std::ostringstream& os, const SloEvent& e) {
  os << "{\"rule\":\"" << json_escape(e.rule) << "\",\"kind\":\""
     << to_string(e.kind) << "\",\"t\":" << json_number(e.t)
     << ",\"value\":" << json_number(e.value)
     << ",\"burn_short\":" << json_number(e.burn_short)
     << ",\"burn_long\":" << json_number(e.burn_long) << "}";
}

void append_status(std::ostringstream& os, const SloStatus& s) {
  os << "{\"rule\":\"" << json_escape(s.rule) << "\",\"series\":\""
     << json_escape(s.series) << "\",\"evaluated\":"
     << (s.evaluated ? "true" : "false")
     << ",\"breached\":" << (s.breached ? "true" : "false")
     << ",\"burning\":" << (s.burning ? "true" : "false")
     << ",\"value\":" << json_number(s.value)
     << ",\"threshold\":" << json_number(s.threshold) << ",\"cmp\":\""
     << to_string(s.cmp) << "\",\"burn_short\":" << json_number(s.burn_short)
     << ",\"burn_long\":" << json_number(s.burn_long)
     << ",\"breaches\":" << s.breaches << ",\"burn_alerts\":" << s.burn_alerts
     << "}";
}

SloComparison cmp_from(std::string_view s, std::string_view where) {
  if (s == "<") return SloComparison::kLt;
  if (s == "<=") return SloComparison::kLe;
  if (s == ">") return SloComparison::kGt;
  if (s == ">=") return SloComparison::kGe;
  AIC_CHECK_MSG(false, where << ": bad comparison '" << s << "'");
  return SloComparison::kLt;
}

SloEvent::Kind kind_from(std::string_view s) {
  if (s == "breach") return SloEvent::Kind::kBreach;
  if (s == "recover") return SloEvent::Kind::kRecover;
  if (s == "burn-alert") return SloEvent::Kind::kBurnAlert;
  if (s == "burn-clear") return SloEvent::Kind::kBurnClear;
  AIC_CHECK_MSG(false, "telemetry JSON: bad SLO event kind '" << s << "'");
  return SloEvent::Kind::kBreach;
}

std::string require_string(const JsonValue& v, std::string_view key) {
  const JsonValue& f = v.at(key);
  AIC_CHECK_MSG(f.is(JsonValue::Kind::kString),
                "telemetry JSON: '" << key << "' must be a string");
  return f.str;
}

bool require_bool(const JsonValue& v, std::string_view key) {
  const JsonValue& f = v.at(key);
  AIC_CHECK_MSG(f.is(JsonValue::Kind::kBool),
                "telemetry JSON: '" << key << "' must be a boolean");
  return f.boolean;
}

CausalChain chain_from(const JsonValue& v) {
  CausalChain c;
  c.label = require_string(v, "label");
  c.tenant = std::uint64_t(v.at("tenant").as_number());
  c.total_s = v.at("total_s").as_number();
  c.aborted = require_bool(v, "aborted");
  c.closed = true;
  const JsonValue& seg = v.at("seg");
  for (std::size_t i = 0; i < kCausalSegmentCount; ++i) {
    if (const JsonValue* f = seg.find(to_string(CausalSegment(i)))) {
      c.seg[i] = f->as_number();
    }
  }
  return c;
}

}  // namespace

std::string telemetry_to_json(const TelemetryDoc& doc) {
  std::ostringstream os;
  os << "{\"schema\":\"" << kTelemetrySchema
     << "\",\"now_s\":" << json_number(doc.now_s) << ",\"series\":{";
  bool first = true;
  for (const auto& [name, points] : doc.series) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":[";
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (i) os << ",";
      os << "[" << json_number(points[i].t) << ","
         << json_number(points[i].v) << "]";
    }
    os << "]";
  }
  os << "},\"slo\":{\"rules\":[";
  for (std::size_t i = 0; i < doc.rules.size(); ++i) {
    if (i) os << ",";
    os << "\"" << json_escape(to_string(doc.rules[i])) << "\"";
  }
  os << "],\"status\":[";
  for (std::size_t i = 0; i < doc.status.size(); ++i) {
    if (i) os << ",";
    append_status(os, doc.status[i]);
  }
  os << "],\"events\":[";
  for (std::size_t i = 0; i < doc.events.size(); ++i) {
    if (i) os << ",";
    append_event(os, doc.events[i]);
  }
  os << "]},\"chains\":{\"slowest\":[";
  for (std::size_t i = 0; i < doc.slowest.size(); ++i) {
    if (i) os << ",";
    append_chain(os, doc.slowest[i]);
  }
  os << "],\"recent\":[";
  for (std::size_t i = 0; i < doc.recent.size(); ++i) {
    if (i) os << ",";
    append_chain(os, doc.recent[i]);
  }
  os << "]}}";
  return os.str();
}

TelemetryDoc telemetry_from_json(std::string_view json) {
  const JsonValue root = json_parse(json);
  AIC_CHECK_MSG(root.is(JsonValue::Kind::kObject),
                "telemetry JSON root must be an object");
  AIC_CHECK_MSG(require_string(root, "schema") == kTelemetrySchema,
                "telemetry JSON: unknown schema (want " << kTelemetrySchema
                                                        << ")");
  TelemetryDoc doc;
  doc.now_s = root.at("now_s").as_number();
  for (const auto& [name, pts] : root.at("series").object) {
    AIC_CHECK_MSG(pts.is(JsonValue::Kind::kArray),
                  "telemetry JSON: series '" << name << "' must be an array");
    std::vector<SamplePoint>& out = doc.series[name];
    for (const JsonValue& p : pts.array) {
      AIC_CHECK_MSG(p.is(JsonValue::Kind::kArray) && p.array.size() == 2,
                    "telemetry JSON: series '" << name
                                               << "' points must be [t, v]");
      out.push_back({p.array[0].as_number(), p.array[1].as_number()});
    }
  }
  const JsonValue& slo = root.at("slo");
  for (const JsonValue& r : slo.at("rules").array) {
    AIC_CHECK_MSG(r.is(JsonValue::Kind::kString),
                  "telemetry JSON: rules must be strings");
    doc.rules.push_back(parse_slo_rule(r.str));
  }
  for (const JsonValue& v : slo.at("status").array) {
    SloStatus s;
    s.rule = require_string(v, "rule");
    s.series = require_string(v, "series");
    s.evaluated = require_bool(v, "evaluated");
    s.breached = require_bool(v, "breached");
    s.burning = require_bool(v, "burning");
    s.value = v.at("value").as_number();
    s.threshold = v.at("threshold").as_number();
    s.cmp = cmp_from(require_string(v, "cmp"), "telemetry JSON status");
    s.burn_short = v.at("burn_short").as_number();
    s.burn_long = v.at("burn_long").as_number();
    s.breaches = std::uint64_t(v.at("breaches").as_number());
    s.burn_alerts = std::uint64_t(v.at("burn_alerts").as_number());
    doc.status.push_back(std::move(s));
  }
  for (const JsonValue& v : slo.at("events").array) {
    SloEvent e;
    e.rule = require_string(v, "rule");
    e.kind = kind_from(require_string(v, "kind"));
    e.t = v.at("t").as_number();
    e.value = v.at("value").as_number();
    e.burn_short = v.at("burn_short").as_number();
    e.burn_long = v.at("burn_long").as_number();
    doc.events.push_back(std::move(e));
  }
  const JsonValue& chains = root.at("chains");
  for (const JsonValue& v : chains.at("slowest").array) {
    doc.slowest.push_back(chain_from(v));
  }
  for (const JsonValue& v : chains.at("recent").array) {
    doc.recent.push_back(chain_from(v));
  }
  return doc;
}

}  // namespace aic::obs
