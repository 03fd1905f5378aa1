#include "obs/slo.h"

#include <cmath>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "obs/json.h"

namespace aic::obs {

const char* to_string(SloComparison c) {
  switch (c) {
    case SloComparison::kLt:
      return "<";
    case SloComparison::kLe:
      return "<=";
    case SloComparison::kGt:
      return ">";
    case SloComparison::kGe:
      return ">=";
  }
  return "?";
}

const char* to_string(SloEvent::Kind k) {
  switch (k) {
    case SloEvent::Kind::kBreach:
      return "breach";
    case SloEvent::Kind::kRecover:
      return "recover";
    case SloEvent::Kind::kBurnAlert:
      return "burn-alert";
    case SloEvent::Kind::kBurnClear:
      return "burn-clear";
  }
  return "?";
}

void append_json(std::ostream& os, const SloEvent& e) {
  os << "{\"rule\":\"" << json_escape(e.rule) << "\",\"kind\":\""
     << to_string(e.kind) << "\",\"t\":" << json_number(e.t)
     << ",\"value\":" << json_number(e.value)
     << ",\"burn_short\":" << json_number(e.burn_short)
     << ",\"burn_long\":" << json_number(e.burn_long) << "}";
}

bool SloRule::good(double value) const {
  switch (cmp) {
    case SloComparison::kLt:
      return value < threshold;
    case SloComparison::kLe:
      return value <= threshold;
    case SloComparison::kGt:
      return value > threshold;
    case SloComparison::kGe:
      return value >= threshold;
  }
  return false;
}

namespace {

double parse_double(const std::string& tok, std::string_view what,
                    std::string_view text) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(tok, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  AIC_CHECK_MSG(used == tok.size() && std::isfinite(v),
                "SLO rule '" << text << "': bad " << what << " '" << tok
                             << "'");
  return v;
}

}  // namespace

SloRule parse_slo_rule(std::string_view text) {
  std::istringstream in{std::string(text)};
  SloRule r;
  std::string tok;

  AIC_CHECK_MSG(in >> tok && tok.size() > 1 && tok.back() == ':',
                "SLO rule '" << text << "': expected '<name>:' first");
  r.name = tok.substr(0, tok.size() - 1);
  AIC_CHECK_MSG(in >> r.series,
                "SLO rule '" << text << "': missing series name");

  AIC_CHECK_MSG(in >> tok, "SLO rule '" << text << "': missing comparison");
  if (tok == "<") {
    r.cmp = SloComparison::kLt;
  } else if (tok == "<=") {
    r.cmp = SloComparison::kLe;
  } else if (tok == ">") {
    r.cmp = SloComparison::kGt;
  } else if (tok == ">=") {
    r.cmp = SloComparison::kGe;
  } else {
    AIC_CHECK_MSG(false, "SLO rule '" << text << "': bad comparison '" << tok
                                      << "' (want < <= > >=)");
  }

  AIC_CHECK_MSG(in >> tok, "SLO rule '" << text << "': missing threshold");
  r.threshold = parse_double(tok, "threshold", text);

  while (in >> tok) {
    if (tok == "budget") {
      AIC_CHECK_MSG(in >> tok, "SLO rule '" << text
                                            << "': budget needs a fraction");
      r.error_budget = parse_double(tok, "budget", text);
      AIC_CHECK_MSG(r.error_budget > 0.0 && r.error_budget <= 1.0,
                    "SLO rule '" << text << "': budget must be in (0, 1]");
    } else if (tok == "burn") {
      AIC_CHECK_MSG(in >> tok,
                    "SLO rule '" << text << "': burn needs '<short>/<long>'");
      const std::size_t slash = tok.find('/');
      AIC_CHECK_MSG(slash != std::string::npos && slash > 0 &&
                        slash + 1 < tok.size(),
                    "SLO rule '" << text << "': burn windows must be "
                                 << "'<short>/<long>', got '" << tok << "'");
      r.short_window_s = parse_double(tok.substr(0, slash), "burn short "
                                      "window", text);
      r.long_window_s =
          parse_double(tok.substr(slash + 1), "burn long window", text);
      AIC_CHECK_MSG(r.short_window_s > 0.0 &&
                        r.long_window_s >= r.short_window_s,
                    "SLO rule '" << text
                                 << "': burn windows must satisfy "
                                    "0 < short <= long");
      AIC_CHECK_MSG(in >> tok && tok.size() > 1 && tok.front() == 'x',
                    "SLO rule '" << text << "': burn needs 'x<factor>'");
      r.burn_factor = parse_double(tok.substr(1), "burn factor", text);
      AIC_CHECK_MSG(r.burn_factor > 0.0,
                    "SLO rule '" << text << "': burn factor must be > 0");
    } else {
      AIC_CHECK_MSG(false,
                    "SLO rule '" << text << "': unknown clause '" << tok
                                 << "' (want budget|burn)");
    }
  }
  return r;
}

std::string to_string(const SloRule& r) {
  std::ostringstream os;
  os << r.name << ": " << r.series << " " << to_string(r.cmp) << " "
     << json_number(r.threshold) << " budget " << json_number(r.error_budget);
  if (r.burn_enabled()) {
    os << " burn " << json_number(r.short_window_s) << "/"
       << json_number(r.long_window_s) << " x" << json_number(r.burn_factor);
  }
  return os.str();
}

SloEngine::SloEngine(std::size_t event_capacity) : events_(event_capacity) {
  AIC_CHECK_MSG(event_capacity >= 1, "SLO event capacity must be >= 1");
}

void SloEngine::add_rule(SloRule rule) {
  AIC_CHECK_MSG(!rule.name.empty() && !rule.series.empty(),
                "SLO rule needs a name and a series");
  for (const RuleState& s : rules_) {
    AIC_CHECK_MSG(s.rule.name != rule.name,
                  "duplicate SLO rule '" << rule.name << "'");
  }
  rules_.push_back(RuleState{std::move(rule), false, false, false, 0.0, 0.0,
                             0.0, 0, 0});
}

std::vector<SloRule> SloEngine::rules() const {
  std::vector<SloRule> out;
  out.reserve(rules_.size());
  for (const RuleState& s : rules_) out.push_back(s.rule);
  return out;
}

double SloEngine::burn_rate(const Series& s, const SloRule& r, double now_s,
                            double window_s) {
  std::size_t n = 0, bad = 0;
  for (const SamplePoint& p : s.points_in(now_s - window_s, now_s)) {
    ++n;
    bad += r.good(p.v) ? 0 : 1;
  }
  if (n == 0) return 0.0;
  return (double(bad) / double(n)) / r.error_budget;
}

std::vector<SloEvent> SloEngine::evaluate(const TimeseriesStore& store,
                                          double now_s) {
  ++evaluations_;
  std::vector<SloEvent> out;
  for (RuleState& st : rules_) {
    const Series* s = store.find(st.rule.series);
    if (s == nullptr || s->empty()) {
      st.evaluated = false;
      continue;
    }
    st.evaluated = true;
    st.value = s->last().v;
    const bool breached = !st.rule.good(st.value);
    if (st.rule.burn_enabled()) {
      st.burn_short = burn_rate(*s, st.rule, now_s, st.rule.short_window_s);
      st.burn_long = burn_rate(*s, st.rule, now_s, st.rule.long_window_s);
    }
    const bool burning =
        st.rule.burn_enabled() && st.burn_short >= st.rule.burn_factor &&
        st.burn_long >= st.rule.burn_factor;

    if (breached != st.breached) {
      st.breached = breached;
      if (breached) ++st.breaches;
      out.push_back({st.rule.name,
                     breached ? SloEvent::Kind::kBreach
                              : SloEvent::Kind::kRecover,
                     now_s, st.value, st.burn_short, st.burn_long});
    }
    if (burning != st.burning) {
      st.burning = burning;
      if (burning) ++st.burn_alerts;
      out.push_back({st.rule.name,
                     burning ? SloEvent::Kind::kBurnAlert
                             : SloEvent::Kind::kBurnClear,
                     now_s, st.value, st.burn_short, st.burn_long});
    }
  }
  for (const SloEvent& e : out) events_.push(e);
  return out;
}

std::vector<SloStatus> SloEngine::status() const {
  std::vector<SloStatus> out;
  out.reserve(rules_.size());
  for (const RuleState& st : rules_) {
    SloStatus s;
    s.rule = st.rule.name;
    s.series = st.rule.series;
    s.evaluated = st.evaluated;
    s.breached = st.breached;
    s.burning = st.burning;
    s.value = st.value;
    s.threshold = st.rule.threshold;
    s.cmp = st.rule.cmp;
    s.burn_short = st.burn_short;
    s.burn_long = st.burn_long;
    s.breaches = st.breaches;
    s.burn_alerts = st.burn_alerts;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace aic::obs
