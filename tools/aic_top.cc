// aic_top — text dashboard over a recorded telemetry plane.
//
// Usage:
//   aic_top [--top K] [--follow [--delay-ms N]] <telemetry.json>
//   aic_top --demo [--jobs N] [--shards S] [--out DIR] [--top K]
//
// The first form reads a telemetry document exported by
// obs::telemetry_to_json (schema aic-telemetry-v1) and renders the fleet's
// health at the recording instant: per-tenant series sparklines, the SLO
// rule verdicts with burn rates, the recent SLO event tail, and the top-k
// slowest time-to-safe causal chains with their segment breakdowns —
// "where did the p99 actually go". --follow replays the recorded series
// history as successive frames (oldest to newest) before settling on the
// final dashboard; --delay-ms throttles the frames (0 = as fast as the
// terminal drains, the CI setting).
//
// --demo runs a multi-tenant fleet (default 1000 jobs) with telemetry and
// a few SLO rules attached, prints the dashboard, and with --out also
// writes DIR/telemetry.json ready to feed back through the first form.
//
// Exit status: 0 success, 1 malformed input, 2 usage or I/O error.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "file_io.h"
#include "fleet/fleet_scheduler.h"
#include "fleet/qos_policy.h"
#include "obs/names.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "workload/lanl_trace.h"

namespace {

namespace on = aic::obs::names;
using aic::obs::CausalChain;
using aic::obs::CausalSegment;
using aic::obs::SamplePoint;
using aic::obs::SloStatus;
using aic::obs::TelemetryDoc;
using aic::tools::read_file;
using aic::tools::write_file;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--top K] [--follow [--delay-ms N]] <telemetry.json>\n"
            << "       " << argv0
            << " --demo [--jobs N] [--shards S] [--out DIR] [--top K]\n";
  return 2;
}

/// 1234567.0 -> "1.2M" — compact engineering units for table cells.
std::string human(double v) {
  const char* suffix = "";
  double a = v < 0 ? -v : v;
  if (a >= 1e9) {
    v /= 1e9;
    suffix = "G";
  } else if (a >= 1e6) {
    v /= 1e6;
    suffix = "M";
  } else if (a >= 1e3) {
    v /= 1e3;
    suffix = "k";
  }
  std::ostringstream os;
  os.precision(v == 0.0 || (v >= 10 && !*suffix) ? 0 : 1);
  os << std::fixed << v << suffix;
  return os.str();
}

std::string seconds(double s) {
  std::ostringstream os;
  os.precision(s >= 100 ? 0 : 2);
  os << std::fixed << s << "s";
  return os.str();
}

/// Unicode block sparkline of the last `width` points, scaled min..max.
std::string sparkline(const std::vector<SamplePoint>& pts, std::size_t width) {
  static const char* kBlocks[] = {" ", "▁", "▂", "▃",
                                  "▄", "▅", "▆", "▇",
                                  "█"};
  if (pts.empty()) return std::string(width, '-');
  const std::size_t n = std::min(width, pts.size());
  const std::size_t first = pts.size() - n;
  double lo = pts[first].v, hi = pts[first].v;
  for (std::size_t i = first; i < pts.size(); ++i) {
    lo = std::min(lo, pts[i].v);
    hi = std::max(hi, pts[i].v);
  }
  std::string out;
  for (std::size_t i = first; i < pts.size(); ++i) {
    const double norm = hi > lo ? (pts[i].v - lo) / (hi - lo) : 0.5;
    out += kBlocks[std::size_t(norm * 8.0 + 0.5)];
  }
  return out;
}

const std::vector<SamplePoint>* find_series(const TelemetryDoc& doc,
                                            const std::string& name) {
  auto it = doc.series.find(name);
  return it == doc.series.end() ? nullptr : &it->second;
}

/// Points with t <= cutoff (the --follow frame truncation).
std::vector<SamplePoint> upto(const std::vector<SamplePoint>& pts,
                              double cutoff) {
  std::vector<SamplePoint> out;
  for (const SamplePoint& p : pts) {
    if (p.t <= cutoff) out.push_back(p);
  }
  return out;
}

/// Tenant ids present in the doc's fleet.tenant.<id>.* namespace.
std::vector<std::uint64_t> tenants_of(const TelemetryDoc& doc) {
  std::set<std::uint64_t> ids;
  const std::string prefix = "fleet.tenant.";
  for (const auto& [name, pts] : doc.series) {
    if (name.rfind(prefix, 0) != 0) continue;
    const std::size_t dot = name.find('.', prefix.size());
    if (dot == std::string::npos || dot == prefix.size()) continue;
    const std::string id = name.substr(prefix.size(), dot - prefix.size());
    if (id.find_first_not_of("0123456789") != std::string::npos) continue;
    ids.insert(std::stoull(id));
  }
  return {ids.begin(), ids.end()};
}

void render_tenants(const TelemetryDoc& doc, double cutoff,
                    std::ostream& out) {
  const std::vector<std::uint64_t> ids = tenants_of(doc);
  if (ids.empty()) {
    out << "  (no per-tenant series recorded)\n";
    return;
  }
  for (const std::uint64_t id : ids) {
    const std::string base = on::tenant_metric(id, "");
    auto last_of = [&](const char* field) -> std::optional<double> {
      const auto* pts = find_series(doc, base + field);
      if (pts == nullptr) return std::nullopt;
      const auto cut = upto(*pts, cutoff);
      if (cut.empty()) return std::nullopt;
      return cut.back().v;
    };
    const auto* goodput = find_series(doc, base + on::kTenantGoodputBps);
    const std::vector<SamplePoint> gp =
        goodput ? upto(*goodput, cutoff) : std::vector<SamplePoint>{};
    out << "  tenant " << id << "  goodput " << sparkline(gp, 24) << " "
        << human(gp.empty() ? 0.0 : gp.back().v) << "Bps";
    if (const auto v = last_of(on::kTenantCommits)) {
      out << "  commits " << human(*v);
    }
    if (const auto v = last_of(on::kTenantNet2Bytes)) {
      out << "  net2 " << human(*v) << "B";
    }
    const auto* tts =
        find_series(doc, base + std::string(on::kTenantTimeToSafeSeconds) +
                             ".p99");
    if (tts != nullptr) {
      const auto cut = upto(*tts, cutoff);
      if (!cut.empty()) out << "  tts.p99 " << seconds(cut.back().v);
    }
    out << "\n";
  }
}

void render_slo(const TelemetryDoc& doc, std::ostream& out) {
  if (doc.status.empty()) {
    out << "  (no SLO rules attached)\n";
    return;
  }
  for (const SloStatus& s : doc.status) {
    const char* verdict = !s.evaluated ? "  n/a  "
                          : s.breached  ? "BREACH "
                          : s.burning   ? "BURNING"
                                        : "  ok   ";
    out << "  [" << verdict << "] " << s.rule << ": " << s.series << " "
        << to_string(s.cmp) << " " << human(s.threshold);
    if (s.evaluated) {
      out << "  value " << human(s.value);
      if (s.burn_long > 0.0 || s.burn_short > 0.0) {
        out << "  burn " << human(s.burn_short) << "x/" << human(s.burn_long)
            << "x";
      }
      if (s.breaches > 0) out << "  breaches " << s.breaches;
      if (s.burn_alerts > 0) out << "  alerts " << s.burn_alerts;
    }
    out << "\n";
  }
}

void render_events(const TelemetryDoc& doc, double cutoff, std::size_t tail,
                   std::ostream& out) {
  std::vector<const aic::obs::SloEvent*> shown;
  for (const auto& e : doc.events) {
    if (e.t <= cutoff) shown.push_back(&e);
  }
  if (shown.empty()) {
    out << "  (none)\n";
    return;
  }
  const std::size_t first = shown.size() > tail ? shown.size() - tail : 0;
  for (std::size_t i = first; i < shown.size(); ++i) {
    const auto& e = *shown[i];
    out << "  t=" << seconds(e.t) << "  " << e.rule << " "
        << to_string(e.kind) << "  value " << human(e.value) << "\n";
  }
}

void render_chains(const TelemetryDoc& doc, std::size_t top_k,
                   std::ostream& out) {
  if (doc.slowest.empty()) {
    out << "  (no closed causal chains)\n";
    return;
  }
  const std::size_t n = std::min(top_k, doc.slowest.size());
  for (std::size_t i = 0; i < n; ++i) {
    const CausalChain& c = doc.slowest[i];
    out << "  " << (i + 1) << ". " << c.label << " (tenant " << c.tenant
        << ")  total " << seconds(c.total_s) << "  —  ";
    // Percent denominator: segments can legitimately over-account the
    // closer's total (a modeled capture pause runs concurrently with the
    // drain timeline), so scale against whichever is larger.
    const double denom = std::max(c.total_s, c.accounted());
    // Segments sorted largest-first; zero segments omitted.
    std::vector<std::size_t> order;
    for (std::size_t s = 0; s < aic::obs::kCausalSegmentCount; ++s) {
      if (c.seg[s] > 0.0) order.push_back(s);
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return c.seg[a] > c.seg[b];
    });
    bool first = true;
    for (const std::size_t s : order) {
      if (!first) out << " | ";
      first = false;
      const int pct = denom > 0.0 ? int(c.seg[s] / denom * 100.0 + 0.5) : 0;
      out << to_string(CausalSegment(s)) << " " << seconds(c.seg[s]) << " "
          << pct << "%";
    }
    if (c.unattributed() > 0.005 * std::max(1.0, c.total_s)) {
      out << (first ? "" : " | ") << "unattributed "
          << seconds(c.unattributed());
    }
    out << "\n";
  }
}

void render(const TelemetryDoc& doc, std::size_t top_k, std::ostream& out) {
  out << "aic_top — telemetry at virtual t=" << seconds(doc.now_s) << "  ("
      << doc.series.size() << " series, " << doc.rules.size()
      << " SLO rules, " << doc.events.size() << " retained events)\n";

  out << "\nfleet\n";
  for (const char* name : {on::kFleetGoodputBps, on::kFleetAdmissionDemandBps,
                           on::kFleetAdmissionQueueDepth}) {
    const auto* pts = find_series(doc, name);
    if (pts == nullptr || pts->empty()) continue;
    out << "  " << name << " " << sparkline(*pts, 32) << " "
        << human(pts->back().v) << "\n";
  }

  out << "\ntenants\n";
  render_tenants(doc, doc.now_s, out);
  out << "\nslo\n";
  render_slo(doc, out);
  out << "\nslo events (tail)\n";
  render_events(doc, doc.now_s, 8, out);
  out << "\nslowest time-to-safe chains\n";
  render_chains(doc, top_k, out);
}

void follow(const TelemetryDoc& doc, std::size_t top_k, int delay_ms,
            std::ostream& out) {
  // Frame cutoffs: the distinct sample times of the recorded series,
  // strided down to at most 30 frames.
  std::set<double> times;
  for (const auto& [name, pts] : doc.series) {
    for (const SamplePoint& p : pts) times.insert(p.t);
  }
  std::vector<double> cuts(times.begin(), times.end());
  const std::size_t stride = std::max<std::size_t>(1, cuts.size() / 30);
  for (std::size_t i = 0; i < cuts.size(); i += stride) {
    const double t = cuts[i];
    out << "--- frame t=" << seconds(t) << " ---\n";
    render_tenants(doc, t, out);
    if (delay_ms > 0) {
      out.flush();
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
  }
  out << "--- final ---\n";
  render(doc, top_k, out);
}

int run_demo(std::size_t jobs, int shards, const std::string& out_dir,
             std::size_t top_k) {
  aic::obs::Hub hub;
  aic::obs::Telemetry& tel = hub.enable_telemetry();
  // Threshold SLOs over the demo fleet: goodput floor (gauge), bounded
  // p99 time-to-safe with burn-rate windows, and an admission queue that
  // should stay shallow.
  tel.slo().add_rule(std::string(on::kFleetGoodputBps) + "-floor: " +
                     on::kFleetGoodputBps + " > 1.0");
  tel.slo().add_rule("tts-p99: " + std::string(on::kFleetTimeToSafeSeconds) +
                     ".p99 < 120 budget 0.1 burn 60/600 x1");
  tel.slo().add_rule("admission-queue: " +
                     std::string(on::kFleetAdmissionQueueDepth) +
                     " < 1 budget 0.25 burn 60/600 x2");

  aic::fleet::FleetConfig cfg;
  cfg.shards = shards;
  cfg.seed = 42;
  cfg.quantum_s = 5.0;
  cfg.bandwidth_bps = 2.0e7 * double(jobs);
  cfg.chunk_bytes = 4 * 1024 * 1024;
  cfg.lambda_total = 1.0e-3;
  cfg.restart_s = 10.0;
  cfg.min_interval_s = 15.0;
  cfg.max_interval_s = 600.0;
  cfg.max_virtual_s = 86400.0;
  cfg.admission.target_utilization = 0.7;
  cfg.admission.queue_capacity = jobs;
  cfg.obs = &hub;

  aic::workload::FleetMixConfig mix;
  mix.jobs = jobs;
  mix.tenants = 8;
  mix.seed = 42;
  mix.arrival_horizon_s = 300.0;
  mix.min_work_s = 60.0;
  mix.max_work_s = 600.0;
  mix.pages_per_process = 256;

  aic::fleet::QosPolicy policy;
  policy.set(aic::fleet::Tenant{0, "gold", {1.0, cfg.bandwidth_bps / 10.0}});

  aic::fleet::FleetScheduler fleet(cfg, aic::workload::lanl_fleet_jobs(mix),
                                   policy);
  fleet.run();

  const TelemetryDoc doc = tel.doc();
  render(doc, top_k, std::cout);

  if (!out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string path = out_dir + "/telemetry.json";
    if (!write_file(path, aic::obs::telemetry_to_json(doc))) {
      std::cerr << "error: cannot write " << path << "\n";
      return 2;
    }
    std::cout << "\nwrote " << path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool demo = false;
  bool do_follow = false;
  int delay_ms = 0;
  std::size_t top_k = 8;
  std::size_t jobs = 1000;
  int shards = 1;
  std::string out_dir;
  std::string input;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--demo") {
      demo = true;
    } else if (arg == "--follow") {
      do_follow = true;
    } else if (arg == "--delay-ms") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      delay_ms = std::atoi(v);
    } else if (arg == "--top") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      top_k = std::size_t(std::atoll(v));
    } else if (arg == "--jobs") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      jobs = std::size_t(std::atoll(v));
    } else if (arg == "--shards") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      shards = std::atoi(v);
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      out_dir = v;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (input.empty()) {
      input = arg;
    } else {
      return usage(argv[0]);
    }
  }

  try {
    if (demo) {
      if (!input.empty()) return usage(argv[0]);
      return run_demo(jobs, shards, out_dir, top_k);
    }
    if (input.empty()) return usage(argv[0]);
    const auto text = read_file(input);
    if (!text) {
      std::cerr << "error: cannot read " << input << "\n";
      return 2;
    }
    const TelemetryDoc doc = aic::obs::telemetry_from_json(*text);
    if (do_follow) {
      follow(doc, top_k, delay_ms, std::cout);
    } else {
      render(doc, top_k, std::cout);
    }
    return 0;
  } catch (const aic::CheckError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
