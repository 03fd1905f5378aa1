// aic_benchdiff — noise-aware comparison of benchmark telemetry records.
//
// Usage:
//   aic_benchdiff [options] <baseline> <current>
//   aic_benchdiff --check <path>...
//
// <baseline> and <current> are either single BENCH_<target>.json files
// (written by bench::Session) or directories holding any number of them;
// directory pairs are matched by filename. Metrics are paired by name and
// judged with a bootstrap confidence interval over the recorded samples —
// a metric is only flagged when its whole 95% CI clears the threshold, so
// single noisy samples don't page anyone. --check just validates that
// every named record parses against the aic-bench-v1 schema.
//
// Options:
//   --threshold T   relative-change threshold (default 0.10)
//   --bootstrap N   bootstrap resample count (default 500)
//   --seed S        bootstrap RNG seed (default 42)
//   --all           print neutral metrics too (default: changes only)
//   --check         validate records instead of diffing
//
// Exit status: 0 no regressions, 1 at least one regression (named on
// stdout), 2 usage, I/O or parse error.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/table.h"
#include "file_io.h"
#include "obs/bench_diff.h"
#include "obs/bench_record.h"

namespace {

namespace fs = std::filesystem;
using aic::tools::read_file;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--threshold T] [--bootstrap N] [--seed S] [--all]"
            << " <baseline> <current>\n"
            << "       " << argv0 << " --check <path>...\n";
  return 2;
}

/// Collects BENCH record paths keyed by filename: a directory contributes
/// every BENCH_*.json inside it, a plain file contributes itself.
std::map<std::string, std::string> collect_records(const std::string& path,
                                                   bool* ok) {
  std::map<std::string, std::string> out;
  *ok = true;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    for (const auto& entry : fs::directory_iterator(path, ec)) {
      if (!entry.is_regular_file()) continue;
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) == 0 &&
          name.size() > 5 + 6 &&
          name.compare(name.size() - 5, 5, ".json") == 0) {
        out[name] = entry.path().string();
      }
    }
    if (ec) *ok = false;
  } else if (fs::is_regular_file(path, ec)) {
    out[fs::path(path).filename().string()] = path;
  } else {
    *ok = false;
  }
  return out;
}

std::optional<aic::obs::BenchRecord> load_record(const std::string& path) {
  const auto text = read_file(path);
  if (!text) {
    std::cerr << "aic_benchdiff: cannot read " << path << "\n";
    return std::nullopt;
  }
  try {
    return aic::obs::bench_record_from_json(*text);
  } catch (const aic::CheckError& e) {
    std::cerr << "aic_benchdiff: " << path << ": " << e.what() << "\n";
    return std::nullopt;
  }
}

std::string fmt_value(double v) {
  // Benchmark values span ~12 orders of magnitude (seconds/iter to B/s);
  // fixed precision either truncates or drowns, so pick per magnitude.
  const double a = std::abs(v);
  if (a != 0.0 && (a < 1e-3 || a >= 1e6)) {
    std::ostringstream os;
    os.precision(3);
    os << std::scientific << v;
    return os.str();
  }
  return aic::TextTable::num(v, a < 1.0 ? 4 : 3);
}

int run_check(const std::vector<std::string>& paths) {
  int records = 0;
  for (const std::string& arg : paths) {
    bool ok = false;
    const auto found = collect_records(arg, &ok);
    if (!ok || found.empty()) {
      std::cerr << "aic_benchdiff: no bench records at " << arg << "\n";
      return 2;
    }
    for (const auto& [name, path] : found) {
      const auto rec = load_record(path);
      if (!rec) return 2;
      std::cout << "ok: " << path << " (" << rec->target << ", "
                << rec->metrics.size() << " metric(s))\n";
      ++records;
    }
  }
  std::cout << records << " record(s) valid\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  aic::obs::DiffOptions opt;
  bool show_all = false;
  bool check_only = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](double* out) {
      if (++i >= argc) return false;
      try {
        *out = std::stod(argv[i]);
      } catch (...) {
        return false;
      }
      return true;
    };
    if (arg == "--threshold") {
      double v;
      if (!next_value(&v) || v <= 0.0) return usage(argv[0]);
      opt.threshold = v;
    } else if (arg == "--bootstrap") {
      double v;
      if (!next_value(&v) || v < 1.0) return usage(argv[0]);
      opt.bootstrap_iterations = int(v);
    } else if (arg == "--seed") {
      double v;
      if (!next_value(&v)) return usage(argv[0]);
      opt.seed = std::uint64_t(v);
    } else if (arg == "--all") {
      show_all = true;
    } else if (arg == "--check") {
      check_only = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      paths.push_back(arg);
    }
  }

  if (check_only) {
    if (paths.empty()) return usage(argv[0]);
    return run_check(paths);
  }
  if (paths.size() != 2) return usage(argv[0]);

  bool base_ok = false, cur_ok = false;
  const auto base_paths = collect_records(paths[0], &base_ok);
  const auto cur_paths = collect_records(paths[1], &cur_ok);
  if (!base_ok || base_paths.empty()) {
    std::cerr << "aic_benchdiff: no bench records at " << paths[0] << "\n";
    return 2;
  }
  if (!cur_ok || cur_paths.empty()) {
    std::cerr << "aic_benchdiff: no bench records at " << paths[1] << "\n";
    return 2;
  }

  int regressions = 0, improvements = 0, neutral = 0, unpaired = 0;
  std::vector<std::string> regressed_names;

  for (const auto& [name, cur_path] : cur_paths) {
    const auto base_it = base_paths.find(name);
    if (base_it == base_paths.end()) {
      std::cout << "note: " << name << " only in current — skipped\n";
      ++unpaired;
      continue;
    }
    const auto base = load_record(base_it->second);
    const auto cur = load_record(cur_path);
    if (!base || !cur) return 2;

    const aic::obs::RecordDiff diff = aic::obs::diff_records(*base, *cur, opt);
    regressions += diff.regressions;
    improvements += diff.improvements;
    neutral += diff.neutral;

    if (diff.provenance_mismatch) {
      std::cerr << "warning: " << diff.target
                << ": baseline and current builds differ ("
                << base->build.compiler << "/" << base->build.build_type
                << "/" << (base->build.sanitizer.empty()
                               ? "no-sanitizer"
                               : base->build.sanitizer)
                << " vs " << cur->build.compiler << "/"
                << cur->build.build_type << "/"
                << (cur->build.sanitizer.empty() ? "no-sanitizer"
                                                 : cur->build.sanitizer)
                << ") — medians may not be comparable\n";
    }

    aic::TextTable table("benchdiff — " + diff.target);
    table.set_header({"metric", "unit", "baseline", "current", "change",
                      "badness CI", "verdict"});
    bool any_row = false;
    for (const aic::obs::MetricDiff& m : diff.metrics) {
      const bool changed =
          m.verdict != aic::obs::DiffVerdict::kNeutral;
      if (!changed && !show_all) continue;
      any_row = true;
      std::string ci("-");
      if (m.verdict == aic::obs::DiffVerdict::kRegression ||
          m.verdict == aic::obs::DiffVerdict::kImprovement ||
          m.verdict == aic::obs::DiffVerdict::kNeutral) {
        std::ostringstream os;
        os << "[" << aic::TextTable::pct(m.badness_lo, 1) << ", "
           << aic::TextTable::pct(m.badness_hi, 1) << "]";
        ci = os.str();
      }
      const bool paired =
          m.verdict != aic::obs::DiffVerdict::kOnlyBaseline &&
          m.verdict != aic::obs::DiffVerdict::kOnlyCurrent;
      table.add_row({m.name, m.unit,
                     paired || m.verdict ==
                                   aic::obs::DiffVerdict::kOnlyBaseline
                         ? fmt_value(m.baseline_median)
                         : "-",
                     paired || m.verdict ==
                                   aic::obs::DiffVerdict::kOnlyCurrent
                         ? fmt_value(m.current_median)
                         : "-",
                     paired ? aic::TextTable::pct(m.rel_change, 1) : "-",
                     ci, to_string(m.verdict)});
      if (m.verdict == aic::obs::DiffVerdict::kRegression) {
        regressed_names.push_back(diff.target + "/" + m.name);
      }
    }
    if (any_row) {
      table.print(std::cout);
    } else {
      std::cout << diff.target << ": " << diff.metrics.size()
                << " metric(s), no changes beyond threshold\n";
    }
  }
  for (const auto& [name, path] : base_paths) {
    if (cur_paths.find(name) == cur_paths.end()) {
      std::cout << "note: " << name << " only in baseline — skipped\n";
      ++unpaired;
    }
  }

  std::cout << "\nsummary: " << regressions << " regression(s), "
            << improvements << " improvement(s), " << neutral
            << " neutral (threshold " << aic::TextTable::pct(opt.threshold, 0)
            << ", " << opt.bootstrap_iterations << " bootstrap rounds)\n";
  for (const std::string& n : regressed_names) {
    std::cout << "REGRESSION: " << n << "\n";
  }
  return regressions > 0 ? 1 : 0;
}
