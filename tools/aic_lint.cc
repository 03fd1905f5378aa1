// aic_lint — project-aware static analyzer for the AIC tree.
//
// Token-level reimplementation of the scripts/lint.sh conventions (L1–L6)
// plus the include-layering DAG, determinism, and exception-discipline
// rules — see src/analysis/rules.h for the catalog and DESIGN.md §14 for
// the architecture. Scans src/ (all rules) and bench/ + tools/
// (clock-gateway only) under the given root.
//
// Usage:
//   aic_lint [--root DIR] [--baseline FILE | --no-baseline] [--json]
//            [--all] [--write-baseline FILE]
//
// Options:
//   --root DIR             tree to scan (default .; must contain src/)
//   --baseline FILE        suppression baseline (default
//                          <root>/.aic-lint-baseline.json when present)
//   --no-baseline          ignore any baseline
//   --json                 emit the aic-lint-v1 findings document
//   --all                  print suppressed findings too
//   --write-baseline FILE  write a baseline covering every currently
//                          unsuppressed finding, then exit 0 (burn-down
//                          bookkeeping, not a free pass: review the diff)
//
// Exit status (matches aic_fsck / aic_benchdiff conventions):
//   0  clean — no unsuppressed findings, no stale baseline entries
//   1  findings (or a stale baseline entry: the baseline must stay exact)
//   2  usage, I/O, or baseline-parse error
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "common/check.h"
#include "file_io.h"

namespace {

namespace fs = std::filesystem;
using aic::analysis::Analysis;
using aic::analysis::Baseline;
using aic::analysis::BaselineEntry;
using aic::analysis::Finding;
using aic::analysis::SourceFile;
using aic::tools::read_file;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--root DIR] [--baseline FILE | --no-baseline] [--json]"
            << " [--all] [--write-baseline FILE]\n";
  return 2;
}

bool source_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h";
}

/// Collects .cc/.h files under root/<sub>, with repo-relative forward-slash
/// paths, sorted for deterministic reports.
bool collect(const fs::path& root, const std::string& sub,
             std::vector<SourceFile>* out) {
  std::error_code ec;
  const fs::path dir = root / sub;
  if (!fs::is_directory(dir, ec)) return true;  // bench/ or tools/ may be absent
  std::vector<fs::path> paths;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec) && source_extension(it->path())) {
      paths.push_back(it->path());
    }
  }
  if (ec) {
    std::cerr << "aic_lint: cannot walk " << dir.string() << ": "
              << ec.message() << "\n";
    return false;
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& p : paths) {
    const auto content = read_file(p);
    if (!content) {
      std::cerr << "aic_lint: cannot read " << p.string() << "\n";
      return false;
    }
    out->push_back(
        {fs::relative(p, root).generic_string(), std::move(*content)});
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string baseline_path;
  std::string write_baseline_path;
  bool no_baseline = false, json = false, show_all = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](std::string* out) {
      if (++i >= argc) return false;
      *out = argv[i];
      return true;
    };
    if (arg == "--root") {
      if (!next(&root)) return usage(argv[0]);
    } else if (arg == "--baseline") {
      if (!next(&baseline_path)) return usage(argv[0]);
    } else if (arg == "--no-baseline") {
      no_baseline = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--all") {
      show_all = true;
    } else if (arg == "--write-baseline") {
      if (!next(&write_baseline_path)) return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }

  std::error_code ec;
  if (!fs::is_directory(fs::path(root) / "src", ec)) {
    std::cerr << "aic_lint: " << root << " has no src/ directory\n";
    return 2;
  }

  std::vector<SourceFile> files;
  for (const char* sub : {"src", "bench", "tools"}) {
    if (!collect(root, sub, &files)) return 2;
  }

  Baseline baseline;
  if (!no_baseline) {
    fs::path bp = baseline_path.empty()
                      ? fs::path(root) / ".aic-lint-baseline.json"
                      : fs::path(baseline_path);
    const bool required = !baseline_path.empty();
    if (fs::is_regular_file(bp, ec)) {
      const auto text = read_file(bp);
      if (!text) {
        std::cerr << "aic_lint: cannot read baseline " << bp.string() << "\n";
        return 2;
      }
      try {
        baseline = aic::analysis::baseline_from_json(*text);
      } catch (const aic::CheckError& e) {
        std::cerr << "aic_lint: bad baseline " << bp.string() << ": "
                  << e.what() << "\n";
        return 2;
      }
    } else if (required) {
      std::cerr << "aic_lint: baseline not found: " << bp.string() << "\n";
      return 2;
    }
  }

  const Analysis analysis = aic::analysis::analyze(files, baseline);

  if (!write_baseline_path.empty()) {
    Baseline fresh;
    for (const Finding& f : analysis.findings) {
      if (f.suppressed) continue;
      fresh.entries.push_back(
          {f.rule, f.path, f.fingerprint, "baselined legacy finding"});
    }
    std::ofstream out(write_baseline_path, std::ios::binary);
    if (!out) {
      std::cerr << "aic_lint: cannot write " << write_baseline_path << "\n";
      return 2;
    }
    out << aic::analysis::baseline_to_json(fresh);
    std::cout << "aic_lint: wrote " << fresh.entries.size()
              << " suppression(s) to " << write_baseline_path << "\n";
    return 0;
  }

  if (json) {
    std::cout << aic::analysis::analysis_to_json(analysis);
  } else {
    for (const Finding& f : analysis.findings) {
      if (f.suppressed && !show_all) continue;
      std::cout << f.path << ":" << f.line << ": " << f.rule << ": "
                << f.message;
      if (f.suppressed) std::cout << " [suppressed: " << f.suppressed_by << "]";
      std::cout << "\n";
    }
    for (const BaselineEntry& e : analysis.stale) {
      std::cout << "stale baseline entry: " << e.rule << " " << e.path << " ("
                << e.fingerprint << ") — finding fixed? remove the entry\n";
    }
    std::cout << "aic_lint: " << analysis.files << " file(s), "
              << analysis.unsuppressed << " finding(s), "
              << analysis.suppressed_baseline << " baselined, "
              << analysis.suppressed_inline << " inline-allowed, "
              << analysis.stale.size() << " stale baseline entr(y/ies)\n";
  }
  return analysis.clean() ? 0 : 1;
}
