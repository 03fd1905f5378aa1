// aic_fsck — checkpoint-chain integrity checker.
//
// Usage:
//   aic_fsck [options] <checkpoint-file|chain-directory>...
//
// Each file argument is one serialized ckpt::CheckpointFile record; a
// directory argument contributes its regular files in lexicographic name
// order (the order MultiLevelStore's ckpt-<index> keys sort in). All
// records together form one chain, verified in argument order.
//
// Options:
//   --structural   skip payload replay (structural invariants only)
//   --no-v1-warn   do not warn about checksum-less v1 records
//   -q, --quiet    print only the summary line
//
// Exit status: 0 chain clean (warnings allowed), 1 integrity errors
// found, 2 usage or I/O error — or a record whose format version is newer
// than this build reads ([unsupported-version]): that chain needs a newer
// aic_fsck, not repair, so it is deliberately NOT exit 1. Never crashes on
// corrupt input — every fault surfaces as a printed diagnostic.
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "file_io.h"
#include "verify/chain_verifier.h"

namespace {

namespace fs = std::filesystem;
using aic::Bytes;
using aic::tools::read_file;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--structural] [--no-v1-warn] [-q|--quiet] "
               "<checkpoint-file|chain-directory>...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  aic::verify::ChainVerifier::Options options;
  bool quiet = false;
  std::vector<fs::path> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--structural") {
      options.replay = false;
    } else if (arg == "--no-v1-warn") {
      options.warn_v1 = false;
    } else if (arg == "-q" || arg == "--quiet") {
      quiet = true;
    } else if (arg == "-h" || arg == "--help") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "aic_fsck: unknown option '" << arg << "'\n";
      return usage(argv[0]);
    } else {
      inputs.emplace_back(arg);
    }
  }
  if (inputs.empty()) return usage(argv[0]);

  // Expand directories, keep explicit files as given. Partials
  // ("<key>.partial" — a record a file-backed store had not finished
  // writing) are never chain records: they are reported as their own
  // diagnostic and excluded from verification rather than flagged as
  // corruption.
  std::vector<fs::path> record_paths;
  std::vector<fs::path> partial_paths;
  for (const fs::path& input : inputs) {
    std::error_code ec;
    if (fs::is_directory(input, ec)) {
      std::vector<fs::path> entries;
      for (const auto& entry : fs::directory_iterator(input, ec)) {
        if (entry.is_regular_file()) entries.push_back(entry.path());
      }
      if (ec) {
        std::cerr << "aic_fsck: cannot list " << input << ": "
                  << ec.message() << "\n";
        return 2;
      }
      std::sort(entries.begin(), entries.end());
      for (const fs::path& p : entries) {
        if (aic::verify::is_partial_transfer_name(p.filename().string())) {
          partial_paths.push_back(p);
        } else {
          record_paths.push_back(p);
        }
      }
    } else {
      record_paths.push_back(input);
    }
  }
  if (record_paths.empty() && partial_paths.empty()) {
    std::cerr << "aic_fsck: no checkpoint records found\n";
    return 2;
  }

  std::vector<Bytes> records;
  records.reserve(record_paths.size());
  for (const fs::path& path : record_paths) {
    const auto bytes = read_file(path);
    if (!bytes) {
      std::cerr << "aic_fsck: cannot read " << path << "\n";
      return 2;
    }
    records.emplace_back(bytes->begin(), bytes->end());
  }

  const aic::verify::ChainVerifier verifier(options);
  const aic::verify::Report report = verifier.verify_serialized(records);

  if (!quiet) {
    for (const fs::path& p : partial_paths) {
      std::cout << p.string()
                << ": NOTE [staged-partial] unfinished record write — "
                   "not part of the committed chain\n";
    }
    for (const auto& d : report.diagnostics) {
      std::cout << record_paths[std::min(d.chain_index,
                                         record_paths.size() - 1)]
                       .string()
                << ": " << d.render() << "\n";
    }
  }
  bool unsupported = false;
  for (const auto& d : report.diagnostics)
    unsupported |= d.code == aic::verify::CheckCode::kUnsupportedVersion;

  std::cout << "aic_fsck: " << report.summary();
  if (!partial_paths.empty()) {
    std::cout << ", " << partial_paths.size() << " staged partial(s)";
  }
  std::cout << (report.ok()      ? " — clean"
                : unsupported    ? " — UNSUPPORTED VERSION"
                                 : " — CORRUPT")
            << "\n";
  // Reader-too-old beats corrupt: nothing here is repairable by this
  // build, and scripts must not treat it as chain damage.
  if (unsupported) return 2;
  return report.ok() ? 0 : 1;
}
