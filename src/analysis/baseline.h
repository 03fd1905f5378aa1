// Suppression baseline: the checked-in ledger of known legacy findings.
//
// A new rule lands with the violations it finds in the existing tree
// recorded here, so the gate turns red only for *new* violations while the
// legacy ones are burned down incrementally. Entries match findings on
// (rule, path, fingerprint) — fingerprints are line-independent (the thrown
// type, the offending edge, the callee name), so a baseline survives
// unrelated edits but dies with the code it excuses. A stale entry (one
// matching nothing) is itself a failure: the baseline must stay exact.
//
// Format (aic-lint-baseline-v1, parsed with the hostile-input-safe
// obs/json parser — a truncated or hand-mangled baseline throws CheckError
// rather than silently suppressing everything):
//
//   {"schema": "aic-lint-baseline-v1",
//    "suppressions": [
//      {"rule": "layer-edge", "path": "src/xfer/sink.h",
//       "fingerprint": "xfer->storage:storage/storage.h", "reason": "..."}]}
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "analysis/rules.h"

namespace aic::analysis {

struct BaselineEntry {
  std::string rule;
  std::string path;
  std::string fingerprint;
  std::string reason;
};

struct Baseline {
  std::vector<BaselineEntry> entries;
};

/// Parses a baseline document. Throws aic::CheckError on malformed input
/// (bad JSON, wrong schema, missing required fields).
Baseline baseline_from_json(std::string_view text);

/// Serializes a baseline (stable field order, one suppression per line).
std::string baseline_to_json(const Baseline& baseline);

/// Marks findings matched by an entry as suppressed ("baseline"); returns
/// the stale entries that matched nothing.
std::vector<BaselineEntry> apply_baseline(const Baseline& baseline,
                                          std::vector<Finding>& findings);

}  // namespace aic::analysis
