// Include-layering DAG check over src/ modules.
//
// Every `#include "mod/..."` in library code is a module-dependency edge.
// Two properties are enforced:
//
//   layer-edge   each edge must appear in the layering policy below —
//                deny-by-default, so a new dependency is a deliberate,
//                reviewed policy change, not drift. The policy encodes the
//                repo's target architecture: `common` depends on nothing,
//                `obs` only on `common`, and the paper-math modules
//                (`delta`/`mem`/`model`) never reach the orchestration
//                layers (`sim`/`xfer`).
//   layer-cycle  the *actual* edge set must be acyclic. Cycles are reported
//                per strongly connected component with a concrete path, so
//                a violation names the edges to break.
//
// Violations name the offending edge, the file and include that create it,
// and (for cycles) a path through the component.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/lexer.h"
#include "analysis/rules.h"

namespace aic::analysis {

/// The target module-dependency policy: module -> modules it may include.
/// Deny-by-default; `aic` is the umbrella header and may depend on all.
const std::map<std::string, std::set<std::string>>& layering_policy();

/// Module owning `path` ("src/delta/x.h" -> "delta"); "" for paths outside
/// src/ or directly under it.
std::string module_of(std::string_view path);

struct FileIncludes {
  std::string path;
  const LexedFile* lexed = nullptr;
};

/// Checks every file's quoted includes against the policy and the combined
/// module graph for cycles. Non-src files are ignored.
std::vector<Finding> check_layering(const std::vector<FileIncludes>& files);

}  // namespace aic::analysis
