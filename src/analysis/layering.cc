#include "analysis/layering.h"

#include <algorithm>

namespace aic::analysis {

const std::map<std::string, std::set<std::string>>& layering_policy() {
  static const std::map<std::string, std::set<std::string>> kPolicy = {
      {"common", {}},
      {"obs", {"common"}},
      {"mem", {"common"}},
      {"model", {"common"}},
      {"trace", {"common"}},
      {"analysis", {"common", "obs"}},
      {"workload", {"common", "mem", "trace"}},
      {"failure", {"common", "model"}},
      {"delta", {"common", "mem", "obs"}},
      {"predictor", {"common", "mem", "obs"}},
      {"xfer", {"common", "obs"}},
      {"storage", {"common", "obs", "mem", "ckpt", "xfer"}},
      {"ckpt", {"common", "delta", "mem", "obs"}},
      {"verify", {"common", "ckpt", "delta", "xfer"}},
      {"control", {"common", "ckpt", "model", "obs", "predictor", "workload"}},
      {"sim",
       {"common", "ckpt", "control", "failure", "mem", "model", "obs",
        "storage", "workload", "xfer"}},
      {"fleet",
       {"common", "ckpt", "failure", "mem", "model", "obs", "workload",
        "xfer"}},
      {"aic",
       {"common", "obs", "mem", "model", "trace", "analysis", "workload",
        "failure", "delta", "predictor", "xfer", "storage", "ckpt", "verify",
        "control", "sim", "fleet"}},
  };
  return kPolicy;
}

std::string module_of(std::string_view path) {
  if (path.rfind("src/", 0) != 0) return "";
  const std::size_t next = path.find('/', 4);
  if (next == std::string::npos) return "";
  return std::string(path.substr(4, next - 4));
}

namespace {

/// Module a quoted include path targets ("delta/page_delta.h" -> "delta"),
/// or "" when the include is not module-shaped or names an unknown module.
std::string include_module(const std::string& inc) {
  const std::size_t slash = inc.find('/');
  if (slash == std::string::npos) return "";
  const std::string mod = inc.substr(0, slash);
  return layering_policy().count(mod) != 0 ? mod : "";
}

struct Edge {
  std::string from, to;
  std::string file;     // witness: the file whose include creates the edge
  std::string include;  // the include path as written
  int line = 1;
};

/// One concrete cycle path inside a strongly connected component, found by
/// DFS restricted to the component, starting from its smallest module.
std::vector<std::string> cycle_path(
    const std::set<std::string>& scc,
    const std::map<std::string, std::set<std::string>>& graph) {
  const std::string& start = *scc.begin();
  std::vector<std::string> path = {start};
  std::set<std::string> on_path = {start};
  // Walk edges inside the SCC; every node in an SCC lies on a cycle back to
  // start, so a deterministic greedy walk terminates.
  std::string cur = start;
  for (std::size_t guard = 0; guard <= scc.size(); ++guard) {
    const auto it = graph.find(cur);
    if (it == graph.end()) break;
    std::string next;
    for (const std::string& cand : it->second) {
      if (cand == start && path.size() > 1) {
        path.push_back(start);
        return path;
      }
      if (scc.count(cand) != 0 && on_path.count(cand) == 0 && next.empty()) {
        next = cand;
      }
    }
    if (next.empty()) {
      // Two-node component: the direct back-edge closes it.
      if (it->second.count(start) != 0) {
        path.push_back(start);
        return path;
      }
      break;
    }
    path.push_back(next);
    on_path.insert(next);
    cur = next;
  }
  path.push_back(start);  // fallback; SCC membership guarantees a cycle
  return path;
}

/// Tarjan strongly-connected components, iterative (no recursion so a
/// hostile include graph cannot overflow the stack).
std::vector<std::set<std::string>> strongly_connected(
    const std::map<std::string, std::set<std::string>>& graph) {
  std::vector<std::string> nodes;
  nodes.reserve(graph.size());
  for (const auto& [n, _] : graph) nodes.push_back(n);

  std::map<std::string, int> index, lowlink;
  std::set<std::string> on_stack;
  std::vector<std::string> stack;
  std::vector<std::set<std::string>> sccs;
  int next_index = 0;

  struct Frame {
    std::string node;
    std::vector<std::string> succ;
    std::size_t next = 0;
  };

  for (const std::string& root : nodes) {
    if (index.count(root) != 0) continue;
    std::vector<Frame> frames;
    auto push_node = [&](const std::string& n) {
      index[n] = lowlink[n] = next_index++;
      stack.push_back(n);
      on_stack.insert(n);
      Frame f;
      f.node = n;
      const auto it = graph.find(n);
      if (it != graph.end()) f.succ.assign(it->second.begin(), it->second.end());
      frames.push_back(std::move(f));
    };
    push_node(root);
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.next < f.succ.size()) {
        const std::string& w = f.succ[f.next++];
        if (index.count(w) == 0) {
          push_node(w);
        } else if (on_stack.count(w) != 0) {
          lowlink[f.node] = std::min(lowlink[f.node], index[w]);
        }
      } else {
        if (lowlink[f.node] == index[f.node]) {
          std::set<std::string> scc;
          for (;;) {
            const std::string w = stack.back();
            stack.pop_back();
            on_stack.erase(w);
            scc.insert(w);
            if (w == f.node) break;
          }
          sccs.push_back(std::move(scc));
        }
        const std::string done = f.node;
        frames.pop_back();
        if (!frames.empty()) {
          lowlink[frames.back().node] =
              std::min(lowlink[frames.back().node], lowlink[done]);
        }
      }
    }
  }
  return sccs;
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += sep;
    out += p;
  }
  return out;
}

}  // namespace

std::vector<Finding> check_layering(const std::vector<FileIncludes>& files) {
  std::vector<Finding> out;
  const auto& policy = layering_policy();

  std::vector<Edge> edges;
  std::map<std::string, std::set<std::string>> graph;
  std::set<std::string> unknown_reported;

  for (const FileIncludes& f : files) {
    const std::string mod = module_of(f.path);
    if (mod.empty() || f.lexed == nullptr) continue;
    const auto pol = policy.find(mod);
    if (pol == policy.end()) {
      if (unknown_reported.insert(mod).second) {
        out.push_back({"layer-edge", f.path, 1,
                       "module '" + mod +
                           "' has no layering-policy entry — add it to "
                           "analysis/layering.cc with its allowed "
                           "dependencies",
                       "unknown-module:" + mod, false, ""});
      }
      continue;
    }
    for (const IncludeDirective& inc : f.lexed->includes) {
      if (inc.angled) continue;
      const std::string dep = include_module(inc.path);
      if (dep.empty() || dep == mod) continue;
      edges.push_back({mod, dep, f.path, inc.path, inc.line});
      graph[mod].insert(dep);
      graph.emplace(dep, std::set<std::string>{});  // node for SCC pass
      if (pol->second.count(dep) == 0) {
        out.push_back({"layer-edge", f.path, inc.line,
                       "illegal module dependency " + mod + " -> " + dep +
                           " (#include \"" + inc.path + "\")",
                       mod + "->" + dep + ":" + inc.path, false, ""});
      }
    }
  }

  for (const std::set<std::string>& scc : strongly_connected(graph)) {
    const bool self_loop =
        scc.size() == 1 && graph[*scc.begin()].count(*scc.begin()) != 0;
    if (scc.size() < 2 && !self_loop) continue;
    // Anchor the finding at the lexicographically smallest witness file of
    // an intra-component edge, so the report is stable across reorderings.
    std::string anchor_file;
    int anchor_line = 1;
    for (const Edge& e : edges) {
      if (scc.count(e.from) == 0 || scc.count(e.to) == 0) continue;
      if (anchor_file.empty() || e.file < anchor_file) {
        anchor_file = e.file;
        anchor_line = e.line;
      }
    }
    const std::vector<std::string> path = cycle_path(scc, graph);
    std::vector<std::string> members(scc.begin(), scc.end());
    out.push_back({"layer-cycle", anchor_file, anchor_line,
                   "module cycle: " + join(path, " -> ") +
                       " — break one edge (see the layer-edge findings for "
                       "this component)",
                   join(members, "+"), false, ""});
  }
  return out;
}

}  // namespace aic::analysis
