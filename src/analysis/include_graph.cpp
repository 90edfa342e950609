#include "analysis/include_graph.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <utility>

namespace cogradio {

namespace {

struct ModuleRank {
  const char* module;
  int rank;
};

// The layering contract. New top-level directories under src/ must be
// added here with an explicit rank, or R7 reports them as unknown.
const ModuleRank kModuleRanks[] = {
    {"util", 0},        {"sim", 1},       {"analysis", 1}, {"core", 2},
    {"agg", 2},         {"lowerbounds", 2}, {"baselines", 2}, {"serve", 3},
    {"harness", 4},     {"tools", 5},     {"bench", 5},    {"tests", 5},
};

std::string path_component(const std::string& path, std::size_t index) {
  std::size_t begin = 0;
  for (std::size_t i = 0; i < index; ++i) {
    const std::size_t slash = path.find('/', begin);
    if (slash == std::string::npos) return "";
    begin = slash + 1;
  }
  const std::size_t end = path.find('/', begin);
  return path.substr(begin, end == std::string::npos ? std::string::npos
                                                     : end - begin);
}

}  // namespace

int module_rank(const std::string& module) {
  for (const ModuleRank& m : kModuleRanks)
    if (module == m.module) return m.rank;
  return -1;
}

std::string module_of_path(const std::string& rel_path) {
  const std::string first = path_component(rel_path, 0);
  if (first == "src") {
    const std::string second = path_component(rel_path, 1);
    return module_rank(second) >= 0 ? second : "";
  }
  if (first == "bench" || first == "tools" || first == "tests") return first;
  return "";
}

std::string module_of_target(const std::string& target,
                             const std::string& includer_module) {
  if (target.find('/') == std::string::npos) return includer_module;
  const std::string first = path_component(target, 0);
  return module_rank(first) >= 0 ? first : "";
}

void IncludeGraph::add(const IncludeRef& ref) { edges_.push_back(ref); }

std::vector<std::vector<std::string>> IncludeGraph::cycles() const {
  // Module-level adjacency over non-suppressed edges between known modules.
  std::map<std::string, std::set<std::string>> adj;
  for (const IncludeRef& e : edges_) {
    if (e.suppressed) continue;
    const std::string from = module_of_path(e.file);
    const std::string to = module_of_target(e.target, from);
    if (from.empty() || to.empty() || from == to) continue;
    adj[from].insert(to);
  }
  // Shortest cycle through each module via BFS; canonical rotation dedupes
  // the same cycle discovered from each of its members.
  std::set<std::vector<std::string>> canon;
  for (const auto& [start, _] : adj) {
    std::map<std::string, std::string> parent;
    std::deque<std::string> queue;
    for (const std::string& next : adj[start]) {
      if (parent.count(next)) continue;
      parent[next] = start;
      queue.push_back(next);
    }
    std::vector<std::string> cycle;
    while (!queue.empty()) {
      const std::string node = queue.front();
      queue.pop_front();
      if (node == start) {
        for (std::string at = start;;) {
          cycle.push_back(at);
          at = parent[at];
          if (at == start) break;
        }
        std::reverse(cycle.begin(), cycle.end());
        break;
      }
      const auto it = adj.find(node);
      if (it == adj.end()) continue;
      for (const std::string& next : it->second) {
        if (parent.count(next)) continue;
        parent[next] = node;
        queue.push_back(next);
      }
    }
    if (cycle.empty()) continue;
    const auto smallest = std::min_element(cycle.begin(), cycle.end());
    std::rotate(cycle.begin(), smallest, cycle.end());
    canon.insert(cycle);
  }
  return {canon.begin(), canon.end()};
}

std::vector<LintFinding> IncludeGraph::check() const {
  std::vector<LintFinding> findings;
  const auto add_finding = [&](const IncludeRef& e, const std::string& message,
                               const std::string& fixit) {
    LintFinding f;
    f.rule = "R7";
    f.file = e.file;
    f.line = e.line;
    f.snippet = e.snippet;
    f.message = message;
    f.fixit = fixit;
    f.suppressed = e.suppressed;
    findings.push_back(std::move(f));
  };

  for (const IncludeRef& e : edges_) {
    const std::string from = module_of_path(e.file);
    if (from.empty()) {
      add_finding(e,
                  "file is outside the layered module map (" + e.file +
                      "): every scanned directory needs an explicit rank",
                  "add the module to kModuleRanks in "
                  "src/analysis/include_graph.cpp");
      continue;
    }
    const std::string to = module_of_target(e.target, from);
    if (to.empty()) {
      add_finding(e,
                  "include target '" + e.target +
                      "' is not in the layered module map: every module "
                      "needs an explicit rank",
                  "add the module to kModuleRanks in "
                  "src/analysis/include_graph.cpp");
      continue;
    }
    if (to == from) continue;
    if (module_rank(to) > module_rank(from))
      add_finding(e,
                  "layering violation " + from + " -> " + to + ": '" +
                      e.target + "' lives " +
                      std::to_string(module_rank(to) - module_rank(from)) +
                      " rank(s) above " + from +
                      " (util -> {sim, analysis} -> {core, agg, lowerbounds, "
                      "baselines} -> serve -> harness -> tools/bench/tests)",
                  "move the shared declaration down a layer, or the "
                  "includer into a module ranked above what it includes");
  }

  // Cycle findings, anchored at the lexicographically first witness edge
  // of the cycle's first hop so a suppression site exists in-source.
  for (const std::vector<std::string>& cycle : cycles()) {
    const std::string& from = cycle.front();
    const std::string& to = cycle.size() > 1 ? cycle[1] : cycle.front();
    const IncludeRef* witness = nullptr;
    for (const IncludeRef& e : edges_) {
      if (e.suppressed) continue;
      const std::string ef = module_of_path(e.file);
      if (ef != from || module_of_target(e.target, ef) != to) continue;
      if (witness == nullptr || e.file < witness->file ||
          (e.file == witness->file && e.line < witness->line))
        witness = &e;
    }
    if (witness == nullptr) continue;
    std::string named = cycle.front();
    for (std::size_t i = 1; i < cycle.size(); ++i) named += " -> " + cycle[i];
    named += " -> " + cycle.front();
    add_finding(*witness,
                "module cycle " + named +
                    ": cyclic modules cannot be layered, built, or reasoned "
                    "about independently",
                "break the cycle by moving the shared types into the lower "
                "module (see sim/agg_payload.h for the pattern)");
  }
  return findings;
}

}  // namespace cogradio
