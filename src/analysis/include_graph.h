// Include-graph builder and module-layering checker (lint rule R7).
//
// The tree is layered so that determinism-critical substrate never depends
// on the code built on top of it:
//
//   rank 0  util
//   rank 1  sim, analysis
//   rank 2  core, agg, lowerbounds, baselines
//   rank 3  serve
//   rank 4  harness
//   rank 5  tools, bench, tests
//
// A quoted #include may only point at the includer's own module or a module
// of rank <= the includer's (same-rank cross-module edges are legal; true
// cycles among them are caught separately and reported with the shortest
// module cycle). Edges suppressed in-source for R7 are accepted
// as documented exceptions and excluded from cycle detection — so a cycle
// is silenced by suppressing (any) one of its edges. docs/LINT.md#r7 has
// the rationale and examples.
#pragma once

#include <string>
#include <vector>

#include "analysis/lint.h"

namespace cogradio {

// One quoted #include directive, as collected by the per-file scan after
// preprocessor-disabled regions (#if 0) have been masked out.
struct IncludeRef {
  std::string file;    // tree-relative includer path, '/'-separated
  int line = 0;        // 1-based line of the #include
  std::string target;  // the quoted include path, verbatim
  std::string snippet; // trimmed original source line
  bool suppressed = false;  // an R7 suppression covers the directive
};

// Module of a tree-relative file path: "src/util/x.h" -> "util",
// "bench/x.cpp" -> "bench"; "" when the path is outside the known layout.
std::string module_of_path(const std::string& rel_path);

// Layering rank of a module; -1 for modules not in the layering map.
int module_rank(const std::string& module);

// Module an include target lands in: "sim/types.h" -> "sim"; a target with
// no '/' is a same-directory include and resolves to `includer_module`;
// an unrecognized first path component yields "".
std::string module_of_target(const std::string& target,
                             const std::string& includer_module);

// Accumulates include edges and reports R7 findings: layering violations
// (edge into a strictly higher-ranked module), edges touching modules
// missing from the layering map, and the shortest module-level cycles.
class IncludeGraph {
 public:
  void add(const IncludeRef& ref);

  // All R7 findings, deterministic in edge insertion order; cycle findings
  // follow the per-edge findings and are anchored at the lexicographically
  // first witness include of the cycle's first edge.
  std::vector<LintFinding> check() const;

  // Shortest module cycles over the non-suppressed edges, each canonically
  // rotated to start at its lexicographically smallest module and listed
  // in sorted order. Exposed for tests; empty when the graph is acyclic.
  std::vector<std::vector<std::string>> cycles() const;

 private:
  std::vector<IncludeRef> edges_;
};

}  // namespace cogradio
