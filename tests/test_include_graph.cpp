// Tests for the R7 include-graph builder (analysis/include_graph.h):
// module resolution, layering direction, cycle detection with canonical
// rotation, suppressed-edge exclusion, and header-only modules.
#include "analysis/include_graph.h"

#include <gtest/gtest.h>

namespace cogradio {
namespace {

IncludeRef edge(const std::string& file, const std::string& target,
                int line = 1, bool suppressed = false) {
  IncludeRef ref;
  ref.file = file;
  ref.line = line;
  ref.target = target;
  ref.snippet = "#include \"" + target + "\"";
  ref.suppressed = suppressed;
  return ref;
}

TEST(IncludeGraph, ModuleOfPath) {
  EXPECT_EQ(module_of_path("src/util/rng.h"), "util");
  EXPECT_EQ(module_of_path("src/sim/network.cpp"), "sim");
  EXPECT_EQ(module_of_path("src/analysis/lint.cpp"), "analysis");
  EXPECT_EQ(module_of_path("src/harness/claims.cpp"), "harness");
  EXPECT_EQ(module_of_path("bench/bench_e7.cpp"), "bench");
  EXPECT_EQ(module_of_path("tools/cograd.cpp"), "tools");
  EXPECT_EQ(module_of_path("tests/test_rng.cpp"), "tests");
  EXPECT_EQ(module_of_path("src/vendor/blob.h"), "");
  EXPECT_EQ(module_of_path("docs/LINT.md"), "");
}

TEST(IncludeGraph, ModuleRankRespectsTheLayering) {
  EXPECT_EQ(module_rank("util"), 0);
  EXPECT_LT(module_rank("util"), module_rank("sim"));
  EXPECT_EQ(module_rank("sim"), module_rank("analysis"));
  EXPECT_LT(module_rank("sim"), module_rank("core"));
  EXPECT_EQ(module_rank("core"), module_rank("agg"));
  EXPECT_EQ(module_rank("agg"), module_rank("lowerbounds"));
  EXPECT_EQ(module_rank("lowerbounds"), module_rank("baselines"));
  EXPECT_LT(module_rank("core"), module_rank("serve"));
  EXPECT_LT(module_rank("serve"), module_rank("harness"));
  EXPECT_LT(module_rank("harness"), module_rank("tools"));
  EXPECT_EQ(module_rank("tools"), module_rank("bench"));
  EXPECT_EQ(module_rank("bench"), module_rank("tests"));
  EXPECT_EQ(module_rank("vendor"), -1);
}

TEST(IncludeGraph, ModuleOfTarget) {
  EXPECT_EQ(module_of_target("sim/types.h", "core"), "sim");
  // A slash-free target is a same-directory include.
  EXPECT_EQ(module_of_target("rng.h", "util"), "util");
  EXPECT_EQ(module_of_target("vendor/blob.h", "core"), "");
}

TEST(IncludeGraph, DownwardAndSameRankEdgesAreClean) {
  IncludeGraph graph;
  graph.add(edge("src/sim/network.cpp", "util/rng.h"));
  graph.add(edge("src/core/cogcast.cpp", "agg/aggregate.h"));
  graph.add(edge("tools/cograd.cpp", "serve/server.h"));
  graph.add(edge("src/harness/bench_suite.cpp", "serve/server.h"));
  graph.add(edge("bench/bench_e7.cpp", "harness/claims.h"));
  EXPECT_TRUE(graph.check().empty());
  EXPECT_TRUE(graph.cycles().empty());
}

TEST(IncludeGraph, UpwardEdgeIsALayeringViolation) {
  IncludeGraph graph;
  graph.add(edge("src/util/uplink.h", "sim/net.h", 8));
  const std::vector<LintFinding> findings = graph.check();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R7");
  EXPECT_EQ(findings[0].file, "src/util/uplink.h");
  EXPECT_EQ(findings[0].line, 8);
  EXPECT_NE(findings[0].message.find("layering violation util -> sim"),
            std::string::npos);
  EXPECT_FALSE(findings[0].fixit.empty());
}

TEST(IncludeGraph, ShortestThreeModuleCycleIsCanonicallyRotated) {
  IncludeGraph graph;
  graph.add(edge("src/core/a.h", "agg/b.h"));
  graph.add(edge("src/agg/b.h", "lowerbounds/c.h"));
  graph.add(edge("src/lowerbounds/c.h", "core/a.h"));
  const auto cycles = graph.cycles();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0],
            (std::vector<std::string>{"agg", "lowerbounds", "core"}));
  // Same-rank edges are individually legal, so the only finding is the
  // cycle itself, anchored at the witness of the cycle's first hop.
  const std::vector<LintFinding> findings = graph.check();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(
      findings[0].message.find("module cycle agg -> lowerbounds -> core -> agg"),
      std::string::npos);
  EXPECT_EQ(findings[0].file, "src/agg/b.h");
}

TEST(IncludeGraph, SuppressingAnyEdgeSilencesTheCycle) {
  IncludeGraph graph;
  graph.add(edge("src/core/a.h", "agg/b.h"));
  graph.add(edge("src/agg/b.h", "lowerbounds/c.h", 1, /*suppressed=*/true));
  graph.add(edge("src/lowerbounds/c.h", "core/a.h"));
  EXPECT_TRUE(graph.cycles().empty());
  EXPECT_TRUE(graph.check().empty());
}

TEST(IncludeGraph, HeaderOnlyModulesNeedNoOutgoingEdges) {
  // util appears only as a target (a header-only module with no quoted
  // includes of its own): no unknown-module finding, no cycle.
  IncludeGraph graph;
  graph.add(edge("tests/test_rng.cpp", "util/rng.h"));
  graph.add(edge("src/sim/network.cpp", "util/sweep.h"));
  EXPECT_TRUE(graph.check().empty());
  EXPECT_TRUE(graph.cycles().empty());
}

TEST(IncludeGraph, UnknownModulesAreReportedWithAFixit) {
  IncludeGraph graph;
  graph.add(edge("src/core/a.cpp", "vendor/blob.h", 3));
  graph.add(edge("scripts/tool.cpp", "util/rng.h", 4));
  const std::vector<LintFinding> findings = graph.check();
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_NE(findings[0].message.find("vendor/blob.h"), std::string::npos);
  EXPECT_NE(findings[0].fixit.find("kModuleRanks"), std::string::npos);
  EXPECT_NE(findings[1].message.find("scripts/tool.cpp"), std::string::npos);
}

TEST(IncludeGraph, TwoModuleCycleNamesBothDirections) {
  IncludeGraph graph;
  graph.add(edge("src/sim/net.h", "util/uplink.h"));
  graph.add(edge("src/util/uplink.h", "sim/net.h"));
  const auto cycles = graph.cycles();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0], (std::vector<std::string>{"sim", "util"}));
}

}  // namespace
}  // namespace cogradio
