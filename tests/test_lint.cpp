// Unit tests for the determinism linter (src/analysis/lint.h): tokenizer
// edge cases (comments, strings, raw strings, splices), preprocessor
// masking, the per-file rules R1-R6 and R8-R10 positive + suppressed +
// out-of-scope, the R11 CI-coverage checker, the file-local half of R12,
// suppression syntax, the --diff reference pairing, schema-v2 manifest
// fields, and LINT.json determinism. All fixtures are in-memory snippets
// handed to lint_source with a synthetic tree-relative path that selects
// the rule scope under test; the cross-file rules (R7, global R12) are
// covered by tests/test_include_graph.cpp and the lint_fixtures ctest
// legs.
#include "analysis/lint.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/json.h"

namespace cogradio {
namespace {

int count_rule(const std::vector<LintFinding>& findings,
               const std::string& rule, bool include_suppressed = false) {
  int n = 0;
  for (const LintFinding& f : findings)
    if (f.rule == rule && (include_suppressed || !f.suppressed)) ++n;
  return n;
}

// --- tokenizer -----------------------------------------------------------

TEST(StripSource, RemovesLineAndBlockComments) {
  const StrippedSource s =
      strip_source("int a; // trailing\n/* whole */ int b;\n");
  EXPECT_EQ(s.code[0], "int a; ");
  EXPECT_EQ(s.comments[0], " trailing");
  EXPECT_EQ(s.code[1], " int b;");
  EXPECT_EQ(s.comments[1], " whole ");
}

TEST(StripSource, BlockCommentSpansLines) {
  const StrippedSource s = strip_source("a /* x\ny */ b\n");
  EXPECT_EQ(s.code[0], "a ");
  EXPECT_EQ(s.code[1], " b");
}

TEST(StripSource, BlanksStringContentsKeepsDelimiters) {
  const StrippedSource s = strip_source("f(\"rand()\");\n");
  EXPECT_EQ(s.code[0], "f(\"      \");");
}

TEST(StripSource, HandlesEscapedQuotes) {
  const StrippedSource s = strip_source("f(\"a\\\"b\"); g();\n");
  EXPECT_EQ(s.code[0], "f(\"    \"); g();");
}

TEST(StripSource, CharLiteralsAreBlanked) {
  const StrippedSource s = strip_source("if (c == ':') x();\n");
  EXPECT_EQ(s.code[0], "if (c == ' ') x();");
}

TEST(StripSource, RawStringContentIsNotCode) {
  // `rand(` inside a raw string must not reach the rule scanners, even
  // with a custom delimiter and a ')' inside the body.
  const std::string text = "auto s = R\"x(rand() time(0) ))x\"; f();\n";
  const StrippedSource s = strip_source(text);
  EXPECT_EQ(s.code[0].find("rand"), std::string::npos);
  EXPECT_NE(s.code[0].find("f();"), std::string::npos);
}

TEST(StripSource, LineSplicedCommentSwallowsNextLine) {
  const StrippedSource s = strip_source("// comment \\\nstd::rand();\nok;\n");
  // The spliced second line is still comment, not code.
  EXPECT_EQ(s.code[1].find("rand"), std::string::npos);
  EXPECT_NE(s.comments[1].find("rand"), std::string::npos);
  EXPECT_EQ(s.code[2], "ok;");
}

TEST(StripSource, DigitSeparatorsDoNotOpenCharLiterals) {
  // A C++14 digit separator must not flip the lexer into char-literal
  // state and blank the rest of the file as "string contents".
  const StrippedSource s =
      strip_source("int n = 10'000;\nstd::rand();\n");
  EXPECT_EQ(s.code[0], "int n = 10'000;");
  EXPECT_NE(s.code[1].find("rand"), std::string::npos);
}

TEST(StripSource, HexDigitSeparatorsStayInCode) {
  const StrippedSource s =
      strip_source("auto k = 0xc09'7ad'10;\ntime(nullptr);\n");
  EXPECT_EQ(s.code[0], "auto k = 0xc09'7ad'10;");
  EXPECT_NE(s.code[1].find("time"), std::string::npos);
}

TEST(StripSource, PrefixedCharLiteralsStillBlank) {
  // u8/L prefixes start with a letter, so the ' still opens a literal.
  const StrippedSource s = strip_source("auto c = u8'r'; rand();\n");
  EXPECT_EQ(s.code[0], "auto c = u8' '; rand();");
}

TEST(LintR1, FiresAfterDigitSeparatedLiteral) {
  // Regression: a separator-bearing literal earlier on the line (or file)
  // must not hide a later banned call.
  const auto f = lint_source("src/core/x.cpp",
                             "wait_until(10'000);\n"
                             "int r = std::rand();\n");
  EXPECT_EQ(count_rule(f, "R1"), 1);
}

TEST(StripSource, LineCountMatchesInput) {
  const StrippedSource s = strip_source("a\nb\nc");
  ASSERT_EQ(s.code.size(), 3u);
  ASSERT_EQ(s.comments.size(), 3u);
}

// --- suppression syntax --------------------------------------------------

TEST(Suppression, RequiresRuleAndReason) {
  std::string reason;
  EXPECT_TRUE(has_suppression(" cograd-lint: allow(R2) proven membership",
                              "R2", &reason));
  EXPECT_EQ(reason, "proven membership");
  EXPECT_FALSE(has_suppression(" cograd-lint: allow(R2)", "R2"));  // no reason
  EXPECT_FALSE(has_suppression(" cograd-lint: allow(R1) why", "R2"));
  EXPECT_FALSE(has_suppression(" unrelated comment", "R2"));
}

// --- R1 ------------------------------------------------------------------

TEST(LintR1, FlagsBannedSources) {
  const auto f = lint_source("src/core/x.cpp",
                             "int a = std::rand();\n"
                             "auto t0 = std::chrono::steady_clock::now();\n"
                             "std::random_device rd;\n"
                             "srand(7);\n"
                             "auto t = time(nullptr);\n");
  EXPECT_EQ(count_rule(f, "R1"), 5);
}

TEST(LintR1, IgnoresLookalikes) {
  const auto f = lint_source("src/core/x.cpp",
                             "int time_point = 3;\n"
                             "double uptime(4);\n"
                             "int operand = 2;\n"
                             "log(\"call rand() here\");\n"
                             "// std::rand() in a comment\n");
  EXPECT_EQ(count_rule(f, "R1"), 0);
}

TEST(LintR1, BenchReportIsAllowlisted) {
  const std::string clock_call =
      "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_EQ(count_rule(lint_source("src/util/bench_report.cpp", clock_call),
                       "R1"),
            0);
  EXPECT_EQ(count_rule(lint_source("src/util/other.cpp", clock_call), "R1"),
            1);
}

TEST(LintR1, SuppressionOnSameOrPreviousLine) {
  const auto same = lint_source(
      "src/x.cpp",
      "auto t = time(nullptr);  // cograd-lint: allow(R1) boot banner only\n");
  ASSERT_EQ(same.size(), 1u);
  EXPECT_TRUE(same[0].suppressed);
  const auto above = lint_source(
      "src/x.cpp",
      "// cograd-lint: allow(R1) boot banner only\nauto t = time(nullptr);\n");
  ASSERT_EQ(above.size(), 1u);
  EXPECT_TRUE(above[0].suppressed);
}

// --- R2 ------------------------------------------------------------------

TEST(LintR2, FlagsUnorderedInSrcOnly) {
  const std::string decl = "std::unordered_map<int, int> m;\n";
  EXPECT_EQ(count_rule(lint_source("src/core/x.cpp", decl), "R2"), 1);
  EXPECT_EQ(count_rule(lint_source("tests/test_x.cpp", decl), "R2"), 0);
}

TEST(LintR2, IncludeLinesAreNotFlagged) {
  EXPECT_EQ(count_rule(lint_source("src/x.h", "#include <unordered_set>\n"),
                       "R2"),
            0);
}

TEST(LintR2, RangeForOverTrackedVariableFlaggedEverywhere) {
  const std::string text =
      "std::unordered_map<int, int> histogram;\n"
      "for (const auto& kv : histogram) use(kv);\n";
  // In bench/ the declaration itself is fine but iterating is not.
  EXPECT_EQ(count_rule(lint_source("bench/bench_x.cpp", text), "R2"), 1);
}

TEST(LintR2, IteratorWalkOverTrackedVariable) {
  const std::string text =
      "std::unordered_set<int> bag;\n"
      "auto it = bag.begin();\n";
  EXPECT_EQ(count_rule(lint_source("tools/x.cpp", text), "R2"), 1);
}

TEST(LintR2, ProofSuppressionAccepted) {
  const auto f = lint_source(
      "src/x.h",
      "// cograd-lint: allow(R2) membership-only, never iterated\n"
      "std::unordered_set<std::uint64_t> proposed_;\n");
  ASSERT_EQ(count_rule(f, "R2", /*include_suppressed=*/true), 1);
  EXPECT_EQ(count_rule(f, "R2"), 0);
}

// --- R3 ------------------------------------------------------------------

TEST(LintR3, FlagsLiteralSeededRngInSrc) {
  EXPECT_EQ(count_rule(lint_source("src/x.cpp", "Rng rng(12345);\n"), "R3"),
            1);
  EXPECT_EQ(count_rule(lint_source("src/x.cpp", "auto r = Rng(0xdead);\n"),
                       "R3"),
            1);
  EXPECT_EQ(count_rule(lint_source("src/x.cpp", "Rng rng(config.seed);\n"),
                       "R3"),
            0);
  EXPECT_EQ(count_rule(lint_source("src/x.cpp", "Rng rng(seeder());\n"),
                       "R3"),
            0);
}

TEST(LintR3, FlagsForeignEngines) {
  EXPECT_EQ(count_rule(lint_source("src/x.cpp", "std::mt19937_64 gen(s);\n"),
                       "R3"),
            1);
}

TEST(LintR3, TestsMayPinSeeds) {
  EXPECT_EQ(count_rule(lint_source("tests/test_x.cpp", "Rng rng(42);\n"),
                       "R3"),
            0);
}

TEST(LintR3, RngHeaderIsAllowlisted) {
  EXPECT_EQ(count_rule(lint_source("src/util/rng.h",
                                   "explicit Rng(std::uint64_t seed = "
                                   "0x9e3779b97f4a7c15ULL) noexcept;\n"),
                       "R3"),
            0);
}

// --- R4 ------------------------------------------------------------------

TEST(LintR4, FlagsPointerKeys) {
  EXPECT_EQ(count_rule(lint_source("src/x.cpp",
                                   "std::map<Protocol*, int> rank;\n"),
                       "R4"),
            1);
  EXPECT_EQ(count_rule(lint_source("tests/t.cpp",
                                   "std::set<const Node*> seen;\n"),
                       "R4"),
            1);
}

TEST(LintR4, PointerValuesAreFine) {
  EXPECT_EQ(count_rule(lint_source("src/x.cpp",
                                   "std::map<int, Protocol*> by_id;\n"),
                       "R4"),
            0);
  EXPECT_EQ(count_rule(lint_source("src/x.cpp",
                                   "std::vector<Protocol*> protocols;\n"),
                       "R4"),
            0);
}

// --- R5 ------------------------------------------------------------------

TEST(LintR5, FlagsUninitializedScalarMember) {
  const std::string text =
      "struct Stats {\n"
      "  std::int64_t slots = 0;\n"
      "  std::int64_t broadcasts;\n"
      "  double ratio;\n"
      "};\n";
  EXPECT_EQ(count_rule(lint_source("src/sim/trace.h", text), "R5"), 2);
  // Same text outside the serialization-header scope: silent.
  EXPECT_EQ(count_rule(lint_source("src/core/cogcast.h", text), "R5"), 0);
}

TEST(LintR5, InitializedAndNonScalarMembersPass) {
  const std::string text =
      "struct Stats {\n"
      "  std::int64_t slots = 0;\n"
      "  Message msg{};\n"
      "  std::string name;\n"
      "  std::vector<int> values;\n"
      "  std::int64_t energy() const;\n"
      "};\n";
  EXPECT_EQ(count_rule(lint_source("src/sim/trace.h", text), "R5"), 0);
}

TEST(LintR5, PrivateClassDetailsAreSkipped) {
  const std::string text =
      "struct Recorder {\n"
      "  int fields = 0;\n"
      " private:\n"
      "  bool armed;\n"
      "};\n";
  EXPECT_EQ(count_rule(lint_source("src/sim/recorder.h", text), "R5"), 0);
}

// --- R6 ------------------------------------------------------------------

TEST(LintR6, FlagsFloatLiteralEquality) {
  EXPECT_EQ(count_rule(lint_source("src/util/stats.cpp",
                                   "if (denom == 0.0) return fit;\n"),
                       "R6"),
            1);
  EXPECT_EQ(count_rule(lint_source("bench/bench_x.cpp",
                                   "bool base = q != 1.5;\n"),
                       "R6"),
            1);
}

TEST(LintR6, HarnessIsInScope) {
  EXPECT_EQ(count_rule(lint_source("src/harness/bench_suite.cpp",
                                   "if (ratio == 1.0) m.set(\"x\", 1);\n"),
                       "R6"),
            1);
}

TEST(LintR6, IntegerEqualityAndOtherScopesPass) {
  EXPECT_EQ(count_rule(lint_source("src/util/stats.cpp",
                                   "if (count == 0) return;\n"),
                       "R6"),
            0);
  EXPECT_EQ(count_rule(lint_source("src/core/cogcast.cpp",
                                   "if (gamma == 4.0) tune();\n"),
                       "R6"),
            0);
  EXPECT_EQ(count_rule(lint_source("src/util/stats.cpp",
                                   "if (a <= 0.5) return;\n"),
                       "R6"),
            0);
}

// --- LINT.json + --diff reference ----------------------------------------

std::vector<LintFinding> sample_findings() {
  return lint_source("src/core/x.cpp",
                     "int a = std::rand();\n"
                     "std::unordered_set<int> seen;\n");
}

TEST(LintJson, DeterministicAndParseable) {
  const auto findings = sample_findings();
  ASSERT_GE(findings.size(), 2u);
  const std::string one = findings_to_json(findings);
  const std::string two = findings_to_json(findings);
  EXPECT_EQ(one, two);
  std::string error;
  const auto doc = parse_json(one, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* list = doc->find("findings");
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->items().size(), findings.size());
  const JsonValue* counts = doc->find("counts");
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->find("total")->as_number(),
            static_cast<double>(findings.size()));
}

TEST(LintJson, SortedByFileLineRule) {
  std::vector<LintFinding> findings = sample_findings();
  std::reverse(findings.begin(), findings.end());
  const std::string out = findings_to_json(findings);
  EXPECT_LT(out.find("std::rand"), out.find("unordered_set"));
}

std::vector<ReferenceEntry> reference_of(
    const std::vector<LintFinding>& findings) {
  std::vector<ReferenceEntry> reference;
  std::string error;
  EXPECT_TRUE(parse_reference(findings_to_json(findings), &reference, &error))
      << error;
  return reference;
}

TEST(LintBaseline, RoundTripMasksKnownFindings) {
  std::vector<LintFinding> findings = sample_findings();
  const std::vector<ReferenceEntry> reference = reference_of(findings);
  EXPECT_EQ(reference.size(), findings.size());
  EXPECT_TRUE(apply_reference(findings, reference).empty());
  for (const LintFinding& f : findings) EXPECT_TRUE(f.baselined);
}

TEST(LintBaseline, LineNumberShiftsDoNotUnmask) {
  // A reference captured at one line number still carries its finding
  // over after unrelated lines are inserted above the site (keys ignore
  // line numbers); the pairing reports the entry as stale.
  const auto before = lint_source("src/x.cpp", "int a = std::rand();\n");
  const std::vector<ReferenceEntry> reference = reference_of(before);
  auto after =
      lint_source("src/x.cpp", "int pad = 0;\n\nint a = std::rand();\n");
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].line, 3);
  EXPECT_EQ(apply_reference(after, reference).size(), 1u);
  EXPECT_TRUE(after[0].baselined);
}

TEST(LintBaseline, ShiftedReferenceIsStale) {
  // A reference whose line numbers drifted still carries its findings
  // over (the keys ignore lines), but each drifted entry comes back stale.
  const auto before = lint_source(
      "src/x.cpp", "int a = std::rand();\nint b = std::rand();\n");
  const std::vector<ReferenceEntry> reference = reference_of(before);
  ASSERT_EQ(reference.size(), 2u);
  EXPECT_EQ(reference[0].line, 1);
  EXPECT_EQ(reference[0].status, "active");
  auto same = before;
  EXPECT_TRUE(apply_reference(same, reference).empty());

  // One line inserted above the second site only: it moves, the first
  // does not.
  auto after = lint_source(
      "src/x.cpp", "int a = std::rand();\n\nint b = std::rand();\n");
  const std::vector<StaleEntry> stale = apply_reference(after, reference);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].finding.line, 3);
  EXPECT_EQ(stale[0].status, "active");
  EXPECT_EQ(stale[0].listed_line, 2);
  EXPECT_EQ(stale[0].listed_status, "active");

  // A status the reference no longer matches is stale too.
  auto suppressed = before;
  suppressed[1].suppressed = true;
  const std::vector<StaleEntry> flipped =
      apply_reference(suppressed, reference);
  ASSERT_EQ(flipped.size(), 1u);
  EXPECT_EQ(flipped[0].finding.line, 2);
  EXPECT_EQ(flipped[0].status, "suppressed");
  EXPECT_EQ(flipped[0].listed_status, "active");

  // A new finding that shares the key of a listed one pairs with nothing,
  // and leaves the listed one in place.
  auto added = lint_source(
      "src/x.cpp",
      "int a = std::rand();\nint b = std::rand();\nint b = std::rand();\n");
  EXPECT_TRUE(apply_reference(added, reference).empty());
}

TEST(LintBaseline, SameLineEntryPairsBeforeLineOrder) {
  // The reference lists the site once, at line 2; an identical site is
  // then added above it. The listed site pairs with its own entry and is
  // carried over; the added one at line 1 is new, and nothing is stale.
  const std::vector<ReferenceEntry> reference = reference_of(
      lint_source("src/x.cpp", "int pad = 0;\nint a = std::rand();\n"));
  ASSERT_EQ(reference.size(), 1u);
  ASSERT_EQ(reference[0].line, 2);
  auto findings = lint_source(
      "src/x.cpp", "int a = std::rand();\nint a = std::rand();\n");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_TRUE(apply_reference(findings, reference).empty());
  for (const LintFinding& f : findings)
    EXPECT_EQ(f.baselined, f.line == 2) << "line " << f.line;
}

TEST(LintBaseline, NewFindingsStayActive) {
  const auto before = lint_source("src/x.cpp", "int a = std::rand();\n");
  const std::vector<ReferenceEntry> reference = reference_of(before);
  auto after = lint_source("src/x.cpp",
                           "int a = std::rand();\nsrand(9);\n");
  apply_reference(after, reference);
  int active = 0;
  for (const LintFinding& f : after)
    if (!f.baselined && !f.suppressed) ++active;
  EXPECT_EQ(active, 1);  // the new srand site
}

TEST(LintBaseline, RejectsMalformedDocuments) {
  std::vector<ReferenceEntry> reference;
  std::string error;
  EXPECT_FALSE(parse_reference("not json", &reference, &error));
  EXPECT_FALSE(parse_reference("{\"no_findings\": 1}", &reference, &error));
}

// --- preprocessor masking ------------------------------------------------

TEST(MaskDisabled, If0BlanksItsBranch) {
  StrippedSource s = strip_source("#if 0\nstd::rand();\n#endif\nok;\n");
  mask_disabled_regions(s);
  EXPECT_EQ(s.code[1].find("rand"), std::string::npos);
  EXPECT_EQ(s.code[3], "ok;");
}

TEST(MaskDisabled, ElseOfIf0IsEnabled) {
  StrippedSource s = strip_source("#if 0\ndead;\n#else\nlive;\n#endif\n");
  mask_disabled_regions(s);
  EXPECT_EQ(s.code[1].find("dead"), std::string::npos);
  EXPECT_NE(s.code[3].find("live"), std::string::npos);
}

TEST(MaskDisabled, If1KeepsThenBlanksElse) {
  StrippedSource s = strip_source("#if 1\nlive;\n#else\ndead;\n#endif\n");
  mask_disabled_regions(s);
  EXPECT_NE(s.code[1].find("live"), std::string::npos);
  EXPECT_EQ(s.code[3].find("dead"), std::string::npos);
}

TEST(MaskDisabled, UnknownConditionsKeepEveryBranch) {
  StrippedSource s = strip_source(
      "#ifdef FEATURE_X\none;\n#else\ntwo;\n#endif\n");
  mask_disabled_regions(s);
  EXPECT_NE(s.code[1].find("one"), std::string::npos);
  EXPECT_NE(s.code[3].find("two"), std::string::npos);
}

TEST(MaskDisabled, NestedRegionsStayDisabled) {
  StrippedSource s = strip_source(
      "#if 0\n#if 1\ninner;\n#endif\nouter;\n#endif\ntail;\n");
  mask_disabled_regions(s);
  EXPECT_EQ(s.code[2].find("inner"), std::string::npos);
  EXPECT_EQ(s.code[4].find("outer"), std::string::npos);
  EXPECT_EQ(s.code[6], "tail;");
}

TEST(MaskDisabled, DisabledCodeProducesNoFindings) {
  const auto f = lint_source("src/core/x.cpp",
                             "#if 0\nint a = std::rand();\n#endif\n");
  EXPECT_EQ(count_rule(f, "R1"), 0);
}

// --- R8 ------------------------------------------------------------------

TEST(LintR8, FlagsRawSpawnsOutsideTheAllowlist) {
  EXPECT_EQ(count_rule(lint_source("src/core/x.cpp",
                                   "std::thread t([] {});\n"),
                       "R8"),
            1);
  EXPECT_EQ(count_rule(lint_source("src/analysis/x.cpp",
                                   "auto f = std::async(std::launch::async, "
                                   "fn);\n"),
                       "R8"),
            1);
  EXPECT_EQ(count_rule(lint_source("src/core/x.cpp", "worker.detach();\n"),
                       "R8"),
            1);
}

TEST(LintR8, PoolSitesAreAllowlisted) {
  const std::string spawn = "std::thread t([] {});\n";
  EXPECT_EQ(count_rule(lint_source("src/util/sweep.cpp", spawn), "R8"), 0);
  EXPECT_EQ(count_rule(lint_source("src/serve/server.cpp", spawn), "R8"), 0);
}

TEST(LintR8, SuppressionWithReasonAccepted) {
  const auto f = lint_source(
      "tests/test_x.cpp",
      "// cograd-lint: allow(R8) test races real client threads\n"
      "std::thread t([] {});\n");
  ASSERT_EQ(count_rule(f, "R8", /*include_suppressed=*/true), 1);
  EXPECT_EQ(count_rule(f, "R8"), 0);
}

// --- R9 ------------------------------------------------------------------

TEST(LintR9, UnlockedTouchOfGuardedMemberIsFlagged) {
  const std::string text =
      "class Counter {\n"
      " public:\n"
      "  void bad() {\n"
      "    ++hits_;\n"
      "  }\n"
      "  void good() {\n"
      "    std::lock_guard<std::mutex> lock(mu_);\n"
      "    ++hits_;\n"
      "  }\n"
      "  void flush_locked() {\n"
      "    hits_ = 0;\n"
      "  }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  int hits_ = 0;  // cograd-guarded-by(mu_)\n"
      "};\n";
  const auto f = lint_source("src/util/counter.h", text);
  ASSERT_EQ(count_rule(f, "R9"), 1);
  for (const LintFinding& finding : f) {
    if (finding.rule == "R9") {
      EXPECT_EQ(finding.line, 4);
    }
  }
}

TEST(LintR9, UnannotatedMembersAreNotTracked) {
  const auto f = lint_source("src/util/counter.h",
                             "class C {\n"
                             "  void bump() { ++hits_; }\n"
                             "  int hits_ = 0;\n"
                             "};\n");
  EXPECT_EQ(count_rule(f, "R9"), 0);
}

// --- R10 -----------------------------------------------------------------

TEST(LintR10, ForeignSeedInsideSweepBodyIsFlagged) {
  const std::string text =
      "ParallelSweep pool(4);\n"
      "pool.run(n, [&](int t) {\n"
      "  Rng rng(shared_seed);\n"
      "  use(rng.below(10));\n"
      "});\n";
  EXPECT_GE(count_rule(lint_source("src/sim/x.cpp", text), "R10"), 1);
}

TEST(LintR10, TrialRngStreamIsSanctioned) {
  const std::string text =
      "ParallelSweep pool(4);\n"
      "pool.run(n, [&](int t) {\n"
      "  Rng rng = trial_rng(base_seed, static_cast<std::uint64_t>(t));\n"
      "  use(rng.below(10));\n"
      "});\n";
  EXPECT_EQ(count_rule(lint_source("src/sim/x.cpp", text), "R10"), 0);
}

TEST(LintR10, GeneratorsDerivedFromTheTrialStreamPass) {
  const std::string text =
      "ParallelSweep pool(4);\n"
      "pool.run(n, [&](int t) {\n"
      "  Rng rng = trial_rng(base_seed, static_cast<std::uint64_t>(t));\n"
      "  Rng child(rng());\n"
      "  use(child.below(4));\n"
      "});\n";
  EXPECT_EQ(count_rule(lint_source("src/sim/x.cpp", text), "R10"), 0);
}

TEST(LintR10, ForeignGeneratorInsideSweepOutcomesBodyIsFlagged) {
  const std::string text =
      "const auto runs = sweep_outcomes(trials, seed, jobs, [&](Rng& rng) {\n"
      "  Rng other(shared_seed);\n"
      "  return other.below(10) + rng.below(2);\n"
      "});\n";
  EXPECT_EQ(count_rule(lint_source("src/harness/x.cpp", text), "R10"), 1);
  const std::string trials_text =
      "auto xs = sweep_trials(trials, seed, jobs,\n"
      "    [&](Rng& rng) -> std::optional<double> {\n"
      "      return rng_.uniform();\n"
      "    });\n";
  EXPECT_EQ(count_rule(lint_source("bench/bench_x.cpp", trials_text), "R10"),
            1);
}

TEST(LintR10, SweepOutcomesTrialStreamPasses) {
  const std::string text =
      "const auto runs = sweep_outcomes(trials, seed, jobs, [&](Rng& rng) {\n"
      "  const std::uint64_t s1 = rng();\n"
      "  Rng child(s1);\n"
      "  return child.below(10) + rng.below(2);\n"
      "});\n"
      "Rng after(config.seed);\n"
      "use(after.below(3));\n";
  EXPECT_EQ(count_rule(lint_source("src/harness/x.cpp", text), "R10"), 0);
}

TEST(LintR10, DrawsOutsideSweepBodiesAreNotItsBusiness) {
  const auto f = lint_source("src/sim/x.cpp",
                             "Rng rng(config.seed);\n"
                             "use(rng.below(10));\n");
  EXPECT_EQ(count_rule(f, "R10"), 0);
}

// --- R11 -----------------------------------------------------------------

TEST(LintR11, UncoveredRegexBranchIsFlagged) {
  const std::string yml = "      - run: ctest -R '(Sweep|Ghost)' -j 2\n";
  const auto f = check_ci_coverage(yml, ".github/workflows/ci.yml",
                                   {"SweepDeterminism", "cograd.lint"});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "R11");
  EXPECT_NE(f[0].message.find("Ghost"), std::string::npos);
}

TEST(LintR11, CoveredAndMetacharBranchesPass) {
  // Every branch matches a test, and the metachar-bearing branch is
  // conservatively skipped rather than string-matched.
  const std::string yml =
      "      - run: ctest -R '(Sweep|Serve)'\n"
      "      - run: ctest -R 'Sha.*rd'\n";
  const auto f = check_ci_coverage(yml, ".github/workflows/ci.yml",
                                   {"SweepDeterminism", "ServeProtocol"});
  EXPECT_TRUE(f.empty());
}

TEST(LintR11, BarePatternAndSuppression) {
  const auto bare = check_ci_coverage("      - run: ctest -R Ghost\n",
                                      ".github/workflows/ci.yml",
                                      {"SweepDeterminism"});
  ASSERT_EQ(bare.size(), 1u);
  EXPECT_FALSE(bare[0].suppressed);
  const auto allowed = check_ci_coverage(
      "      # cograd-lint: allow(R11) leg gates a suite added next commit\n"
      "      - run: ctest -R Ghost\n",
      ".github/workflows/ci.yml", {"SweepDeterminism"});
  ASSERT_EQ(allowed.size(), 1u);
  EXPECT_TRUE(allowed[0].suppressed);
}

// --- R12 (file-local half) ----------------------------------------------

TEST(LintR12, UnknownRuleInDirective) {
  const auto f = lint_source("src/x.cpp",
                             "// cograd-lint: allow(R99) mystery rule\n"
                             "int a = 0;\n");
  EXPECT_EQ(count_rule(f, "R12"), 1);
}

TEST(LintR12, MissingReasonIsItselfAFinding) {
  const auto f = lint_source("src/x.cpp",
                             "// cograd-lint: allow(R2)\n"
                             "std::unordered_set<int> s;\n");
  // The reasonless directive is an R12 hit AND fails to suppress the R2.
  EXPECT_EQ(count_rule(f, "R12"), 1);
  EXPECT_EQ(count_rule(f, "R2"), 1);
}

TEST(LintR12, MalformedDirective) {
  const auto f = lint_source("src/x.cpp",
                             "// cograd-lint: allow R2 forgot the parens\n"
                             "int a = 0;\n");
  EXPECT_EQ(count_rule(f, "R12"), 1);
}

// --- schema v2 -----------------------------------------------------------

TEST(LintRules, SeverityAndDocCatalog) {
  EXPECT_EQ(rule_severity("R1"), "error");
  EXPECT_EQ(rule_severity("R5"), "warning");
  EXPECT_EQ(rule_severity("R6"), "warning");
  EXPECT_EQ(rule_severity("R7"), "error");
  EXPECT_EQ(rule_severity("R11"), "error");
  EXPECT_EQ(rule_severity("R12"), "warning");
  EXPECT_EQ(rule_doc("R7"), "docs/LINT.md#r7");
  EXPECT_EQ(rule_doc("R10"), "docs/LINT.md#r10");
}

TEST(LintJson, SchemaV2CarriesSeverityDocAndFixit) {
  std::vector<LintFinding> findings = sample_findings();
  ASSERT_GE(findings.size(), 1u);
  findings[0].fixit = "use trial_rng(base_seed, t)";
  const std::string out = findings_to_json(findings);
  EXPECT_NE(out.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(out.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_NE(out.find("\"doc\": \"docs/LINT.md#r1\""), std::string::npos);
  EXPECT_NE(out.find("\"fixit\": \"use trial_rng(base_seed, t)\""),
            std::string::npos);
  // The fixit key is emitted only where a hint exists.
  const std::string bare = findings_to_json(sample_findings());
  EXPECT_EQ(bare.find("\"fixit\""), std::string::npos);
}

TEST(LintBaseline, ParsesSchemaV1Documents) {
  // A manifest written before the schema bump (no severity/doc fields) is
  // not a reference: --diff rejects it and names the schema it wants.
  const std::string v1 =
      "{\n"
      "  \"schema_version\": 1,\n"
      "  \"findings\": [\n"
      "    {\"rule\": \"R1\", \"file\": \"src/x.cpp\", \"line\": 1,\n"
      "     \"status\": \"active\", \"snippet\": \"int a = std::rand();\",\n"
      "     \"message\": \"m\"}\n"
      "  ]\n"
      "}\n";
  std::vector<ReferenceEntry> reference;
  std::string error;
  EXPECT_FALSE(parse_reference(v1, &reference, &error));
  EXPECT_NE(error.find("schema_version"), std::string::npos) << error;
  EXPECT_NE(error.find('2'), std::string::npos) << error;
  EXPECT_TRUE(reference.empty());
}

TEST(LintBaseline, RejectsFutureSchemaVersions) {
  std::vector<ReferenceEntry> reference;
  std::string error;
  EXPECT_FALSE(parse_reference("{\"schema_version\": 3, \"findings\": []}",
                               &reference, &error));
}

}  // namespace
}  // namespace cogradio
