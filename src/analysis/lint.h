// cograd lint — a determinism & model-soundness linter for this tree.
//
// Every quantitative claim the repository reproduces rests on the promise
// that a (seed, trial) pair fully determines a run: trial_rng (util/sweep.h)
// makes trials pure functions of (base_seed, t), ParallelSweep keeps results
// bit-identical for any --jobs, and the bench gate diffs manifests across
// machines. One std::rand(), one iteration over an unordered_map, or one
// wall-clock read in a metric path silently invalidates all of it. This
// module statically defends the contract with a from-scratch C++ source
// scanner (comment/string/raw-string aware, no libclang) and twelve project
// rules; docs/LINT.md is the per-rule catalog with examples and
// docs/DETERMINISM.md the companion prose.
//
//   R1  banned nondeterminism sources: rand/srand/random_device/time(/
//       clock(/gettimeofday and any *_clock identifier. The only sanctioned
//       clock call site is util/bench_report.cpp (monotonic_seconds — the
//       volatile-manifest allowlist).
//   R2  unordered containers in result-affecting code (src/): iteration
//       order is implementation-defined, so every unordered_map/set must be
//       replaced by a sorted structure or carry a membership-only proof
//       suppression. Range-fors over unordered values are flagged in every
//       scanned directory.
//   R3  RNG discipline (src/): no literal-seeded Rng construction and no
//       <random> engines (mt19937 & co.) — randomness must flow from
//       trial_rng(seed, t) or a caller-provided seed. util/rng.h (the
//       engine definition itself) is allowlisted.
//   R4  pointer-keyed containers (map<T*, ...>, set<T*>): address order
//       varies run to run and across ASLR.
//   R5  uninitialized scalar members in serialization-facing structs
//       (sim/types.h, sim/trace.h, sim/message.h, sim/protocol.h,
//       sim/network.h, sim/backoff.h, sim/recorder.h, sim/agg_payload.h,
//       util/bench_report.h, serve/*.h): indeterminate bytes leak into
//       Trace/manifest output.
//   R6  float equality against literals in metric/gate code (src/util/,
//       src/analysis/, bench/): exact comparison of computed doubles is a
//       latent flake.
//   R7  include-graph layering (include_graph.h): quoted includes may only
//       point at the includer's module or a lower-ranked one
//       (util -> {sim, analysis} -> {core, agg, lowerbounds, baselines} ->
//       serve -> tools/bench/tests), and the module graph must be acyclic.
//   R8  thread-spawn discipline: raw std::thread / std::async / .detach()
//       anywhere but the sanctioned pool sites (src/util/sweep.cpp,
//       src/serve/server.cpp) escapes the pools' join and shutdown paths.
//   R9  guarded-by annotations: a member declared with a trailing
//       '// cograd-guarded-by(mu_)' comment may only be touched in scopes
//       that lock mu_ (std::lock_guard/unique_lock/scoped_lock naming it)
//       or inside a *_locked function (the caller-holds-the-lock
//       convention).
//   R10 RNG draws inside parallel regions: any Rng construction or draw
//       lexically inside a ParallelSweep task body is a hard error unless
//       the generator is the trial's own trial_rng(base_seed, t) stream —
//       every other coin is spent serially, outside the region.
//   R11 CI filter coverage: every literal branch of a ctest -R regex in
//       .github/workflows/ci.yml must match at least one registered test,
//       so a renamed suite cannot silently drop out of a sanitizer leg.
//   R12 suppression hygiene: every allow() needs a known rule and a
//       non-empty site-specific reason; exact-duplicate reasons and stale
//       suppressions (no finding left to suppress) are findings themselves.
//
// Per-site suppression:  // cograd-lint: allow(R2) <non-empty reason>
// on the finding's line or the line directly above it. `cograd lint
// --diff REF.json` (tools/cograd.cpp) carries over the findings that REF
// lists: they are reported as baselined and do not fail the run.
#pragma once

#include <string>
#include <vector>

namespace cogradio {

struct LintFinding {
  std::string rule;     // "R1".."R12"
  std::string file;     // tree-relative path, '/'-separated
  int line = 0;         // 1-based
  std::string snippet;  // trimmed source line the finding anchors to
  std::string message;  // human diagnostic with the rule's rationale
  std::string fixit;    // optional machine-free remediation hint ("" = none)
  bool suppressed = false;  // an allow(R*) comment covers the site
  bool baselined = false;   // carried over from the --diff reference
};

struct LintStats {
  int files_scanned = 0;
  int findings = 0;  // total, including suppressed and baselined
  int active = 0;    // neither suppressed nor baselined => exit nonzero
};

// Severity a rule reports at: "error" for determinism/layering breakers,
// "warning" for the heuristic hygiene rules (R5, R6, R12).
std::string rule_severity(const std::string& rule);

// Stable catalog URL for a rule: "docs/LINT.md#r7".
std::string rule_doc(const std::string& rule);

// Source text after lexical stripping: per-line code with comment text
// removed and string/char-literal *contents* blanked (delimiters kept), and
// per-line comment text (for suppression scanning). Handles // and /* */
// comments, line-spliced // comments (trailing backslash), escaped quotes,
// and R"delim(...)delim" raw strings — `rand(` inside a raw string is not
// code.
struct StrippedSource {
  std::vector<std::string> code;
  std::vector<std::string> comments;
};
StrippedSource strip_source(const std::string& text);

// Blanks code lines inside preprocessor-disabled regions so they cannot
// contribute findings or include-graph edges: '#if 0' disables its branch
// ('#else' re-enables), '#if 1' enables its branch ('#else'/'#elif'
// disables), and any other condition is conservatively treated as enabled
// on every branch. Comment text is left untouched.
void mask_disabled_regions(StrippedSource& src);

// True iff `comment` contains "cograd-lint: allow(<rule>)" followed by a
// non-empty reason; the reason is returned through `reason` when non-null.
bool has_suppression(const std::string& comment, const std::string& rule,
                     std::string* reason = nullptr);

// Lints one file's contents with the per-file rules (R1-R6, R8-R10 and the
// file-local half of R12). `rel_path` (tree-relative, '/'-separated)
// selects rule scopes and allowlists; findings carry it verbatim. The
// cross-file rules (R7, R11, the global half of R12, and header/source
// guarded-by merging for R9) only run under lint_tree.
std::vector<LintFinding> lint_source(const std::string& rel_path,
                                     const std::string& text);

// R11: checks every literal branch of a `ctest ... -R '<regex>'` filter in
// the CI workflow text against the registered test identifiers (gtest
// "Suite" names and add_test NAMEs). Branches containing regex metachars
// are conservatively skipped; a `# cograd-lint: allow(R11) <reason>`
// comment on the same or previous line suppresses the branch's findings.
std::vector<LintFinding> check_ci_coverage(
    const std::string& ci_yaml_text, const std::string& rel_path,
    const std::vector<std::string>& test_ids);

// Walks tree_root/{src,bench,tools,tests} (skipping dot-directories and
// any directory named "lint_fixtures"), lints every .h/.hpp/.cc/.cpp in
// lexicographic path order, then runs the cross-file stage: R9 guarded-by
// maps merged across header/source siblings, the R7 include graph, R11
// against .github/workflows/ci.yml, and the global R12 duplicate/stale
// suppression audit. `stats` receives totals when non-null. `jobs` > 1
// scans files on a ParallelSweep pool; output is byte-identical for any
// jobs value (per-file results land in per-file slots, the cross-file
// stage is serial in file order).
std::vector<LintFinding> lint_tree(const std::string& tree_root,
                                   LintStats* stats = nullptr, int jobs = 1);

// Stable identity for pairing a finding with a reference entry: rule +
// file + whitespace-normalized snippet. Line numbers are excluded so
// unrelated edits above a site still pair it with its entry.
std::string finding_key(const LintFinding& f);

// Serializes findings as the deterministic LINT.json manifest (schema 2):
// sorted by (file, line, rule), per-finding severity and rule-doc link,
// fix-it hint when one exists, no timestamps or absolute paths —
// byte-identical across runs and --jobs values on the same tree.
std::string findings_to_json(const std::vector<LintFinding>& findings);

// One entry of a `cograd lint --diff` reference, a LINT.json that
// `cograd lint --json` wrote: the entry's key and the line and status it
// records.
struct ReferenceEntry {
  std::string key;
  int line = 0;
  std::string status;
};

// Parses a reference manifest. Returns false and sets `error` on malformed
// JSON, on a document without "schema_version": 2, or on a finding that
// lacks its rule, file, line, status or snippet.
bool parse_reference(const std::string& text,
                     std::vector<ReferenceEntry>* entries,
                     std::string* error = nullptr);

// A finding that a reference lists under its key, but at another line or
// with another status: the reference has gone stale. `status` is the
// finding's, "suppressed" or "active", as `cograd lint --json` writes it.
struct StaleEntry {
  LintFinding finding;
  std::string status;
  int listed_line = 0;
  std::string listed_status;
};

// Pairs findings with reference entries, one pairing per key: a finding
// first takes an entry at its own line and status, then the findings and
// entries left over pair in line order. Every paired finding is carried
// over (marked baselined; a suppressed one still reports as suppressed),
// and those paired at another line or status come back as stale, sorted
// by (file, line). A finding left unpaired is new; an entry left unpaired
// names a finding that is gone.
std::vector<StaleEntry> apply_reference(
    std::vector<LintFinding>& findings,
    const std::vector<ReferenceEntry>& reference);

}  // namespace cogradio
