// Core of cograd lint: lexical stripping, the tree walk, the cross-file
// analysis stage (R7 include graph, R9 sibling merge, R11 CI coverage,
// global R12 suppression audit), the LINT.json schema-2 writer, and the
// pairing of findings with a --diff reference. The per-file rule scanners
// live in lint_rules.cpp; the include-graph builder in include_graph.cpp.
#include "analysis/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "analysis/include_graph.h"
#include "analysis/lint_internal.h"
#include "util/json.h"
#include "util/sweep.h"

namespace cogradio {

using lintdetail::ident_char;
using lintdetail::skip_ws;
using lintdetail::split_lines;
using lintdetail::trim;

namespace {

const char* status_name(const LintFinding& f) {
  if (f.suppressed) return "suppressed";
  if (f.baselined) return "baselined";
  return "active";
}

}  // namespace

std::string rule_severity(const std::string& rule) {
  if (rule == "R5" || rule == "R6" || rule == "R12") return "warning";
  return "error";
}

std::string rule_doc(const std::string& rule) {
  std::string anchor = rule;
  for (char& c : anchor)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return "docs/LINT.md#" + anchor;
}

StrippedSource strip_source(const std::string& text) {
  enum class State { Normal, LineComment, BlockComment, Str, Chr, RawStr };
  StrippedSource out;
  std::string code, comment, raw_delim;
  State state = State::Normal;
  const auto flush_line = [&] {
    out.code.push_back(code);
    out.comments.push_back(comment);
    code.clear();
    comment.clear();
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      // A line comment continues across a spliced newline (trailing '\').
      if (state == State::LineComment) state = State::Normal;
      flush_line();
      continue;
    }
    switch (state) {
      case State::Normal:
        if (c == '/' && next == '/') {
          state = State::LineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::BlockComment;
          ++i;
        } else if (c == '"') {
          // Raw-string detection: the identifier run directly before the
          // quote must be R, uR, UR, LR or u8R.
          std::size_t b = code.size();
          while (b > 0 && ident_char(code[b - 1])) --b;
          const std::string prefix = code.substr(b);
          if (prefix == "R" || prefix == "uR" || prefix == "UR" ||
              prefix == "LR" || prefix == "u8R") {
            raw_delim.clear();
            std::size_t j = i + 1;
            while (j < text.size() && text[j] != '(') {
              raw_delim.push_back(text[j]);
              ++j;
            }
            i = j;  // consume up to and including '('
            code.push_back('"');
            state = State::RawStr;
          } else {
            code.push_back('"');
            state = State::Str;
          }
        } else if (c == '\'') {
          // Digit-separator lookback (C++14): a ' glued to a token that
          // starts with a digit (10'000, 0xc09'7ad) separates digits and
          // does not open a char literal. Char-literal prefixes (u8'a',
          // L'x') start with a letter and fall through to Chr.
          std::size_t b = code.size();
          while (b > 0 && (ident_char(code[b - 1]) || code[b - 1] == '\''))
            --b;
          const bool digit_separator =
              b < code.size() &&
              std::isdigit(static_cast<unsigned char>(code[b]));
          code.push_back('\'');
          if (!digit_separator) state = State::Chr;
        } else {
          code.push_back(c);
        }
        break;
      case State::LineComment:
        if (c == '\\' && next == '\n') {
          // Spliced comment: swallow the newline, stay in the comment but
          // still account the physical line.
          comment.push_back(c);
          flush_line();
          ++i;
        } else {
          comment.push_back(c);
        }
        break;
      case State::BlockComment:
        if (c == '*' && next == '/') {
          state = State::Normal;
          ++i;
        } else {
          comment.push_back(c);
        }
        break;
      case State::Str:
        if (c == '\\' && next != '\0') {
          code.push_back(' ');
          if (next != '\n') {
            code.push_back(' ');
            ++i;
          }
        } else if (c == '"') {
          code.push_back('"');
          state = State::Normal;
        } else {
          code.push_back(' ');
        }
        break;
      case State::Chr:
        if (c == '\\' && next != '\0') {
          code.push_back(' ');
          code.push_back(' ');
          ++i;
        } else if (c == '\'') {
          code.push_back('\'');
          state = State::Normal;
        } else {
          code.push_back(' ');
        }
        break;
      case State::RawStr: {
        const std::string closer = ")" + raw_delim + "\"";
        if (c == ')' && text.compare(i, closer.size(), closer) == 0) {
          i += closer.size() - 1;
          code.push_back('"');
          state = State::Normal;
        } else {
          code.push_back(' ');
        }
        break;
      }
    }
  }
  flush_line();
  return out;
}

void mask_disabled_regions(StrippedSource& src) {
  // Branch state per open conditional:
  //   0 = disabled   (#if 0 branch; #else flips it to 1)
  //   1 = enabled    (#if 1 branch; #else/#elif flip it to 3)
  //   2 = unknown    (condition not a literal — every branch stays enabled)
  //   3 = disabled-rest (a literal-true branch was already taken)
  std::vector<int> stack;
  for (std::string& code : src.code) {
    std::string keyword, cond;
    const std::size_t hash = skip_ws(code, 0);
    if (hash < code.size() && code[hash] == '#') {
      std::size_t k = skip_ws(code, hash + 1);
      std::size_t j = k;
      while (j < code.size() && ident_char(code[j])) ++j;
      keyword = code.substr(k, j - k);
      cond = trim(code.substr(j));
    }
    bool conditional = true;
    if (keyword == "if") {
      stack.push_back(cond == "0" ? 0 : cond == "1" ? 1 : 2);
    } else if (keyword == "ifdef" || keyword == "ifndef") {
      stack.push_back(2);
    } else if (keyword == "elif" && !stack.empty()) {
      int& m = stack.back();
      if (m == 0)
        m = cond == "0" ? 0 : cond == "1" ? 1 : 2;
      else if (m == 1)
        m = 3;
    } else if (keyword == "else" && !stack.empty()) {
      int& m = stack.back();
      if (m == 0)
        m = 1;
      else if (m == 1)
        m = 3;
    } else if (keyword == "endif") {
      if (!stack.empty()) stack.pop_back();
    } else {
      conditional = false;
    }
    bool disabled = false;
    for (int m : stack)
      if (m == 0 || m == 3) disabled = true;
    // Conditional directives survive (they drive the nesting bookkeeping
    // above); everything else in a disabled region — including #include
    // and #define lines — is blanked so no rule ever sees it.
    if (disabled && !conditional) code.clear();
  }
}

bool has_suppression(const std::string& comment, const std::string& rule,
                     std::string* reason) {
  const std::string marker = "cograd-lint:";
  const std::size_t at = comment.find(marker);
  if (at == std::string::npos) return false;
  std::size_t i = skip_ws(comment, at + marker.size());
  const std::string allow = "allow(";
  if (comment.compare(i, allow.size(), allow) != 0) return false;
  i += allow.size();
  const std::size_t close = comment.find(')', i);
  if (close == std::string::npos) return false;
  if (trim(comment.substr(i, close - i)) != rule) return false;
  const std::string rest = trim(comment.substr(close + 1));
  if (rest.empty()) return false;  // a reason is mandatory
  if (reason != nullptr) *reason = rest;
  return true;
}

std::vector<LintFinding> lint_source(const std::string& rel_path,
                                     const std::string& text) {
  lintdetail::FileScan scan = lintdetail::scan_file(rel_path, text);
  // Single-file mode sees only its own guarded-by annotations; lint_tree
  // merges annotations across header/source siblings before this step.
  lintdetail::scan_r9(scan, scan.guarded, scan.guarded_lines);
  return std::move(scan.findings);
}

// --- R11: CI filter coverage ---------------------------------------------

namespace {

bool regex_metachars(const std::string& branch) {
  return branch.find_first_of(".*+?[](){}\\^$") != std::string::npos;
}

// Splits a -R pattern into top-level alternation branches, stripping one
// fully-wrapping layer of parens: "(A|B)" -> {"A", "B"}.
std::vector<std::string> alternation_branches(std::string pattern) {
  if (pattern.size() >= 2 && pattern.front() == '(' &&
      pattern.back() == ')') {
    int depth = 0;
    bool wraps = true;
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      if (pattern[i] == '(') ++depth;
      if (pattern[i] == ')' && --depth == 0 && i + 1 < pattern.size())
        wraps = false;
    }
    if (wraps) pattern = pattern.substr(1, pattern.size() - 2);
  }
  std::vector<std::string> branches;
  std::string branch;
  int depth = 0;
  for (char c : pattern) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == '|' && depth == 0) {
      branches.push_back(trim(branch));
      branch.clear();
      continue;
    }
    branch.push_back(c);
  }
  branches.push_back(trim(branch));
  return branches;
}

}  // namespace

std::vector<LintFinding> check_ci_coverage(
    const std::string& ci_yaml_text, const std::string& rel_path,
    const std::vector<std::string>& test_ids) {
  std::vector<LintFinding> findings;
  const std::vector<std::string> lines = split_lines(ci_yaml_text);
  for (std::size_t l = 0; l < lines.size(); ++l) {
    const std::string& line = lines[l];
    // YAML/shell comment text is not a filter: prose like "the ctest -R
    // regex" after a '#' must not be parsed as a pattern. Suppression
    // directives still live in comments; has_suppression below sees the
    // full line.
    const std::size_t comment_at = line.find('#');
    std::size_t pos = 0;
    while ((pos = line.find("-R", pos)) != std::string::npos &&
           pos < comment_at) {
      const bool word_start = pos == 0 || std::isspace(static_cast<unsigned char>(
                                              line[pos - 1]));
      std::size_t i = pos + 2;
      if (!word_start || i >= line.size() ||
          !std::isspace(static_cast<unsigned char>(line[i]))) {
        pos += 2;
        continue;
      }
      i = skip_ws(line, i);
      std::string pattern;
      if (i < line.size() && (line[i] == '\'' || line[i] == '"')) {
        const std::size_t close = line.find(line[i], i + 1);
        if (close == std::string::npos) break;
        pattern = line.substr(i + 1, close - i - 1);
        pos = close + 1;
      } else {
        std::size_t j = i;
        while (j < line.size() &&
               !std::isspace(static_cast<unsigned char>(line[j])))
          ++j;
        pattern = line.substr(i, j - i);
        pos = j;
      }
      const bool suppressed =
          has_suppression(line, "R11") ||
          (l > 0 && has_suppression(lines[l - 1], "R11"));
      for (const std::string& branch : alternation_branches(pattern)) {
        if (branch.empty() || regex_metachars(branch)) continue;
        bool covered = false;
        for (const std::string& id : test_ids)
          if (id.find(branch) != std::string::npos) covered = true;
        if (covered) continue;
        LintFinding f;
        f.rule = "R11";
        f.file = rel_path;
        f.line = static_cast<int>(l) + 1;
        f.snippet = trim(line);
        f.message = "ctest filter branch '" + branch +
                    "' matches none of the " +
                    std::to_string(test_ids.size()) +
                    " registered test identifiers: a renamed or deleted "
                    "suite silently drops out of this CI leg";
        f.fixit =
            "update the -R filter, or rename a test so the branch matches";
        f.suppressed = suppressed;
        findings.push_back(std::move(f));
      }
    }
  }
  return findings;
}

// --- tree walk + cross-file stage ----------------------------------------

namespace {

namespace fs = std::filesystem;

void collect_files(const fs::path& dir, std::vector<fs::path>& out) {
  std::vector<fs::path> entries;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec))
    entries.push_back(entry.path());
  std::sort(entries.begin(), entries.end());
  for (const fs::path& path : entries) {
    const std::string name = path.filename().string();
    if (fs::is_directory(path)) {
      // Skip dotdirs, build trees, and the committed violation fixtures
      // (they are linted on purpose by the WILL_FAIL ctest legs).
      if (name.empty() || name[0] == '.' || name == "build" ||
          name == "lint_fixtures")
        continue;
      collect_files(path, out);
      continue;
    }
    const std::string ext = path.extension().string();
    if (ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp")
      out.push_back(path);
  }
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Test identifiers for R11: add_test NAMEs from the top-level CMakeLists of
// each scanned subdirectory (cmake full-line and trailing comments cut at
// '#') plus the gtest suite names collected by the per-file scans.
void collect_add_test_names(const std::string& cmake_text,
                            std::set<std::string>& ids) {
  std::string code;
  for (const std::string& line : split_lines(cmake_text)) {
    const std::size_t hash = line.find('#');
    code += line.substr(0, hash == std::string::npos ? line.size() : hash);
    code += '\n';
  }
  const auto token_at = [&](std::size_t i) {
    std::size_t j = i;
    while (j < code.size() &&
           (ident_char(code[j]) || code[j] == '.' || code[j] == '-'))
      ++j;
    return code.substr(i, j - i);
  };
  std::size_t pos = 0;
  while ((pos = code.find("add_test", pos)) != std::string::npos) {
    std::size_t i = skip_ws(code, pos + 8);
    pos += 8;
    if (i >= code.size() || code[i] != '(') continue;
    i = skip_ws(code, i + 1);
    if (token_at(i) != "NAME") continue;
    i = skip_ws(code, i + 4);
    const std::string name = token_at(i);
    if (!name.empty()) ids.insert(name);
  }
}

}  // namespace

std::vector<LintFinding> lint_tree(const std::string& tree_root,
                                   LintStats* stats, int jobs) {
  const fs::path root(tree_root);
  std::vector<fs::path> files;
  for (const char* sub : {"src", "bench", "tools", "tests"}) {
    const fs::path dir = root / sub;
    if (fs::is_directory(dir)) collect_files(dir, files);
  }

  // Stage 1: per-file scans. File contents are read serially (in path
  // order); the lexical scans land in per-file slots, so any jobs value
  // produces the identical scan vector.
  std::vector<std::string> rel_paths(files.size());
  std::vector<std::string> texts(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    rel_paths[i] = fs::relative(files[i], root).generic_string();
    texts[i] = read_file(files[i]);
  }
  std::vector<lintdetail::FileScan> scans(files.size());
  const auto scan_one = [&](int i) {
    scans[static_cast<std::size_t>(i)] = lintdetail::scan_file(
        rel_paths[static_cast<std::size_t>(i)],
        texts[static_cast<std::size_t>(i)]);
  };
  if (jobs > 1) {
    ParallelSweep pool(jobs);
    pool.run(static_cast<int>(files.size()), scan_one);
  } else {
    for (std::size_t i = 0; i < files.size(); ++i)
      scan_one(static_cast<int>(i));
  }

  // Stage 2 is serial and runs in file order throughout, keeping the
  // combined finding list deterministic.

  // R9 with header/source sibling merge: sweep.h's annotations also bind
  // accesses in sweep.cpp. Declaration lines stay per-file.
  std::map<std::string, std::map<std::string, std::string>> stem_guards;
  for (const lintdetail::FileScan& scan : scans) {
    const std::string stem =
        scan.rel_path.substr(0, scan.rel_path.rfind('.'));
    for (const auto& [member, mu] : scan.guarded)
      stem_guards[stem][member] = mu;
  }
  for (lintdetail::FileScan& scan : scans) {
    const std::string stem =
        scan.rel_path.substr(0, scan.rel_path.rfind('.'));
    const auto it = stem_guards.find(stem);
    lintdetail::scan_r9(scan,
                        it != stem_guards.end() ? it->second : scan.guarded,
                        scan.guarded_lines);
  }

  std::vector<LintFinding> findings;
  for (lintdetail::FileScan& scan : scans)
    for (LintFinding& f : scan.findings) findings.push_back(std::move(f));

  // R7: the include graph over every scanned file.
  IncludeGraph graph;
  for (const lintdetail::FileScan& scan : scans)
    for (const IncludeRef& ref : scan.includes) graph.add(ref);
  for (LintFinding& f : graph.check()) findings.push_back(std::move(f));

  // R11: CI filter coverage, when the tree carries a workflow file.
  const fs::path ci_path = root / ".github" / "workflows" / "ci.yml";
  if (fs::is_regular_file(ci_path)) {
    std::set<std::string> ids;
    for (const lintdetail::FileScan& scan : scans)
      for (const std::string& suite : scan.gtest_suites) ids.insert(suite);
    for (const char* sub : {"src", "bench", "tools", "tests"}) {
      const fs::path cml = root / sub / "CMakeLists.txt";
      if (fs::is_regular_file(cml)) collect_add_test_names(read_file(cml), ids);
    }
    for (LintFinding& f :
         check_ci_coverage(read_file(ci_path), ".github/workflows/ci.yml",
                           {ids.begin(), ids.end()}))
      findings.push_back(std::move(f));
  }

  // Global R12: duplicate reasons and stale suppressions, judged against
  // the complete finding set (including R7 findings anchored above).
  std::set<std::tuple<std::string, std::string, int>> used;
  for (const LintFinding& f : findings) {
    if (!f.suppressed) continue;
    used.insert({f.file, f.rule, f.line});      // allow on the same line
    used.insert({f.file, f.rule, f.line - 1});  // allow on the line above
  }
  const auto add_r12 = [&](const lintdetail::FileScan& scan, int line,
                           const std::string& message,
                           const std::string& fixit) {
    LintFinding f;
    f.rule = "R12";
    f.file = scan.rel_path;
    f.line = line;
    f.snippet =
        trim(scan.original[static_cast<std::size_t>(line - 1)]);
    f.message = message;
    f.fixit = fixit;
    const auto& comments = scan.stripped.comments;
    f.suppressed =
        has_suppression(comments[static_cast<std::size_t>(line - 1)],
                        "R12") ||
        (line > 1 &&
         has_suppression(comments[static_cast<std::size_t>(line - 2)],
                         "R12"));
    findings.push_back(std::move(f));
  };
  std::map<std::pair<std::string, std::string>,
           std::pair<std::string, int>>
      first_use;  // (rule, reason) -> first (file, line), in file order
  for (const lintdetail::FileScan& scan : scans) {
    for (const lintdetail::AllowSite& site : scan.allows) {
      const auto key = std::make_pair(site.rule, site.reason);
      const auto it = first_use.find(key);
      if (it == first_use.end()) {
        first_use.emplace(key,
                          std::make_pair(scan.rel_path, site.line));
      } else {
        add_r12(scan, site.line,
                "duplicate suppression reason for allow(" + site.rule +
                    ") — identical to " + it->second.first + ":" +
                    std::to_string(it->second.second) +
                    "; every accepted site needs a site-specific "
                    "justification",
                "explain why *this* site is sound, in its own words");
      }
      if (used.count({scan.rel_path, site.rule, site.line}) == 0)
        add_r12(scan, site.line,
                "stale suppression: no suppressed " + site.rule +
                    " finding is anchored to this allow(" + site.rule +
                    ") site",
                "delete this suppression comment");
    }
  }

  if (stats != nullptr) {
    stats->files_scanned = static_cast<int>(files.size());
    stats->findings = static_cast<int>(findings.size());
    stats->active = 0;
    for (const LintFinding& f : findings)
      if (!f.suppressed && !f.baselined) ++stats->active;
  }
  return findings;
}

std::string finding_key(const LintFinding& f) {
  return f.rule + '\t' + f.file + '\t' + lintdetail::normalize_ws(f.snippet);
}

std::string findings_to_json(const std::vector<LintFinding>& findings) {
  std::vector<const LintFinding*> ordered;
  ordered.reserve(findings.size());
  for (const LintFinding& f : findings) ordered.push_back(&f);
  std::sort(ordered.begin(), ordered.end(),
            [](const LintFinding* a, const LintFinding* b) {
              if (a->file != b->file) return a->file < b->file;
              if (a->line != b->line) return a->line < b->line;
              if (a->rule != b->rule) return a->rule < b->rule;
              return a->snippet < b->snippet;
            });
  int active = 0, suppressed = 0, baselined = 0;
  for (const LintFinding& f : findings) {
    if (f.suppressed)
      ++suppressed;
    else if (f.baselined)
      ++baselined;
    else
      ++active;
  }
  std::string out;
  out += "{\n";
  out += "  \"name\": \"cograd-lint\",\n";
  out += "  \"schema_version\": 2,\n";
  out += "  \"counts\": {\n";
  out += "    \"total\": " + std::to_string(findings.size()) + ",\n";
  out += "    \"active\": " + std::to_string(active) + ",\n";
  out += "    \"suppressed\": " + std::to_string(suppressed) + ",\n";
  out += "    \"baselined\": " + std::to_string(baselined) + "\n";
  out += "  },\n";
  out += "  \"findings\": [";
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const LintFinding& f = *ordered[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\n";
    out += "      \"rule\": \"" + json_escape(f.rule) + "\",\n";
    out += "      \"severity\": \"" + rule_severity(f.rule) + "\",\n";
    out += "      \"file\": \"" + json_escape(f.file) + "\",\n";
    out += "      \"line\": " + std::to_string(f.line) + ",\n";
    out += "      \"status\": \"" + std::string(status_name(f)) + "\",\n";
    out += "      \"snippet\": \"" + json_escape(f.snippet) + "\",\n";
    out += "      \"message\": \"" + json_escape(f.message) + "\",\n";
    if (!f.fixit.empty())
      out += "      \"fixit\": \"" + json_escape(f.fixit) + "\",\n";
    out += "      \"doc\": \"" + rule_doc(f.rule) + "\"\n";
    out += "    }";
  }
  out += ordered.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

bool parse_reference(const std::string& text,
                     std::vector<ReferenceEntry>* entries,
                     std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  std::string parse_error;
  const auto doc = parse_json(text, &parse_error);
  if (!doc) return fail(parse_error);
  const JsonValue* schema = doc->find("schema_version");
  if (schema == nullptr || !schema->is_number() ||
      static_cast<int>(schema->as_number()) != 2)
    return fail("unsupported reference schema_version (want 2)");
  const JsonValue* findings = doc->find("findings");
  if (findings == nullptr || !findings->is_array())
    return fail("reference has no \"findings\" array");
  for (const JsonValue& item : findings->items()) {
    const JsonValue* rule = item.find("rule");
    const JsonValue* file = item.find("file");
    const JsonValue* line = item.find("line");
    const JsonValue* status = item.find("status");
    const JsonValue* snippet = item.find("snippet");
    if (rule == nullptr || !rule->is_string() || file == nullptr ||
        !file->is_string() || line == nullptr || !line->is_number() ||
        status == nullptr || !status->is_string() || snippet == nullptr ||
        !snippet->is_string())
      return fail("reference finding lacks rule/file/line/status/snippet");
    LintFinding f;
    f.rule = rule->as_string();
    f.file = file->as_string();
    f.snippet = snippet->as_string();
    entries->push_back({finding_key(f), static_cast<int>(line->as_number()),
                        status->as_string()});
  }
  return true;
}

std::vector<StaleEntry> apply_reference(
    std::vector<LintFinding>& findings,
    const std::vector<ReferenceEntry>& reference) {
  // Per key: the findings and the entries not yet paired, in line order.
  std::map<std::string, std::vector<LintFinding*>> found;
  std::map<std::string, std::vector<const ReferenceEntry*>> listed;
  for (LintFinding& f : findings) found[finding_key(f)].push_back(&f);
  for (const ReferenceEntry& e : reference) listed[e.key].push_back(&e);
  const auto status_of = [](const LintFinding& f) {
    return std::string(f.suppressed ? "suppressed" : "active");
  };
  const auto by_line = [](const auto* a, const auto* b) {
    return a->line < b->line;
  };
  std::vector<StaleEntry> stale;
  for (auto& [key, fs] : found) {
    const auto it = listed.find(key);
    if (it == listed.end()) continue;
    std::vector<const ReferenceEntry*>& es = it->second;
    std::stable_sort(fs.begin(), fs.end(), by_line);
    std::stable_sort(es.begin(), es.end(), by_line);
    std::vector<LintFinding*> moved;
    for (LintFinding* f : fs) {
      const auto exact = std::find_if(es.begin(), es.end(), [&](const auto* e) {
        return e->line == f->line && e->status == status_of(*f);
      });
      if (exact == es.end()) {
        moved.push_back(f);
        continue;
      }
      es.erase(exact);
      f->baselined = true;
    }
    for (std::size_t i = 0; i < moved.size() && i < es.size(); ++i) {
      moved[i]->baselined = true;
      stale.push_back(
          {*moved[i], status_of(*moved[i]), es[i]->line, es[i]->status});
    }
  }
  std::sort(stale.begin(), stale.end(),
            [](const StaleEntry& a, const StaleEntry& b) {
              return std::tie(a.finding.file, a.finding.line) <
                     std::tie(b.finding.file, b.finding.line);
            });
  return stale;
}

}  // namespace cogradio
