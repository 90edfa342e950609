// Per-file rule scanners and metadata collectors for cograd lint.
// R1-R6 are the original line-level determinism rules; R8-R10 are the
// concurrency-discipline rules and R12 the suppression-hygiene rule added
// alongside the include-graph stage (R7, include_graph.cpp) and the CI
// coverage check (R11, lint.cpp). docs/LINT.md is the rule catalog.
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "analysis/lint_internal.h"

namespace cogradio {
namespace lintdetail {

namespace {

const char* const kSerializationHeaders[] = {
    "sim/types.h",          "sim/trace.h",         "sim/message.h",
    "sim/protocol.h",       "sim/network.h",       "sim/backoff.h",
    "sim/recorder.h",       "sim/fault_engine.h",  "sim/agg_payload.h",
    "util/bench_report.h",  "serve/job.h",         "serve/protocol.h",
    "serve/server.h",       "serve/loadgen.h",     "sim/checkpoint.h",
    "serve/journal.h",      "serve/crashtest.h",
};

bool in_r5_scope(const std::string& rel_path) {
  for (const char* suffix : kSerializationHeaders)
    if (ends_with(rel_path, suffix)) return true;
  return false;
}

bool in_r6_scope(const std::string& rel_path) {
  return starts_with(rel_path, "src/util/") ||
         starts_with(rel_path, "src/analysis/") ||
         starts_with(rel_path, "bench/");
}

// Scalar-typed member heuristic for R5: the type's first meaningful token.
bool scalar_type_token(const std::string& token) {
  static const std::set<std::string> kScalars = {
      "bool",     "char",        "short",          "int",
      "long",     "unsigned",    "signed",         "float",
      "double",   "size_t",      "ptrdiff_t",      "NodeId",
      "Channel",  "LocalLabel",  "Slot",           "Mode",
      "MessageType", "CollisionModel", "AggOp",
  };
  return kScalars.count(token) > 0 || ends_with(token, "_t");
}

}  // namespace

// --- metadata collectors --------------------------------------------------

void collect_tracked_unordered(FileScan& scan) {
  for (const std::string& code : scan.stripped.code) {
    if (preprocessor_line(code)) continue;
    for_each_identifier(code, [&](const std::string& name, std::size_t,
                                  std::size_t end) {
      if (!starts_with(name, "unordered_")) return;
      std::size_t i = skip_ws(code, end);
      if (i >= code.size() || code[i] != '<') return;
      i = skip_template_args(code, i);
      if (i == std::string::npos) return;
      i = skip_ws(code, i);
      if (i >= code.size() || !ident_start(code[i])) return;
      std::size_t j = i;
      while (j < code.size() && ident_char(code[j])) ++j;
      scan.tracked_unordered.push_back(code.substr(i, j - i));
    });
  }
}

// Quoted #include directives. Runs on the masked stripped source, so
// directives inside #if 0 regions are invisible — but the *target* must be
// re-read from the original line because strip_source blanks string
// contents (the quoted path is lexically a string literal).
void collect_includes(FileScan& scan) {
  for (std::size_t l = 0; l < scan.stripped.code.size(); ++l) {
    const std::string& code = scan.stripped.code[l];
    std::size_t i = skip_ws(code, 0);
    if (i >= code.size() || code[i] != '#') continue;
    i = skip_ws(code, i + 1);
    if (code.compare(i, 7, "include") != 0) continue;
    i = skip_ws(code, i + 7);
    if (i >= code.size() || code[i] != '"') continue;
    const std::string& original = scan.original[l];
    const std::size_t open = original.find('"');
    if (open == std::string::npos) continue;
    const std::size_t close = original.find('"', open + 1);
    if (close == std::string::npos) continue;
    IncludeRef ref;
    ref.file = scan.rel_path;
    ref.line = static_cast<int>(l) + 1;
    ref.target = original.substr(open + 1, close - open - 1);
    ref.snippet = trim(original);
    const auto& comments = scan.stripped.comments;
    ref.suppressed = has_suppression(comments[l], "R7") ||
                     (l > 0 && has_suppression(comments[l - 1], "R7"));
    scan.includes.push_back(std::move(ref));
  }
}

// Suppression-comment inventory plus the file-local half of R12: every
// lint directive must be a well-formed allow(<known rule>) with a
// non-empty reason. Sites whose rule or reason contains a '<' placeholder
// are documentation (e.g. the syntax blurb in lint.h) and are skipped.
void collect_allows(FileScan& scan) {
  static const std::set<std::string> kRules = {
      "R1", "R2", "R3", "R4",  "R5",  "R6",
      "R7", "R8", "R9", "R10", "R11", "R12",
  };
  const std::string marker = "cograd-lint:";
  for (std::size_t l = 0; l < scan.stripped.comments.size(); ++l) {
    const std::string& comment = scan.stripped.comments[l];
    const std::size_t at = comment.find(marker);
    if (at == std::string::npos) continue;
    std::size_t i = skip_ws(comment, at + marker.size());
    const std::string allow = "allow(";
    if (comment.compare(i, allow.size(), allow) != 0) {
      scan.add("R12", static_cast<int>(l),
               "malformed lint directive: expected 'allow(<rule>) <reason>' "
               "after 'cograd-lint:'");
      continue;
    }
    i += allow.size();
    const std::size_t close = comment.find(')', i);
    if (close == std::string::npos) {
      scan.add("R12", static_cast<int>(l),
               "malformed lint directive: unterminated allow(");
      continue;
    }
    const std::string rule = trim(comment.substr(i, close - i));
    const std::string reason = trim(comment.substr(close + 1));
    if (rule.find('<') != std::string::npos ||
        (!reason.empty() && reason[0] == '<'))
      continue;  // documentation placeholder, not a live suppression
    if (kRules.count(rule) == 0) {
      scan.add("R12", static_cast<int>(l),
               "suppression names unknown rule '" + rule +
                   "': valid rules are R1..R12");
      continue;
    }
    if (reason.empty()) {
      scan.add("R12", static_cast<int>(l),
               "suppression allow(" + rule +
                   ") has no reason: every accepted site must say why it is "
                   "sound",
               "append a one-line justification after allow(" + rule + ")");
      continue;
    }
    scan.allows.push_back({rule, reason, static_cast<int>(l) + 1});
  }
}

void collect_gtest_suites(FileScan& scan) {
  for (const std::string& code : scan.stripped.code) {
    for_each_identifier(code, [&](const std::string& name, std::size_t,
                                  std::size_t end) {
      if (name != "TEST" && name != "TEST_F" && name != "TEST_P" &&
          name != "TYPED_TEST")
        return;
      std::size_t i = skip_ws(code, end);
      if (i >= code.size() || code[i] != '(') return;
      i = skip_ws(code, i + 1);
      if (i >= code.size() || !ident_start(code[i])) return;
      std::size_t j = i;
      while (j < code.size() && ident_char(code[j])) ++j;
      const std::string suite = code.substr(i, j - i);
      if (std::find(scan.gtest_suites.begin(), scan.gtest_suites.end(),
                    suite) == scan.gtest_suites.end())
        scan.gtest_suites.push_back(suite);
    });
  }
}

// "// cograd-guarded-by(mu_)" trailing a member declaration maps the
// declared member to its mutex for R9. The member name is the identifier
// directly before the initializer ('=' / '{') or the terminating ';'.
void collect_guarded_members(FileScan& scan) {
  const std::string marker = "cograd-guarded-by(";
  for (std::size_t l = 0; l < scan.stripped.comments.size(); ++l) {
    const std::string& comment = scan.stripped.comments[l];
    const std::size_t at = comment.find(marker);
    if (at == std::string::npos) continue;
    const std::size_t close = comment.find(')', at + marker.size());
    if (close == std::string::npos) continue;
    const std::string mutex_name =
        trim(comment.substr(at + marker.size(), close - at - marker.size()));
    if (mutex_name.empty()) continue;
    const std::string& code = scan.stripped.code[l];
    std::size_t stop = code.size();
    for (const char* tok : {"=", "{", ";"}) {
      const std::size_t p = code.find(tok);
      if (p != std::string::npos && p < stop) stop = p;
    }
    while (stop > 0 &&
           std::isspace(static_cast<unsigned char>(code[stop - 1])))
      --stop;
    const std::string member = token_before(code, stop);
    if (member.empty() || !ident_start(member[0])) continue;
    scan.guarded[member] = mutex_name;
    scan.guarded_lines.insert(static_cast<int>(l));
  }
}

// --- R1: banned nondeterminism sources -----------------------------------

void scan_r1(FileScan& scan) {
  // The volatile-manifest allowlist: monotonic_seconds lives here. Exact
  // path match, so e.g. tests/util/bench_report.cpp is not exempted.
  if (scan.rel_path == "src/util/bench_report.cpp") return;
  static const std::set<std::string> kBannedExact = {
      "rand",          "srand",        "drand48",     "lrand48",
      "random_device", "gettimeofday", "timespec_get",
  };
  for (std::size_t l = 0; l < scan.stripped.code.size(); ++l) {
    const std::string& code = scan.stripped.code[l];
    for_each_identifier(code, [&](const std::string& name, std::size_t,
                                  std::size_t end) {
      bool hit = false;
      if (kBannedExact.count(name) > 0) hit = true;
      if (ends_with(name, "_clock")) hit = true;
      if (name == "time" || name == "clock") {
        const std::size_t next = skip_ws(code, end);
        if (next < code.size() && code[next] == '(') hit = true;
      }
      if (hit)
        scan.add("R1", static_cast<int>(l),
                 "banned nondeterminism source '" + name +
                     "': wall clocks and global RNGs break (seed, trial) "
                     "determinism; route timing through "
                     "monotonic_seconds() (util/bench_report.h) and "
                     "randomness through trial_rng (util/sweep.h)");
    });
  }
}

// --- R2: unordered containers in result-affecting code -------------------

// Position of the range-for ':' of the `for (...)` whose '(' is at `open`
// (npos when this is not a range-for or it spans lines).
static std::size_t range_for_colon(const std::string& code, std::size_t open) {
  int paren = 0, angle = 0;
  for (std::size_t j = open; j < code.size(); ++j) {
    const char c = code[j];
    if (c == '(') ++paren;
    if (c == ')' && --paren == 0) return std::string::npos;
    if (c == '<') ++angle;
    if (c == '>' && angle > 0) --angle;
    if (c == ':' && paren == 1 && angle == 0) {
      const bool double_colon = (j + 1 < code.size() && code[j + 1] == ':') ||
                                (j > 0 && code[j - 1] == ':');
      if (!double_colon) return j;
    }
  }
  return std::string::npos;
}

void scan_r2(FileScan& scan) {
  const bool result_affecting = starts_with(scan.rel_path, "src/");
  const std::string advice =
      "; iteration order is implementation-defined — use a sorted "
      "structure, or prove membership-only use with "
      "'// cograd-lint: allow(R2) <reason>'";
  for (std::size_t l = 0; l < scan.stripped.code.size(); ++l) {
    const std::string& code = scan.stripped.code[l];
    if (preprocessor_line(code)) continue;
    for_each_identifier(code, [&](const std::string& name, std::size_t,
                                  std::size_t end) {
      if (result_affecting && starts_with(name, "unordered_")) {
        scan.add("R2", static_cast<int>(l),
                 "'" + name + "' in result-affecting code" + advice);
        return;
      }
      // Range-for whose sequence names an unordered container.
      if (name == "for") {
        const std::size_t open = skip_ws(code, end);
        if (open >= code.size() || code[open] != '(') return;
        const std::size_t colon = range_for_colon(code, open);
        if (colon == std::string::npos) return;
        const std::string seq = code.substr(colon + 1);
        bool seq_is_unordered = seq.find("unordered_") != std::string::npos;
        for_each_identifier(seq, [&](const std::string& id, std::size_t,
                                     std::size_t) {
          if (std::find(scan.tracked_unordered.begin(),
                        scan.tracked_unordered.end(),
                        id) != scan.tracked_unordered.end())
            seq_is_unordered = true;
        });
        if (seq_is_unordered)
          scan.add("R2", static_cast<int>(l),
                   "range-for over an unordered container" + advice);
        return;
      }
      // Explicit iterator accumulation over a tracked unordered name.
      if (std::find(scan.tracked_unordered.begin(),
                    scan.tracked_unordered.end(),
                    name) != scan.tracked_unordered.end()) {
        std::size_t i = skip_ws(code, end);
        if (i < code.size() && code[i] == '.') {
          const std::string member = token_at(code, skip_ws(code, i + 1));
          if (member == "begin" || member == "cbegin" || member == "rbegin")
            scan.add("R2", static_cast<int>(l),
                     "iterator walk over unordered container '" + name + "'" +
                         advice);
        }
      }
    });
  }
}

// --- R3: RNG discipline ---------------------------------------------------

void scan_r3(FileScan& scan) {
  if (!starts_with(scan.rel_path, "src/")) return;  // tests may pin seeds
  if (ends_with(scan.rel_path, "util/rng.h"))
    return;  // the engine definition itself (documented default seed)
  static const std::set<std::string> kForeignEngines = {
      "mt19937",  "mt19937_64", "minstd_rand", "minstd_rand0",
      "ranlux24", "ranlux48",   "knuth_b",     "default_random_engine",
  };
  for (std::size_t l = 0; l < scan.stripped.code.size(); ++l) {
    const std::string& code = scan.stripped.code[l];
    if (preprocessor_line(code)) continue;
    for_each_identifier(code, [&](const std::string& name, std::size_t,
                                  std::size_t end) {
      if (kForeignEngines.count(name) > 0) {
        scan.add("R3", static_cast<int>(l),
                 "non-project RNG engine '" + name +
                     "': all randomness must flow through cogradio::Rng "
                     "so (seed, trial) reproduces a run bit for bit");
        return;
      }
      if (name != "Rng") return;
      // Rng(<literal>) or `Rng name(<literal>)` — a fixed-seed engine.
      std::size_t i = skip_ws(code, end);
      if (i < code.size() && ident_start(code[i])) {
        while (i < code.size() && ident_char(code[i])) ++i;
        i = skip_ws(code, i);
      }
      if (i >= code.size() || (code[i] != '(' && code[i] != '{')) return;
      i = skip_ws(code, i + 1);
      const std::string arg = token_at(code, i);
      if (!integer_literal(arg)) return;
      const std::size_t after = skip_ws(code, i + arg.size());
      if (after < code.size() &&
          (code[after] == ')' || code[after] == '}' || code[after] == ','))
        scan.add("R3", static_cast<int>(l),
                 "literal-seeded Rng(" + arg +
                     ") in src/: seeds must flow from trial_rng(seed, t) "
                     "or a caller-provided seed");
    });
  }
}

// --- R4: pointer-keyed containers ----------------------------------------

void scan_r4(FileScan& scan) {
  static const std::set<std::string> kKeyedContainers = {
      "map",           "set",           "multimap",           "multiset",
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset",
  };
  for (std::size_t l = 0; l < scan.stripped.code.size(); ++l) {
    const std::string& code = scan.stripped.code[l];
    if (preprocessor_line(code)) continue;
    for_each_identifier(code, [&](const std::string& name, std::size_t,
                                  std::size_t end) {
      if (kKeyedContainers.count(name) == 0) return;
      const std::size_t i = skip_ws(code, end);
      if (i >= code.size() || code[i] != '<') return;
      const std::string key = first_template_arg(code, i);
      if (!key.empty() && key.back() == '*')
        scan.add("R4", static_cast<int>(l),
                 "pointer-keyed container " + name + "<" + key +
                     ", ...>: address order varies across runs and ASLR, "
                     "so any ordered walk or tie-break over it is "
                     "nondeterministic");
    });
  }
}

// --- R5: uninitialized scalar members in serialization structs -----------

void scan_r5(FileScan& scan) {
  if (!in_r5_scope(scan.rel_path)) return;
  struct OpenStruct {
    int depth = 0;              // brace depth of the struct body
    bool fields_active = true;  // false inside private:/protected:
  };
  std::vector<OpenStruct> stack;
  int depth = 0;
  bool pending_struct = false;
  for (std::size_t l = 0; l < scan.stripped.code.size(); ++l) {
    const std::string& code = scan.stripped.code[l];
    if (preprocessor_line(code)) continue;

    bool struct_head = pending_struct;
    for_each_identifier(code, [&](const std::string& name, std::size_t,
                                  std::size_t end) {
      if (name != "struct") return;
      const std::size_t i = skip_ws(code, end);
      if (i < code.size() && ident_start(code[i])) struct_head = true;
    });
    if (struct_head && code.find(';') != std::string::npos &&
        code.find('{') == std::string::npos)
      struct_head = false;  // forward declaration

    if (!stack.empty() && depth == stack.back().depth) {
      const std::string flat = normalize_ws(code);
      if (flat.find("private:") != std::string::npos ||
          flat.find("protected:") != std::string::npos)
        stack.back().fields_active = false;
      else if (flat.find("public:") != std::string::npos)
        stack.back().fields_active = true;
    }

    // Member-candidate check happens against the pre-brace-update depth,
    // so R5 assumes one declaration per physical line: a member declared
    // on the same line as its struct's opening brace
    // ('struct P { int x; };') is not examined.
    const bool member_context =
        !stack.empty() && depth == stack.back().depth &&
        stack.back().fields_active && !struct_head;
    if (member_context) {
      const std::string flat = trim(code);
      // A lone ':' marks a bitfield or access label; "::" is just scope
      // qualification (std::int64_t) and must not disqualify the line.
      bool lone_colon = false;
      for (std::size_t i = 0; i < flat.size(); ++i) {
        if (flat[i] != ':') continue;
        const bool left = i > 0 && flat[i - 1] == ':';
        const bool right = i + 1 < flat.size() && flat[i + 1] == ':';
        if (!left && !right) lone_colon = true;
      }
      const bool decl_shape =
          !flat.empty() && flat.back() == ';' &&
          flat.find('(') == std::string::npos &&
          flat.find('=') == std::string::npos &&
          flat.find('{') == std::string::npos && !lone_colon;
      if (decl_shape) {
        std::vector<std::string> idents;
        for_each_identifier(flat, [&](const std::string& name, std::size_t,
                                      std::size_t) {
          idents.push_back(name);
        });
        static const std::set<std::string> kSkipLead = {
            "static", "using",  "typedef", "friend",
            "struct", "class",  "enum",    "template",
            "mutable", "inline", "constexpr",
        };
        std::size_t t = 0;
        while (t < idents.size() &&
               (idents[t] == "std" || idents[t] == "const" ||
                idents[t] == "volatile"))
          ++t;
        if (idents.size() >= 2 && t < idents.size() &&
            kSkipLead.count(idents[0]) == 0 &&
            scalar_type_token(idents[t]))
          scan.add("R5", static_cast<int>(l),
                   "scalar member '" + idents.back() +
                       "' of a serialization-facing struct has no default "
                       "initializer: indeterminate bytes can leak into "
                       "Trace/manifest output",
                   "add an explicit '= 0'-style default initializer");
      }
    }

    for (char c : code) {
      if (c == '{') {
        ++depth;
        if (struct_head) {
          stack.push_back({depth, true});
          struct_head = false;
        }
      }
      if (c == '}') {
        if (!stack.empty() && depth == stack.back().depth) stack.pop_back();
        --depth;
      }
    }
    pending_struct = struct_head;
  }
}

// --- R6: float equality in metric/gate code ------------------------------

void scan_r6(FileScan& scan) {
  if (!in_r6_scope(scan.rel_path)) return;
  for (std::size_t l = 0; l < scan.stripped.code.size(); ++l) {
    const std::string& code = scan.stripped.code[l];
    for (std::size_t i = 0; i + 1 < code.size(); ++i) {
      const bool eq = code[i] == '=' && code[i + 1] == '=';
      const bool ne = code[i] == '!' && code[i + 1] == '=';
      if (!eq && !ne) continue;
      if (i + 2 < code.size() && code[i + 2] == '=') continue;
      if (eq && i > 0 &&
          std::string("=<>!+-*/%&|^").find(code[i - 1]) != std::string::npos)
        continue;
      const std::string right = token_at(code, skip_ws(code, i + 2));
      std::size_t before = i;
      while (before > 0 &&
             std::isspace(static_cast<unsigned char>(code[before - 1])))
        --before;
      const std::string left = token_before(code, before);
      if (floating_literal(right) || floating_literal(left)) {
        scan.add("R6", static_cast<int>(l),
                 "float equality against a literal in metric/gate code: "
                 "exact comparison of computed doubles is a latent flake; "
                 "compare with a tolerance or suppress with a reason");
        i += 1;
      }
    }
  }
}

// --- R8: thread-spawn discipline -----------------------------------------

// The only files that may construct raw threads: the ParallelSweep pool
// and the serve daemon's IO thread + worker pool. Everything else must
// route concurrency through those pools, which join every thread they
// start before they return.
void scan_r8(FileScan& scan) {
  if (scan.rel_path == "src/util/sweep.cpp" ||
      scan.rel_path == "src/serve/server.cpp")
    return;
  const std::string message =
      "raw thread spawn outside the sanctioned pool sites (util/sweep.cpp, "
      "serve/server.cpp): route concurrency through ParallelSweep or the "
      "serve worker pool, which join every thread they start";
  const std::string fixit =
      "use ParallelSweep (util/sweep.h) or suppress with the reason this "
      "thread is joined on every exit path";
  std::vector<std::string> thread_vectors;  // names of vector<std::thread>
  for (std::size_t l = 0; l < scan.stripped.code.size(); ++l) {
    const std::string& code = scan.stripped.code[l];
    if (preprocessor_line(code)) continue;
    for_each_identifier(code, [&](const std::string& name, std::size_t begin,
                                  std::size_t end) {
      // vector<std::thread> tracking (spawn happens via emplace/push).
      if (name == "vector") {
        const std::size_t open = skip_ws(code, end);
        if (open >= code.size() || code[open] != '<') return;
        if (!ends_with(first_template_arg(code, open), "thread")) return;
        const std::size_t past = skip_template_args(code, open);
        if (past == std::string::npos) return;
        const std::size_t n = skip_ws(code, past);
        if (n < code.size() && ident_start(code[n])) {
          std::size_t j = n;
          while (j < code.size() && ident_char(code[j])) ++j;
          thread_vectors.push_back(code.substr(n, j - n));
        }
        return;
      }
      const bool qualified =
          begin >= 2 && code[begin - 1] == ':' && code[begin - 2] == ':';
      if (name == "async" && qualified) {
        const std::size_t i = skip_ws(code, end);
        if (i < code.size() && code[i] == '(')
          scan.add("R8", static_cast<int>(l), message, fixit);
        return;
      }
      if (name == "thread" && qualified) {
        std::size_t i = skip_ws(code, end);
        if (i < code.size() && ident_start(code[i])) {
          while (i < code.size() && ident_char(code[i])) ++i;
          i = skip_ws(code, i);
        }
        if (i < code.size() && (code[i] == '(' || code[i] == '{'))
          scan.add("R8", static_cast<int>(l), message, fixit);
        return;
      }
      if (name == "detach") {
        const bool member_call =
            begin > 0 && (code[begin - 1] == '.' ||
                          (begin > 1 && code[begin - 1] == '>' &&
                           code[begin - 2] == '-'));
        const std::size_t i = skip_ws(code, end);
        if (member_call && i < code.size() && code[i] == '(')
          scan.add("R8", static_cast<int>(l),
                   "detached thread: a .detach()ed thread escapes every "
                   "join and shutdown path; join through a sanctioned pool "
                   "instead",
                   fixit);
        return;
      }
      if ((name == "emplace_back" || name == "push_back") && begin > 0 &&
          code[begin - 1] == '.') {
        const std::string recv = token_before(code, begin - 1);
        if (std::find(thread_vectors.begin(), thread_vectors.end(), recv) !=
            thread_vectors.end())
          scan.add("R8", static_cast<int>(l), message, fixit);
      }
    });
  }
}

// --- R9: guarded-by annotations ------------------------------------------

// Heuristic lock tracking over the stripped source: a member annotated
// with cograd-guarded-by(mu) may only be named (outside its declaration,
// and excluding call syntax `name(...)`) when
//   - a lock_guard/unique_lock/scoped_lock naming `mu` is live in an
//     enclosing lexical scope, or
//   - the enclosing function's name ends in _locked (the project's
//     caller-holds-the-lock convention).
void scan_r9(FileScan& scan,
             const std::map<std::string, std::string>& guards,
             const std::set<int>& decl_lines) {
  if (guards.empty()) return;
  std::set<std::string> mutexes;
  for (const auto& [member, mu] : guards) mutexes.insert(mu);

  struct LiveLock {
    std::string mutex;
    int depth = 0;  // scope depth the lock was declared at
  };
  std::vector<LiveLock> locks;
  std::vector<int> locked_scopes;  // depths of _locked function bodies
  int depth = 0;
  bool pending_locked = false;  // saw `name_locked(` — body may follow

  for (std::size_t l = 0; l < scan.stripped.code.size(); ++l) {
    const std::string& code = scan.stripped.code[l];
    const bool is_decl = decl_lines.count(static_cast<int>(l)) > 0;

    // Lock declarations on this line take effect before access checks, so
    // `std::lock_guard lock(mu); x = 1;` covers the same-line access.
    const bool has_lock_class =
        code.find("lock_guard") != std::string::npos ||
        code.find("unique_lock") != std::string::npos ||
        code.find("scoped_lock") != std::string::npos;
    if (has_lock_class) {
      for (const std::string& mu : mutexes) {
        bool named = false;
        for_each_identifier(code, [&](const std::string& name, std::size_t,
                                      std::size_t) {
          if (name == mu) named = true;
        });
        if (named) locks.push_back({mu, depth});
      }
    }

    for_each_identifier(code, [&](const std::string& name, std::size_t begin,
                                  std::size_t end) {
      if (ends_with(name, "_locked")) {
        const std::size_t i = skip_ws(code, end);
        if (i < code.size() && code[i] == '(') pending_locked = true;
      }
      const auto it = guards.find(name);
      if (it == guards.end() || is_decl) return;
      const std::size_t i = skip_ws(code, end);
      if (i < code.size() && code[i] == '(') return;  // call/decl syntax
      // Qualified mention (Struct::member) is a declaration, not an access.
      if (begin >= 2 && code[begin - 1] == ':' && code[begin - 2] == ':')
        return;
      const bool in_locked_fn = !locked_scopes.empty();
      bool covered = in_locked_fn;
      for (const LiveLock& lock : locks)
        if (lock.mutex == it->second) covered = true;
      if (!covered)
        scan.add("R9", static_cast<int>(l),
                 "member '" + name + "' is guarded by '" + it->second +
                     "' (cograd-guarded-by) but is touched without the lock "
                     "held in an enclosing scope or a *_locked function",
                 "take " + it->second +
                     " with std::lock_guard, or move the access into a "
                     "*_locked helper");
    });

    for (char c : code) {
      if (c == '{') {
        ++depth;
        if (pending_locked) {
          locked_scopes.push_back(depth);
          pending_locked = false;
        }
      } else if (c == '}') {
        --depth;
        while (!locks.empty() && locks.back().depth > depth) locks.pop_back();
        while (!locked_scopes.empty() && locked_scopes.back() > depth)
          locked_scopes.pop_back();
      } else if (c == ';') {
        pending_locked = false;  // it was a call or a declaration
      }
    }
  }
}

// --- R10: RNG draws inside parallel regions ------------------------------

// Coins are spent serially, outside parallel regions (docs/DETERMINISM.md):
// any Rng activity lexically inside a pool task body is nondeterministic
// unless the generator is the trial's own trial_rng(base_seed, index)
// stream. Pool
// task bodies are recognized as lambda arguments of `<pool>.run(...)` /
// `<pool>->run(...)` where <pool> was declared as a ParallelSweep or has
// "pool"/"sweep" in its name.
void scan_r10(FileScan& scan) {
  std::vector<std::string> pool_names;
  for (const std::string& code : scan.stripped.code) {
    if (code.find("ParallelSweep") == std::string::npos) continue;
    std::size_t stop = code.size();
    for (const char tok : {'(', '=', ';', '{'}) {
      const std::size_t p = code.find(tok);
      if (p != std::string::npos && p < stop) stop = p;
    }
    while (stop > 0 &&
           std::isspace(static_cast<unsigned char>(code[stop - 1])))
      --stop;
    const std::string name = token_before(code, stop);
    if (!name.empty() && ident_start(name[0])) pool_names.push_back(name);
  }
  const auto is_pool = [&](std::string name) {
    if (std::find(pool_names.begin(), pool_names.end(), name) !=
        pool_names.end())
      return true;
    for (char& c : name) c = static_cast<char>(std::tolower(
                             static_cast<unsigned char>(c)));
    return name.find("pool") != std::string::npos ||
           name.find("sweep") != std::string::npos;
  };
  static const char* const kDrawMethods[] = {
      ".below(",   ".between(", ".uniform(",
      ".chance(",  ".split(",   ".shuffle(",
      ".sample_without_replacement(",
  };

  bool in_region = false;
  int region_parens = 0;
  std::set<std::string> sanctioned;  // Rng names proven per-trial pure
  std::set<std::string> derived;    // values drawn from a sanctioned stream
  // True when `text` is seeded from the trial's own randomness: it names
  // trial_rng, an already-sanctioned generator, or a value drawn from one.
  const auto trial_seeded = [&](const std::string& text) {
    if (text.find("trial_rng") != std::string::npos) return true;
    bool ok = false;
    for_each_identifier(text, [&](const std::string& id, std::size_t,
                                  std::size_t) {
      if (sanctioned.count(id) > 0 || derived.count(id) > 0) ok = true;
    });
    return ok;
  };
  for (std::size_t l = 0; l < scan.stripped.code.size(); ++l) {
    const std::string& code = scan.stripped.code[l];
    std::size_t region_from = std::string::npos;  // column checks start at
    if (!in_region) {
      for (std::size_t i = 0; i + 5 < code.size(); ++i) {
        const bool dot_run = code.compare(i, 5, ".run(") == 0;
        const bool arrow_run = code.compare(i, 6, "->run(") == 0;
        if (!dot_run && !arrow_run) continue;
        const std::string recv = token_before(code, i);
        if (recv.empty() || !is_pool(recv)) continue;
        in_region = true;
        region_parens = 0;
        sanctioned.clear();
        derived.clear();
        region_from = i;
        break;
      }
      if (!in_region) continue;
    } else {
      region_from = 0;
    }
    const std::string body = code.substr(region_from);
    const std::string next_line =
        l + 1 < scan.stripped.code.size() ? scan.stripped.code[l + 1] : "";

    // Region bookkeeping: the region ends when the run(...) call's parens
    // close. Checks below only apply to this line's in-region portion.
    for (char c : body) {
      if (c == '(') ++region_parens;
      if (c == ')' && --region_parens == 0) {
        in_region = false;
        break;
      }
    }

    for_each_identifier(body, [&](const std::string& name, std::size_t,
                                  std::size_t end) {
      if (name == "Rng") {
        std::size_t i = skip_ws(body, end);
        if (i < body.size() && body[i] == '&') {
          // `Rng& gen` parameter: the caller vouches for the stream.
          i = skip_ws(body, i + 1);
          if (i < body.size() && ident_start(body[i]))
            sanctioned.insert(token_at(body, i));
          return;
        }
        std::string declared;
        if (i < body.size() && ident_start(body[i])) {
          declared = token_at(body, i);
          i += declared.size();
        }
        // The initializer text: the rest of the line past the name. A
        // declaration split as `Rng rng =` / `trial_rng(...)` on the next
        // line is handled by peeking one line ahead.
        std::string init = body.substr(i);
        if (trim(init) == "=") init += ' ' + next_line;
        if (trial_seeded(init)) {
          if (!declared.empty()) sanctioned.insert(declared);
          return;
        }
        scan.add("R10", static_cast<int>(l),
                 "Rng constructed inside a pool task body without deriving "
                 "from the trial's own stream: coins must be spent "
                 "serially, outside the region; only trial_rng(base_seed, "
                 "index) streams (and generators seeded from them) are "
                 "per-trial pure",
                 "draw the coins serially before the parallel region, or "
                 "derive the generator via trial_rng");
        return;
      }
      if (name == "rng_")
        scan.add("R10", static_cast<int>(l),
                 "member RNG 'rng_' used inside a pool task body: worker "
                 "interleaving would reorder the coin schedule; draw coins "
                 "serially, outside the region (docs/DETERMINISM.md)",
                 "hoist the draws out of the parallel region");
    });
    // Draws on a sanctioned stream stored into a named value sanction that
    // value as seed material: `const std::uint64_t s1 = rng();`.
    const std::size_t assign = body.find('=');
    if (assign != std::string::npos && assign + 1 < body.size() &&
        body[assign + 1] != '=' &&
        (assign == 0 || body[assign - 1] != '=' ||
         std::string("<>!+-*/%&|^").find(body[assign - 1]) ==
             std::string::npos) &&
        trial_seeded(body.substr(assign + 1))) {
      std::size_t stop = assign;
      while (stop > 0 &&
             std::isspace(static_cast<unsigned char>(body[stop - 1])))
        --stop;
      const std::string lhs = token_before(body, stop);
      if (!lhs.empty() && ident_start(lhs[0])) derived.insert(lhs);
    }
    for (const char* method : kDrawMethods) {
      std::size_t at = body.find(method);
      while (at != std::string::npos) {
        const std::string recv = token_before(body, at);
        std::string lower = recv;
        for (char& c : lower)
          c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        if (!recv.empty() && sanctioned.count(recv) == 0 &&
            recv != "rng_" &&  // already flagged by the identifier pass
            (lower.find("rng") != std::string::npos || lower == "gen"))
          scan.add("R10", static_cast<int>(l),
                   "RNG draw '" + recv + method +
                       "...)' inside a pool task body on a generator that "
                       "is not a per-trial trial_rng stream",
                   "hoist the draw out of the parallel region or derive "
                   "the generator via trial_rng");
        at = body.find(method, at + 1);
      }
    }
  }
}

FileScan scan_file(const std::string& rel_path, const std::string& text) {
  FileScan scan;
  scan.rel_path = rel_path;
  scan.original = split_lines(text);
  scan.stripped = strip_source(text);
  mask_disabled_regions(scan.stripped);
  collect_tracked_unordered(scan);
  collect_includes(scan);
  collect_allows(scan);
  collect_gtest_suites(scan);
  collect_guarded_members(scan);
  scan_r1(scan);
  scan_r2(scan);
  scan_r3(scan);
  scan_r4(scan);
  scan_r5(scan);
  scan_r6(scan);
  scan_r8(scan);
  scan_r10(scan);
  return scan;
}

}  // namespace lintdetail
}  // namespace cogradio
