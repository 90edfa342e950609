#include "util/cli.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace cogradio {

namespace {
[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "cli error: %s\n", msg.c_str());
  std::exit(2);
}

// Formats a double the way it round-trips (for the resolved-config log).
std::string double_text(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) die("expected --flag, got '" + std::string(arg) + "'");
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] =
          RawValue{std::string(arg.substr(eq + 1)), false};
      continue;
    }
    // --name value (when the next token is not itself a flag), else bare.
    if (i + 1 < argc && std::string_view(argv[i + 1]).starts_with("--") == false) {
      values_[std::string(arg)] = RawValue{argv[i + 1], true};
      ++i;
    } else {
      values_[std::string(arg)] = RawValue{"", false};
    }
  }
}

void CliArgs::record(const std::string& name, std::string value,
                     ResolvedFlag::Kind kind) {
  for (auto& r : resolved_)
    if (r.name == name) {
      r.value = std::move(value);
      r.kind = kind;
      return;
    }
  resolved_.push_back(ResolvedFlag{name, std::move(value), kind});
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t def) {
  seen_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.text.empty()) {
    record(name, std::to_string(def), ResolvedFlag::Kind::Int);
    return def;
  }
  char* end = nullptr;
  errno = 0;
  const std::int64_t v = std::strtoll(it->second.text.c_str(), &end, 10);
  if (end == nullptr || end == it->second.text.c_str() || *end != '\0')
    die("flag --" + name + " expects an integer");
  if (errno == ERANGE)
    die("flag --" + name + " value '" + it->second.text +
        "' is out of range for a 64-bit integer");
  record(name, std::to_string(v), ResolvedFlag::Kind::Int);
  return v;
}

double CliArgs::get_double(const std::string& name, double def) {
  seen_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.text.empty()) {
    record(name, double_text(def), ResolvedFlag::Kind::Double);
    return def;
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(it->second.text.c_str(), &end);
  if (end == nullptr || end == it->second.text.c_str() || *end != '\0')
    die("flag --" + name + " expects a number");
  if (errno == ERANGE)
    die("flag --" + name + " value '" + it->second.text +
        "' is out of range for a double");
  record(name, double_text(v), ResolvedFlag::Kind::Double);
  return v;
}

std::string CliArgs::get_string(const std::string& name, const std::string& def) {
  seen_.insert(name);
  const auto it = values_.find(name);
  const std::string v = it == values_.end() ? def : it->second.text;
  record(name, v, ResolvedFlag::Kind::String);
  return v;
}

bool CliArgs::get_flag(const std::string& name) {
  seen_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) {
    record(name, "false", ResolvedFlag::Kind::Bool);
    return false;
  }
  const std::string& text = it->second.text;
  // "--verbose out.json" greedily bound 'out.json' to the switch; parsing
  // it as a boolean would both flip the flag and lose the token. Diagnose
  // instead of misparsing (the fix for space-form booleans is --name=value
  // or reordering so the switch is last / followed by another flag).
  if (it->second.from_next_token && !text.empty() && text != "true" &&
      text != "false" && text != "0" && text != "1")
    die("flag --" + name + " is a boolean switch but swallowed the token '" +
        text + "'; write --" + name + "=" + text +
        " if a value was intended, or move the token before the switch");
  const bool v = !(text == "false" || text == "0");
  record(name, v ? "true" : "false", ResolvedFlag::Kind::Bool);
  return v;
}

int CliArgs::get_jobs() {
  const auto jobs = get_int("jobs", 1);
  if (jobs < 0 || jobs > 1 << 20)
    die("flag --jobs expects a count >= 0 (0 = all cores)");
  return static_cast<int>(jobs);
}

void CliArgs::finish() const {
  for (const auto& [name, value] : values_) {
    (void)value;
    if (!seen_.contains(name)) die("unrecognized flag --" + name);
  }
}

}  // namespace cogradio
