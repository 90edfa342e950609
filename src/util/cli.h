// Minimal command-line flag parser for the examples and bench harnesses.
// Supports --name=value and --name value forms plus boolean switches.
//
//   CliArgs args(argc, argv);
//   const int n = args.get_int("n", 64);
//   const bool verbose = args.get_flag("verbose");
//   args.finish();   // errors out on unrecognized flags
//
// Every get_* call also records the *resolved* value (given or default)
// in call order; resolved() hands that log to the bench manifest so
// BENCH_<exp>.json carries the full effective configuration of a run.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace cogradio {

class CliArgs {
 public:
  // One resolved flag: how a get_* call answered, after defaulting.
  struct ResolvedFlag {
    enum class Kind { Int, Double, String, Bool };
    std::string name;
    std::string value;  // canonical text form of the resolved value
    Kind kind = Kind::String;
  };

  CliArgs(int argc, const char* const* argv);

  // Typed getters with defaults; each call marks the flag as recognized.
  // get_int rejects malformed and out-of-int64-range values instead of
  // silently saturating.
  std::int64_t get_int(const std::string& name, std::int64_t def);
  double get_double(const std::string& name, double def);
  std::string get_string(const std::string& name, const std::string& def);
  // True if --name was given (optionally --name=false to disable). A value
  // that arrived as a separate token (e.g. "--verbose out.json") and is not
  // one of true/false/0/1 is diagnosed as a swallowed token rather than
  // silently misparsed.
  bool get_flag(const std::string& name);

  // The shared --jobs flag of the bench/example harnesses: worker count for
  // ParallelSweep sweeps. Defaults to 1 (sequential); 0 = all hardware
  // threads. Results are bit-identical for any value (see util/sweep.h).
  int get_jobs();

  // Exits with a diagnostic if any provided flag was never queried —
  // catches typos like --trails instead of --trials.
  void finish() const;

  // Resolved values of every flag queried so far, in first-query order.
  const std::vector<ResolvedFlag>& resolved() const { return resolved_; }

  const std::string& program_name() const { return program_; }

 private:
  struct RawValue {
    std::string text;
    // True when the value was greedily taken from the following argv token
    // ("--name value") rather than attached with '=' — the form get_flag
    // must treat with suspicion.
    bool from_next_token = false;
  };

  void record(const std::string& name, std::string value,
              ResolvedFlag::Kind kind);

  std::string program_;
  std::map<std::string, RawValue> values_;  // flag -> raw value ("" for bare)
  mutable std::set<std::string> seen_;
  std::vector<ResolvedFlag> resolved_;
};

}  // namespace cogradio
