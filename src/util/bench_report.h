// Machine-readable benchmark reporter.
//
// RunManifest — the uniform per-run record every bench harness emits as
// BENCH_<exp>.json (see bench/bench_common.h for the hook that fills it):
//   * name            experiment id, e.g. "e1_cogcast_vs_c";
//   * git_revision    the checkout the binary was built from;
//   * config          the full resolved flag set (n/c/k/trials/seed/...);
//   * metrics         headline numbers that are *deterministic* in
//                     (config, seed) — these are what the regression gate
//                     (util/bench_gate.h) compares against a baseline;
//   * volatile        wall-clock, per-phase timings, --jobs — anything
//                     that may differ between identical runs. Excluded
//                     from merged BENCH_all.json output so that file is
//                     bit-identical for any --jobs value.
//
// All string content is JSON-escaped and non-finite doubles are encoded
// as null (the values-must-be-finite contract is enforced at encode time,
// not trusted), so the output always parses. write() goes through a
// temp-file + rename so a failed write never leaves a truncated manifest
// for the CI gate to diff against.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cogradio {

namespace detail {

// Ordered metric store behind RunManifest's metrics and volatile sections.
// Insertion order is preserved so diffs between runs stay line-aligned.
struct MetricStore {
  struct Metric {
    std::string key;
    double value = 0.0;
    bool integral = false;
    bool finite = true;  // false => encoded as null
  };

  void set(const std::string& key, double value);
  void set_int(const std::string& key, std::int64_t value);
  bool empty() const { return metrics.empty(); }

  // Appends `  "key": value,\n`-style lines at `indent` spaces.
  void emit(std::string& out, int indent) const;

  std::vector<Metric> metrics;

 private:
  Metric& upsert(const std::string& key);
};

}  // namespace detail

// Best-effort revision of the checkout this process runs in (short hash,
// "-dirty" suffixed when the work tree is modified); "unknown" when git or
// the repository is unavailable. Cached after the first call.
const std::string& git_revision();

// Monotonic wall-clock sample in seconds (arbitrary epoch); subtract two
// samples for an elapsed time. This is the repository's ONLY sanctioned
// clock access: wall-clock readings may feed *volatile* manifest sections
// exclusively (never metrics), and lint rule R1 (src/analysis/lint.h)
// allowlists util/bench_report.cpp alone — every other timing call site
// must go through here.
double monotonic_seconds();

class RunManifest {
 public:
  explicit RunManifest(std::string experiment)
      : experiment_(std::move(experiment)) {}

  const std::string& experiment() const { return experiment_; }

  // Resolved configuration, in insertion order. Values are raw JSON
  // fragments chosen by the typed setters.
  void set_config_int(const std::string& key, std::int64_t value);
  void set_config_double(const std::string& key, double value);
  void set_config_string(const std::string& key, const std::string& value);
  void set_config_bool(const std::string& key, bool value);

  // Deterministic headline metrics — the regression-gated section.
  void set(const std::string& key, double value) { metrics_.set(key, value); }
  void set_int(const std::string& key, std::int64_t value) {
    metrics_.set_int(key, value);
  }
  bool has_metrics() const { return !metrics_.empty(); }

  // Volatile observations (wall-clock, per-phase timing, worker counts) —
  // reported in BENCH_<exp>.json for humans, dropped from merged output.
  void set_volatile(const std::string& key, double value) {
    volatile_.set(key, value);
  }
  void set_volatile_int(const std::string& key, std::int64_t value) {
    volatile_.set_int(key, value);
  }

  // Serializes the manifest; `include_volatile=false` yields the stable
  // form embedded in BENCH_all.json.
  std::string to_json(bool include_volatile = true) const;

  // Atomically writes to_json() to `path`; returns false on I/O failure.
  bool write(const std::string& path) const;

  // The conventional output path for this experiment: BENCH_<exp>.json.
  std::string default_path() const {
    return "BENCH_" + experiment_ + ".json";
  }

 private:
  void emit_body(std::string& out, bool include_volatile, int indent) const;
  friend std::string merge_manifests(const std::string&,
                                     const std::vector<RunManifest>&);

  struct ConfigEntry {
    std::string key;
    std::string raw;  // pre-rendered JSON fragment
  };
  void upsert_config(const std::string& key, std::string raw);

  std::string experiment_;
  std::vector<ConfigEntry> config_;
  detail::MetricStore metrics_;
  detail::MetricStore volatile_;
};

// Merges per-experiment manifests into one deterministic document
// ({"name": <name>, ..., "experiments": [...]}) with volatile sections
// stripped — the BENCH_all.json the regression gate consumes.
std::string merge_manifests(const std::string& name,
                            const std::vector<RunManifest>& runs);

}  // namespace cogradio
