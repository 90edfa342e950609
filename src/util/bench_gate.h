// Bench regression gate: compares a merged benchmark manifest
// (BENCH_all.json, or a single BENCH_<exp>.json) against a committed
// baseline, for `cograd bench --compare` and the CI bench-gate step.
//
// The smoke suite is a pure function of (seed, trials), so the gate is
// exact: a pinned metric passes only when the current run reproduces the
// baseline's value bit for bit, and a pinned null only when the run
// reports null too. Metric identity is "<experiment>.<metric key>". A
// metric present in the baseline but absent (or null / non-numeric) in
// the current run is a breach — a silently dropped metric must not pass
// the gate. Metrics new in the current run are reported but do not fail;
// regenerate the baseline to start pinning them.
#pragma once

#include <string>
#include <vector>

#include "util/json.h"

namespace cogradio {

struct GateDiff {
  enum class Status {
    Ok,            // current value equals the baseline's
    Breach,        // current value differs from the baseline's
    MissingInRun,  // baseline metric absent/non-numeric in current run
    NewInRun,      // current metric not pinned by the baseline (informative)
  };
  std::string metric_id;
  double baseline = 0.0;
  double current = 0.0;
  Status status = Status::Ok;
};

struct GateResult {
  std::vector<GateDiff> diffs;
  int breaches = 0;
  int compared = 0;

  bool ok() const { return breaches == 0; }
  // Human-readable per-metric report (one line per diff + summary), the
  // CI artifact uploaded next to BENCH_all.json.
  std::string report() const;
};

// Compares every metric of `current` against `baseline`. Both documents
// may be a merged manifest ({"experiments": [...]}) or a single
// experiment manifest ({"name": ..., "metrics": {...}}).
GateResult compare_bench_manifests(const JsonValue& current,
                                   const JsonValue& baseline);

// Flattens a manifest document into (metric_id, value) pairs; null-encoded
// metrics surface as NaN. Exposed for tests and `cograd bench --validate`.
std::vector<std::pair<std::string, double>> flatten_metrics(
    const JsonValue& doc);

// Structural validity check for a manifest document: required fields
// present, metrics numeric-or-null. Returns an empty string when valid,
// else a diagnostic.
std::string validate_manifest(const JsonValue& doc);

}  // namespace cogradio
