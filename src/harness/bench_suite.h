// The smoke benchmark suite behind `cograd bench`.
//
// A small, fast, fully deterministic subset of the bench/ experiment
// harnesses, runnable in-process so the regression gate needs no
// subprocess plumbing: each experiment produces a RunManifest whose
// metrics are pure functions of (config, seed) — bit-identical for any
// --jobs value, the util/sweep.h contract — and `cograd bench` merges
// them into BENCH_all.json for comparison against the committed baseline
// (bench/baseline/BENCH_all.json) via util/bench_gate.h.
//
// Experiments are miniatures of their full-size bench/ counterparts (names
// carry the e<N> tag) and run seconds, not minutes: where a paper claim
// has a trial body (harness/claims.h), the miniature calls it at a small
// size and seed. The gate exists to catch protocol/engine regressions
// between commits, not to re-certify the paper.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/trace.h"
#include "util/bench_report.h"
#include "util/stats.h"

namespace cogradio {

struct SmokeOptions {
  std::uint64_t seed = 1;
  int jobs = 1;
  // > 0 overrides each experiment's default trial count (the committed
  // baseline is generated with the defaults, i.e. trials = 0).
  int trials = 0;
};

// Names of the suite's experiments, in run order.
std::vector<std::string> smoke_experiment_names();

// Runs one experiment by name; exits via std::abort on unknown names
// (callers list-check first). The returned manifest carries the resolved
// config and deterministic metrics; the caller owns volatile timing.
RunManifest run_smoke_experiment(const std::string& name,
                                 const SmokeOptions& options);

// Records a sweep's Summary under `prefix.`: its count (which pins
// censoring: a trial newly hitting its slot cap changes the count, not
// just the median), median and p95.
void add_summary(RunManifest& manifest, const std::string& prefix,
                 const Summary& summary);

// Records the slot engine's TraceStats counters under `prefix.`: the
// per-run protocol observability block of the smoke suite and the bench/
// harnesses.
void add_trace_stats(RunManifest& manifest, const std::string& prefix,
                     const TraceStats& stats);

}  // namespace cogradio
