// Shared helpers for the experiment harnesses (bench/bench_e*.cpp).
//
// Every harness regenerates one "figure/table" from the paper — a theorem,
// lemma or worked example (see DESIGN.md §5 and EXPERIMENTS.md) — by running
// Monte-Carlo sweeps and printing paper-style rows: parameter, theoretical
// value, measured median, and their ratio. Flags shared by all harnesses:
//   --trials N   trials per configuration (default varies per bench)
//   --seed S     base seed (default 1)
//   --jobs J     ParallelSweep workers (default 1; 0 = all cores). Medians
//                are bit-identical for any J — see util/sweep.h.
// Every harness also emits a machine-readable BENCH_<exp>.json run manifest
// through the BenchManifest hook below — config comes for free from the
// CliArgs resolved-flag log, headline metrics are registered next to the
// printf rows, and `cograd bench --validate` / the regression gate consume
// the result. See util/bench_report.h for the manifest schema.
#pragma once

#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/bench_suite.h"  // add_trace_stats, cogcast_slots
#include "core/runtime.h"
#include "sim/assignment.h"
#include "util/bench_report.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/sweep.h"
#include "util/table.h"

namespace cogradio::bench {

// The per-harness telemetry hook: construct one at the top of main (after
// CliArgs), register headline metrics inside the existing sweep loops, and
// call write() before returning.
//
//   BenchManifest manifest("e1_cogcast_vs_c", &args);
//   ...
//   manifest.add_summary("partitioned.c8", summary);
//   manifest.write();   // -> BENCH_e1_cogcast_vs_c.json
//
// The resolved CliArgs flags become the manifest's config section (--jobs
// is routed to the volatile section: it never affects results — see
// util/sweep.h — and the merged BENCH_all.json must be invariant under it).
// Wall-clock time is volatile too.
class BenchManifest {
 public:
  BenchManifest(std::string experiment, CliArgs* args)
      : manifest_(std::move(experiment)),
        args_(args),
        start_(monotonic_seconds()) {}

  void set(const std::string& key, double value) { manifest_.set(key, value); }
  void set_int(const std::string& key, std::int64_t value) {
    manifest_.set_int(key, value);
  }

  // The headline slice of a sweep Summary: sample count (pins censoring),
  // median and p95.
  void add_summary(const std::string& prefix, const Summary& s) {
    manifest_.set_int(prefix + ".count", static_cast<std::int64_t>(s.count));
    manifest_.set(prefix + ".median", s.median);
    manifest_.set(prefix + ".p95", s.p95);
  }

  void add_trace_stats(const std::string& prefix, const TraceStats& stats) {
    cogradio::add_trace_stats(manifest_, prefix, stats);
  }

  // Captures config + volatile timing and writes BENCH_<exp>.json.
  bool write() {
    for (const auto& flag : args_->resolved()) {
      if (flag.name == "jobs") {
        manifest_.set_volatile_int(flag.name, std::atoll(flag.value.c_str()));
        continue;
      }
      switch (flag.kind) {
        case CliArgs::ResolvedFlag::Kind::Int:
          manifest_.set_config_int(flag.name, std::atoll(flag.value.c_str()));
          break;
        case CliArgs::ResolvedFlag::Kind::Double:
          manifest_.set_config_double(flag.name,
                                      std::atof(flag.value.c_str()));
          break;
        case CliArgs::ResolvedFlag::Kind::Bool:
          manifest_.set_config_bool(flag.name, flag.value == "true");
          break;
        case CliArgs::ResolvedFlag::Kind::String:
          manifest_.set_config_string(flag.name, flag.value);
          break;
      }
    }
    manifest_.set_volatile("wall_clock_seconds",
                           monotonic_seconds() - start_);
    const std::string path = manifest_.default_path();
    if (!manifest_.write(path)) {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  RunManifest manifest_;
  CliArgs* args_;
  double start_;
};

// The one generic Monte-Carlo entry point behind every harness trial loop:
// runs `trials` executions of `fn(pattern, rng)` fanned out over `jobs`
// workers and summarizes the surviving samples. `fn` returns the trial's
// sample, or nullopt for censored trials (hit a slot cap). Trial t's `rng`
// is a pure function of (base_seed, t), so the Summary is bit-identical
// for any `jobs` value.
template <typename Fn>
inline Summary run_trials(const std::string& pattern, int trials,
                          std::uint64_t base_seed, int jobs, Fn&& fn) {
  return summarize(sweep_trials(
      trials, base_seed, jobs, [&](Rng& rng) { return fn(pattern, rng); }));
}

// Median completion of the rendezvous-broadcast baseline on the topologies
// cogcast_slots (analysis/bench_suite.h) draws.
inline Summary rendezvous_broadcast_slots(const std::string& pattern, int n,
                                          int c, int k, int trials,
                                          std::uint64_t base_seed,
                                          int jobs = 1) {
  return run_trials(
      pattern, trials, base_seed, jobs,
      [&](const std::string& pat, Rng& rng) -> std::optional<double> {
        const std::uint64_t s1 = rng();
        const std::uint64_t s2 = rng();
        auto assignment =
            make_assignment(pat, n, c, k, LabelMode::LocalRandom, Rng(s1));
        BaselineRunConfig config;
        config.seed = s2;
        config.max_slots = 4'000'000;
        const auto out = run_rendezvous_broadcast(*assignment, config);
        if (!out.completed) return std::nullopt;
        return static_cast<double>(out.slots);
      });
}

// Expected *actual* pairwise overlap of a generator, as opposed to the
// guaranteed minimum k. Theorem 4's running time is governed by the real
// overlap, so theory columns use this:
//   partitioned  exactly k by construction;
//   shared-core  k core channels plus incidental tail overlap
//                (c-k)^2 / (C-k) with C = 2c;
//   pigeonhole   hypergeometric mean c^2 / C with C = 2c-k.
inline double effective_overlap(const std::string& pattern, int c, int k) {
  if (pattern == "partitioned") return k;
  if (pattern == "shared-core" || pattern == "dynamic-shared-core") {
    const double tail = static_cast<double>(c - k);
    return k + tail * tail / (2.0 * c - k);
  }
  if (pattern == "pigeonhole" || pattern == "dynamic-pigeonhole")
    return static_cast<double>(c) * c / (2.0 * c - k);
  return k;
}

// Theorem 4 shape evaluated at the pattern's effective overlap.
inline double theorem4_shape_effective(const std::string& pattern, int n,
                                       int c, int k) {
  const double lg = std::log2(std::max(2.0, static_cast<double>(n)));
  return (static_cast<double>(c) / effective_overlap(pattern, c, k)) *
         std::max(1.0, static_cast<double>(c) / n) * lg;
}

// Prints a one-line power-law fit summary, e.g.
//   fit: median ~ 3.1 * c^1.02  (r2=0.998; theory exponent 1)
inline void print_fit(const std::string& xname, std::vector<double> xs,
                      std::vector<double> ys, double theory_exponent) {
  const PowerFit fit = fit_power(xs, ys);
  std::printf(
      "fit: median ~ %.3g * %s^%.2f  (r2=%.3f; theory exponent %.2f)\n",
      fit.coefficient, xname.c_str(), fit.exponent, fit.r2, theory_exponent);
}

}  // namespace cogradio::bench
