// The workloads and what each one reports. A workload fills a
// Report; main.cpp prints it and checks that every metric the mode
// promises (end-to-end without tracing, per-layer with it) is present.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"
#include "sim/trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int jobs = 0;             // sweep workers; 0 = min(nproc, 4)
  std::string out_dir = ".";  // where spans and daemon files go
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::int64_t samples = 0;
};

struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;  // failed output checks
  // A run that could not measure what it promised (an open-loop
  // generator that fell behind, a percentile without support) is
  // rejected: it prints no result.
  std::vector<std::string> rejections;
  std::string digest;
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit,
           std::int64_t samples) {
    metrics.push_back({name, value, unit, samples});
  }
  // A percentile metric: rejected without support when `required`, else
  // reported as 0 with its sample count.
  void set_percentile(const std::string& name, const Percentile& p,
                      const std::string& unit, bool required);
  void problem(const std::string& what) { problems.push_back(what); }
};

Report run_paper_sweep(const Options& options);
Report run_duty_fleet(const Options& options);

// The serve layers' per-layer metrics and output checks, for
// paper_sweep's traced run; takes about `seconds`.
void measure_serve_layers(const Options& options, double seconds, Report& report);

// Feeds every TraceStats counter into a digest, in declaration order.
void feed_stats(Digest& digest, const cogradio::TraceStats& stats);

// The machine's hardware threads (at least 1).
int hardware_threads();

}  // namespace perfbench
