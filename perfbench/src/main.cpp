// perfbench — the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--jobs W] [--out-dir DIR]
//
// Runs one workload (paper_sweep, duty_fleet), checks every output, and
// prints a metric table, the workload's digest, and as its last line one
// JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from a separate traced run. Exit codes: 0 ok, 1 an
// output check failed (the result is still printed), 2 bad arguments,
// 3 the run could not measure what it promised (no result printed).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

struct Catalog {
  const char* name;
  const char* unit;
};

// Printed by every workload with --trace 0; names and units match
// BENCHMARK.json's end_to_end list.
const Catalog kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ok_frac", "ratio"},
    {"active_node_slots_per_s", "1/s"},
    {"job_latency_p50_ms", "ms"},
    {"job_latency_p99_ms", "ms"},
};

// Printed by every workload with --trace 1 (BENCHMARK.json's per_layer
// list). A layer a workload does not exercise reads 0 with 0 samples.
const Catalog kPerLayer[] = {
    {"sim.network.self_ns_per_active_node_slot", "ns"},
    {"sim.network.step_share", "ratio"},
    {"sim.network.slot_us_p50", "us"},
    {"sim.network.slot_us_p99", "us"},
    {"sim.network.construct_s", "s"},
    {"sim.network.steady_allocs", "count"},
    {"sim.assignment.build_s", "s"},
    {"sim.assignment.global_channel_calls", "count"},
    {"sim.assignment.step_share", "ratio"},
    {"sim.jamming.is_jammed_calls", "count"},
    {"sim.jamming.step_share", "ratio"},
    {"core.protocol.callbacks", "count"},
    {"core.protocol.ns_per_callback", "ns"},
    {"core.protocol.step_share", "ratio"},
    {"bench.client_us_per_slot", "us"},
    {"core.runtime.trial_setup_share", "ratio"},
    {"util.sweep.busy_frac", "ratio"},
    {"util.sweep.tail_s", "s"},
    {"serve.protocol.parse_request_us", "us"},
    {"serve.protocol.frame_done_us", "us"},
    {"serve.server.accept_ms_p50", "ms"},
    {"serve.server.accept_ms_p99", "ms"},
    {"serve.server.accepted_to_done_ms_p50", "ms"},
    {"serve.server.accepted_to_done_ms_p99", "ms"},
    {"serve.server.queue_depth_p99", "count"},
    {"serve.server.shed_frac", "ratio"},
    {"serve.job.run_ms_p50", "ms"},
    {"serve.job.run_ms_p99", "ms"},
    {"core.supervisor.epochs_per_job", "count"},
    {"core.supervisor.restarts_per_job", "count"},
    {"serve.journal.append_ms_p50", "ms"},
    {"serve.journal.append_ms_p99", "ms"},
    {"serve.journal.records_per_job", "count"},
    {"sim.checkpoint.bytes_per_job", "bytes"},
    {"sim.checkpoint.encode_ms_per_job", "ms"},
    {"bench.generator_lag_ms_p99", "ms"},
    {"bench.trace_overhead_frac", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_sweep|duty_fleet --seed N "
               "--seconds S --trace 0|1 [--jobs W] [--out-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--jobs") {
        o.jobs = std::stoi(value);
      } else if (flag == "--out-dir") {
        o.out_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0) || o.seconds > 600) usage("--seconds must be in (0, 600]");
  return o;
}

const Metric* find(const Report& r, const std::string& name) {
  for (const Metric& m : r.metrics)
    if (m.name == name) return &m;
  return nullptr;
}

}  // namespace

void Report::set_percentile(const std::string& name, const Percentile& p,
                            const std::string& unit, bool required) {
  if (!p.supported()) {
    if (required)
      rejections.push_back(name + ": only " + std::to_string(p.beyond) +
                           " of " + std::to_string(p.samples) +
                           " samples beyond the percentile (need " +
                           std::to_string(kMinBeyond) + ")");
    set(name, 0.0, unit, p.samples);
    return;
  }
  set(name, p.value, unit, p.samples);
}

void feed_stats(Digest& d, const cogradio::TraceStats& s) {
  for (const std::int64_t v :
       {s.slots, s.broadcasts, s.successes, s.deliveries, s.collision_events,
        s.jammed_node_slots, s.idle_node_slots, s.total_message_words,
        s.max_message_words, s.micro_slots, s.backoff_failures,
        s.fault_node_slots, s.churned_node_slots, s.deaf_node_slots,
        s.mute_node_slots, s.babble_node_slots, s.feedback_drop_node_slots,
        s.mute_demotions, s.feedback_drops, s.suppressed_deliveries})
    d.i64(v);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  clock_read_ns();  // calibrate before any worker thread starts
  Report report;
  try {
    if (options.workload == "paper_sweep")
      report = run_paper_sweep(options);
    else if (options.workload == "duty_fleet")
      report = run_duty_fleet(options);
    else
      usage("unknown workload " + options.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 3;
  }

  // Every promised metric, in catalog order, with its promised unit.
  std::vector<Metric> out;
  auto collect = [&](const Catalog* begin, const Catalog* end,
                     bool must_measure) {
    for (const Catalog* c = begin; c != end; ++c) {
      const Metric* m = find(report, c->name);
      if (m == nullptr) {
        if (must_measure)
          report.rejections.push_back(std::string(c->name) + " not measured");
        out.push_back({c->name, 0.0, c->unit, 0});
        continue;
      }
      if (m->unit != c->unit)
        report.rejections.push_back(std::string(c->name) + " has unit " +
                                    m->unit + ", promised " + c->unit);
      if (!std::isfinite(m->value) || (must_measure && !(m->value > 0)))
        report.rejections.push_back(std::string(c->name) + " read " +
                                    std::to_string(m->value));
      out.push_back(*m);
    }
  };
  if (report.attempted < 1) report.rejections.push_back("nothing was attempted");
  if (options.trace)
    collect(std::begin(kPerLayer), std::end(kPerLayer), false);
  else
    collect(std::begin(kEndToEnd), std::end(kEndToEnd), true);

  std::printf("%-44s %16s %-6s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : out)
    std::printf("%-44s %16.6g %-6s %lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  std::printf("digest %s %s\n", options.workload.c_str(), report.digest.c_str());
  for (const std::string& p : report.problems)
    std::fprintf(stderr, "perfbench: output check failed: %s\n", p.c_str());
  if (!report.rejections.empty()) {
    for (const std::string& r : report.rejections)
      std::fprintf(stderr, "perfbench: run rejected: %s\n", r.c_str());
    std::fflush(stdout);
    return 3;
  }

  const bool correct = report.problems.empty() && report.failed == 0;
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false");
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", out[i].value);
    json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
