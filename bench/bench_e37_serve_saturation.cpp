// E37 — serve daemon saturation (serve tentpole).
//
// Every other harness measures the protocols; this one measures the
// process that hosts them. An in-process `cograd serve` daemon
// (src/serve/server.h) is driven by the loadgen client
// (src/serve/loadgen.h) through three phases:
//
//   * throughput — N sessions over a pool of concurrent connections,
//     every completed session byte-verified against a local run_job of
//     the same spec. Sessions/sec and latency percentiles (median, p95,
//     p99) are volatile telemetry; the *deterministic* gate metrics are
//     the 0/1 flags sessions.all_completed and results.all_verified —
//     any scheduling change that drops a session or breaks the
//     byte-identity contract trips the gate on every box;
//   * overload — a deliberately starved daemon (one worker, tiny queue)
//     flooded until it sheds. How *much* is shed depends on machine
//     speed, so shed counts are volatile; what must hold everywhere is
//     the exact-accounting invariant accepted == completed +
//     shed_on_disconnect + aborted + failed (overload.accounting_exact);
//   * churn — disconnect injection: every kill_every-th session hangs up
//     right after its job is accepted. The daemon must shrug (no crash,
//     no failed jobs), keep exact accounting, and still serve a clean
//     probe wave afterwards (churn.daemon_survived); the sessions that
//     politely stayed must all byte-verify (churn.surviving_verified).
//
// With --compare BASELINE [--tolerances FILE] the run self-gates exactly
// like E35 (the CI smoke step runs this at reduced --sessions; the
// gate metrics are size-invariant flags, so metric names and expected
// values never change with scale).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "bench_common.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "util/bench_gate.h"
#include "util/bench_report.h"
#include "util/cli.h"
#include "util/json.h"

namespace cogradio {
namespace {

// One daemon instance with its IO thread, torn down on scope exit.
struct Daemon {
  explicit Daemon(ServeOptions options) : server(options) {
    // cograd-lint: allow(R8) saturation bench isolates the daemon IO loop from the loadgen under test
    io = std::thread([this] { server.run(); });
  }
  ~Daemon() {
    server.stop();
    io.join();
  }
  ServeServer server;
  std::thread io;
};

JobSpec bench_job() {
  JobSpec job;
  job.n = 24;
  job.c = 6;
  job.k = 2;
  return job;
}

void add_loadgen_telemetry(bench::BenchManifest& manifest,
                           const std::string& prefix,
                           const LoadgenReport& report) {
  RunManifest& m = manifest.manifest();
  m.set_volatile_int(prefix + ".completed", report.completed);
  m.set_volatile_int(prefix + ".shed", report.shed);
  m.set_volatile_int(prefix + ".killed", report.killed);
  m.set_volatile_int(prefix + ".transport_errors", report.transport_errors);
  m.set_volatile(prefix + ".sessions_per_sec",
                 static_cast<double>(report.sessions) /
                     std::max(report.elapsed_seconds, 1e-9));
  m.set_volatile(prefix + ".latency_median_s", report.latency.median);
  m.set_volatile(prefix + ".latency_p95_s", report.latency.p95);
  m.set_volatile(prefix + ".latency_p99_s", report.latency_p99);
}

bool accounting_exact(const ServeStats& stats) {
  return stats.accepted ==
         stats.completed + stats.shed_disconnect + stats.aborted +
             stats.failed;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Self-gate against a committed baseline (same shape as E35's).
int self_gate(const RunManifest& manifest, const std::string& compare_path,
              const std::string& tolerances_path) {
  std::string error;
  const auto current = parse_json(manifest.to_json(), &error);
  if (!current) {
    std::fprintf(stderr, "e37: own manifest invalid: %s\n", error.c_str());
    return 1;
  }
  const auto baseline_text = read_file(compare_path);
  if (!baseline_text) {
    std::fprintf(stderr, "e37: cannot read baseline %s\n",
                 compare_path.c_str());
    return 1;
  }
  const auto baseline = parse_json(*baseline_text, &error);
  if (!baseline) {
    std::fprintf(stderr, "e37: baseline %s invalid: %s\n",
                 compare_path.c_str(), error.c_str());
    return 1;
  }
  GateTolerances tolerances;
  if (!tolerances_path.empty()) {
    const auto text = read_file(tolerances_path);
    if (!text) {
      std::fprintf(stderr, "e37: cannot read tolerances %s\n",
                   tolerances_path.c_str());
      return 1;
    }
    const auto doc = parse_json(*text, &error);
    std::optional<GateTolerances> parsed;
    if (doc) parsed = parse_tolerances(*doc, &error);
    if (!parsed) {
      std::fprintf(stderr, "e37: tolerances %s invalid: %s\n",
                   tolerances_path.c_str(), error.c_str());
      return 1;
    }
    tolerances = *parsed;
  }
  const GateResult result =
      compare_bench_manifests(*current, *baseline, tolerances);
  const std::string report = result.report();
  std::fputs(report.c_str(), stdout);
  return result.ok() ? 0 : 1;
}

int run(CliArgs& args) {
  const int sessions = static_cast<int>(args.get_int("sessions", 1000));
  const int connections = static_cast<int>(args.get_int("connections", 8));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string compare_path = args.get_string("compare", "");
  const std::string tolerances_path = args.get_string("tolerances", "");
  args.finish();

  std::printf("E37: serve daemon saturation (%d sessions, %d connections)\n\n",
              sessions, connections);
  bench::BenchManifest manifest("e37_serve_saturation", &args);

  // --- Throughput: every session completes and byte-verifies -------------
  {
    auto t = manifest.phase("throughput");
    ServeOptions options;
    options.tcp_port = 0;  // ephemeral; workers default to the core count
    Daemon daemon(options);
    LoadgenOptions load;
    load.tcp_port = daemon.server.tcp_port();
    load.sessions = sessions;
    load.connections = connections;
    load.seed = seed;
    load.job = bench_job();
    const LoadgenReport report = run_loadgen(load);
    std::printf(
        "throughput: %d/%d completed, %.0f sessions/sec, "
        "latency p50/p95/p99 = %.2f/%.2f/%.2f ms\n",
        report.completed, report.sessions,
        report.sessions / std::max(report.elapsed_seconds, 1e-9),
        report.latency.median * 1e3, report.latency.p95 * 1e3,
        report.latency_p99 * 1e3);
    manifest.set_int("sessions.all_completed",
                     report.completed == report.sessions ? 1 : 0);
    manifest.set_int("results.all_verified",
                     report.verify_failures == 0 &&
                             report.protocol_errors == 0 &&
                             report.transport_errors == 0
                         ? 1
                         : 0);
    add_loadgen_telemetry(manifest, "throughput", report);
  }

  // --- Overload: a starved daemon sheds but never loses count ------------
  {
    auto t = manifest.phase("overload");
    ServeOptions options;
    options.tcp_port = 0;
    options.workers = 1;
    options.max_queue = 4;
    Daemon daemon(options);
    LoadgenOptions load;
    load.tcp_port = daemon.server.tcp_port();
    load.sessions = std::max(64, sessions / 4);
    load.connections = std::max(connections, 16);
    load.seed = seed + 1;
    load.job = bench_job();
    const LoadgenReport report = run_loadgen(load);
    const ServeStats stats = daemon.server.stats();
    std::printf("overload:   %d accepted, %d shed (queue=4, workers=1), "
                "accounting %s\n",
                report.completed, report.shed,
                accounting_exact(stats) ? "exact" : "BROKEN");
    manifest.set_int("overload.accounting_exact",
                     accounting_exact(stats) && stats.failed == 0 &&
                             report.verify_failures == 0
                         ? 1
                         : 0);
    add_loadgen_telemetry(manifest, "overload", report);
  }

  // --- Churn: disconnect injection, then a clean probe wave --------------
  {
    auto t = manifest.phase("churn");
    ServeOptions options;
    options.tcp_port = 0;
    Daemon daemon(options);
    LoadgenOptions load;
    load.tcp_port = daemon.server.tcp_port();
    load.sessions = sessions;
    load.connections = connections;
    load.seed = seed + 2;
    load.job = bench_job();
    load.kill_every = 3;
    const LoadgenReport churn = run_loadgen(load);
    // The survival probe: after the kill wave the daemon must still run
    // clean sessions, byte-identical as ever.
    load.kill_every = 0;
    load.sessions = 16;
    load.seed = seed + 3;
    const LoadgenReport probe = run_loadgen(load);
    const ServeStats stats = daemon.server.stats();
    std::printf("churn:      %d killed of %d, %d survivors verified; "
                "probe %d/%d, accounting %s\n",
                churn.killed, churn.sessions, churn.completed,
                probe.completed, probe.sessions,
                accounting_exact(stats) ? "exact" : "BROKEN");
    manifest.set_int("churn.daemon_survived",
                     probe.ok && probe.completed == probe.sessions &&
                             accounting_exact(stats) && stats.failed == 0
                         ? 1
                         : 0);
    manifest.set_int("churn.surviving_verified",
                     churn.verify_failures == 0 &&
                             churn.protocol_errors == 0 &&
                             churn.transport_errors == 0
                         ? 1
                         : 0);
    add_loadgen_telemetry(manifest, "churn", churn);
    manifest.manifest().set_volatile_int("churn.shed_disconnect",
                                         stats.shed_disconnect);
    manifest.manifest().set_volatile_int("churn.disconnects",
                                         stats.disconnects);
  }

  manifest.write();

  if (!compare_path.empty())
    return self_gate(manifest.manifest(), compare_path, tolerances_path);
  return 0;
}

}  // namespace
}  // namespace cogradio

int main(int argc, char** argv) {
  cogradio::CliArgs args(argc, argv);
  return cogradio::run(args);
}
