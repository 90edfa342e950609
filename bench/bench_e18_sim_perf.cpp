// E18 — simulator throughput (google-benchmark) + steady-state probes.
//
// Not a paper claim but the enabler of all sweeps: the slot engine must
// push millions of node-slots per second so that the E1-E17 Monte-Carlo
// harnesses run in seconds on a laptop.
//
// Besides the google-benchmark timings, a custom main() runs two direct
// probes before handing over to the benchmark runner and records the
// results in BENCH_e18_sim_perf.json (a RunManifest, util/bench_report.h;
// throughput rates and timings go in the volatile section, the allocation
// count and sweep-determinism verdict are deterministic metrics):
//   * allocation probe — a global operator new/delete counter
//     (alloc_count.h, shared with E35) verifies that Network::step()
//     performs ZERO heap allocations in steady state (after the first
//     warm-up slots sized the member scratch buffers);
//   * ParallelSweep scaling — the same Monte-Carlo workload at --jobs 1
//     and --jobs hardware_concurrency must produce bit-identical medians,
//     and the wall-clock ratio measures the pool's scaling headroom.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <thread>

#include "alloc_count.h"
#include "core/cogcast.h"
#include "core/runtime.h"
#include "sim/assignment.h"
#include "sim/backoff.h"
#include "sim/network.h"
#include "util/bench_report.h"
#include "util/sweep.h"

namespace cogradio {
namespace {

struct CogCastFixture {
  CogCastFixture(int n, int c, int k)
      : assignment(n, c, k, LabelMode::LocalRandom, Rng(1)) {
    Message payload;
    payload.type = MessageType::Data;
    Rng seeder(2);
    for (NodeId u = 0; u < n; ++u) {
      nodes.push_back(std::make_unique<CogCastNode>(
          u, c, u == 0, payload, seeder.split(static_cast<std::uint64_t>(u))));
      protocols.push_back(nodes.back().get());
    }
    network = std::make_unique<Network>(assignment, protocols);
  }

  SharedCoreAssignment assignment;
  std::vector<std::unique_ptr<CogCastNode>> nodes;
  std::vector<Protocol*> protocols;
  std::unique_ptr<Network> network;
};

void BM_NetworkStepCogCast(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  CogCastFixture fx(n, /*c=*/16, /*k=*/4);
  for (auto _ : state) fx.network->step();
  state.SetItemsProcessed(state.iterations() * n);  // node-slots/sec
}
BENCHMARK(BM_NetworkStepCogCast)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_NetworkStepDynamicAssignment(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int c = 16, k = 4;
  auto assignment = DynamicAssignment::shared_core(n, c, k, Rng(3));
  Message payload;
  payload.type = MessageType::Data;
  Rng seeder(4);
  std::vector<std::unique_ptr<CogCastNode>> nodes;
  std::vector<Protocol*> protocols;
  for (NodeId u = 0; u < n; ++u) {
    nodes.push_back(std::make_unique<CogCastNode>(
        u, c, u == 0, payload, seeder.split(static_cast<std::uint64_t>(u))));
    protocols.push_back(nodes.back().get());
  }
  Network network(*assignment, std::move(protocols));
  for (auto _ : state) network.step();
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NetworkStepDynamicAssignment)->Arg(64)->Arg(256);

void BM_DecayBackoffResolve(benchmark::State& state) {
  const int contenders = static_cast<int>(state.range(0));
  const auto params = backoff_params_for(contenders);
  Rng rng(5);
  for (auto _ : state) benchmark::DoNotOptimize(decay_backoff(contenders, params, rng));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecayBackoffResolve)->Arg(2)->Arg(16)->Arg(128);

void BM_FullCogCompRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int c = 16, k = 4;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    SharedCoreAssignment assignment(n, c, k, LabelMode::LocalRandom,
                                    Rng(seed));
    CogCompRunConfig config;
    config.params = {n, c, k, 4.0};
    config.seed = seed++;
    const auto values = make_values(n, seed);
    benchmark::DoNotOptimize(run_cogcomp(assignment, values, config));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullCogCompRun)->Arg(32)->Arg(128);

void BM_ParallelSweepCogCast(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto samples =
        sweep_trials(32, /*base_seed=*/7, jobs, [](Rng& rng) {
          SharedCoreAssignment assignment(64, 16, 4, LabelMode::LocalRandom,
                                          Rng(rng()));
          CogCastRunConfig config;
                config.params = {64, 16, 4, 4.0};
          config.seed = rng();
          const auto out = run_cogcast(assignment, config);
          return static_cast<double>(out.slots);
        });
    benchmark::DoNotOptimize(samples.data());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_ParallelSweepCogCast)->Arg(1)->Arg(2)->Arg(4);

// Direct steady-state probe: after a warm-up (which sizes the engine's
// member scratch), a window of steps must allocate nothing and its timing
// gives node-slots/sec without google-benchmark's harness overhead. Above
// n=4096 the warm-up/window shrink so the large-n legs stay cheap on the
// sanitizer CI legs; per-n rates are volatile, but the large-over-small
// rate ratio is recorded as a gateable near-flat-scaling tripwire.
void run_step_probes(RunManifest& report) {
  std::printf("steady-state probe (warmup 512 slots, measure 2048 slots;\n"
              "                    128/256 above n=4096):\n");
  std::printf("  %6s  %18s  %16s\n", "n", "node-slots/sec", "allocs/window");
  double rate_1024 = 0.0, rate_65536 = 0.0;
  for (const int n : {64, 256, 1024, 4096, 16384, 65536}) {
    CogCastFixture fx(n, /*c=*/16, /*k=*/4);
    const int warmup = n > 4096 ? 128 : 512;
    const int window = n > 4096 ? 256 : 2048;
    for (int s = 0; s < warmup; ++s) fx.network->step();
    const std::uint64_t before = bench::allocation_count();
    const double start = monotonic_seconds();
    for (int s = 0; s < window; ++s) fx.network->step();
    const double elapsed = monotonic_seconds() - start;
    const std::uint64_t allocs = bench::allocation_count() - before;
    const double rate = static_cast<double>(n) * window / elapsed;
    if (n == 1024) rate_1024 = rate;
    if (n == 65536) rate_65536 = rate;
    std::printf("  %6d  %18.3e  %16llu\n", n, rate,
                static_cast<unsigned long long>(allocs));
    const std::string prefix = "step.n" + std::to_string(n) + ".";
    report.set_volatile(prefix + "node_slots_per_sec", rate);
    report.set_int(prefix + "steady_state_allocs",
                   static_cast<std::int64_t>(allocs));
  }
  // Near-flat scaling means this ratio hovers around 1; it is gated with a
  // generous tolerance (bench/baseline/tolerances.json) purely to trip on
  // a large-n cliff, not on machine-to-machine noise.
  const double ratio = rate_65536 / rate_1024;
  std::printf("  scaling ratio (rate@65536 / rate@1024): %.3f\n", ratio);
  report.set("step.scaling_ratio", ratio);
}

// ParallelSweep probe: the same fixed workload at jobs=1 and jobs=hw must
// produce bit-identical samples; the wall-clock ratio is the pool speedup.
void run_sweep_probe(RunManifest& report) {
  const int hw = resolve_jobs(0);
  constexpr int kTrials = 64;
  auto workload = [](Rng& rng) {
    SharedCoreAssignment assignment(96, 16, 4, LabelMode::LocalRandom,
                                    Rng(rng()));
    CogCastRunConfig config;
    config.params = {96, 16, 4, 4.0};
    config.seed = rng();
    const auto out = run_cogcast(assignment, config);
    return static_cast<double>(out.slots);
  };
  auto timed = [&](int jobs, double* elapsed) {
    const double start = monotonic_seconds();
    auto samples = sweep_trials(kTrials, /*base_seed=*/11, jobs, workload);
    *elapsed = monotonic_seconds() - start;
    return samples;
  };
  double t1 = 0, tn = 0;
  const auto serial = timed(1, &t1);
  const auto parallel = timed(hw, &tn);
  const bool identical = serial == parallel;
  std::printf("\nParallelSweep probe (%d trials): jobs=1 %.3fs, jobs=%d %.3fs, "
              "speedup %.2fx, samples %s\n",
              kTrials, t1, hw, tn, t1 / tn,
              identical ? "bit-identical" : "MISMATCH");
  report.set_volatile_int("sweep.jobs", hw);
  report.set_volatile("sweep.jobs1_seconds", t1);
  report.set_volatile("sweep.jobsN_seconds", tn);
  report.set_volatile("sweep.speedup", t1 / tn);
  report.set_int("sweep.deterministic", identical ? 1 : 0);
}

}  // namespace
}  // namespace cogradio

int main(int argc, char** argv) {
  std::printf("E18: simulator performance probes\n\n");
  cogradio::RunManifest report("e18_sim_perf");
  report.set_config_int("warmup_slots", 512);
  report.set_config_int("window_slots", 2048);
  report.set_config_int("large_n_warmup_slots", 128);
  report.set_config_int("large_n_window_slots", 256);
  report.set_volatile_int(
      "hardware_threads",
      static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  cogradio::run_step_probes(report);
  cogradio::run_sweep_probe(report);
  const std::string out_path = report.default_path();
  if (report.write(out_path))
    std::printf("wrote %s\n\n", out_path.c_str());
  else
    std::printf("WARNING: could not write %s\n\n", out_path.c_str());

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
