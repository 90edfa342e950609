// E34 — supervisor ablation: self-healing restarts under a churn burst.
//
// The paper's robustness discussion (Sections 1 and 4) is asymmetric:
// CogCast is oblivious and rides out faults, while CogComp's
// coordination-heavy phases 2-4 can be left permanently incomplete by a
// mid-run fault — a deployment must detect that and restart. This harness
// quantifies both halves with core/supervisor.h: each trial runs the
// protocol under a correlated churn burst injected ONLY in the first
// supervised epoch (a restart escapes the burst, modelling a transient
// environmental event).
//
//   CogCast  should complete in epoch 0 — zero restarts, the burst only
//            delays the epidemic;
//   CogComp  epoch 0 ends incomplete (the burst breaks clustering /
//            aggregation), the supervisor restarts, epoch 1 completes —
//            the unsupervised completion rate vs the supervised one is the
//            ablation headline.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/supervisor.h"
#include "sim/fault_engine.h"

using namespace cogradio;
using namespace cogradio::bench;

namespace {

struct TrialResult {
  bool completed = false;        // supervised outcome
  bool epoch0_completed = false; // what an unsupervised run would report
  int restarts = 0;
  Slot total_slots = 0;
};

// The first epoch's churn burst: `affected` nodes, never the source (0),
// churned out for `len` slots from `from`.
FaultEngine make_burst(int n, int c, std::uint64_t seed, int affected,
                       Slot from, Slot len) {
  FaultEngine engine(n, c, Rng(seed));
  Rng picker(seed + 1);
  const auto picks = picker.sample_without_replacement(n - 1, affected);
  std::vector<NodeId> hit;
  for (const auto u : picks) hit.push_back(u + 1);
  engine.add_burst(hit, from, len);
  return engine;
}

struct SweepStats {
  int trials = 0;
  int supervised_completed = 0;
  int epoch0_completed = 0;
  Summary restarts;
  Summary total_slots;
};

template <typename RunTrial>
SweepStats sweep(int trials, std::uint64_t base_seed, int jobs,
                 RunTrial run_trial) {
  const auto results = sweep_outcomes(trials, base_seed, jobs, run_trial);
  SweepStats stats;
  stats.trials = trials;
  std::vector<double> restarts, slots;
  for (const TrialResult& r : results) {
    stats.supervised_completed += r.completed ? 1 : 0;
    stats.epoch0_completed += r.epoch0_completed ? 1 : 0;
    restarts.push_back(static_cast<double>(r.restarts));
    slots.push_back(static_cast<double>(r.total_slots));
  }
  stats.restarts = summarize(restarts);
  stats.total_slots = summarize(slots);
  return stats;
}

TrialResult to_result(const SupervisedOutcome& out) {
  TrialResult r;
  r.completed = out.completed;
  r.epoch0_completed = !out.epochs.empty() && out.epochs.front().completed;
  r.restarts = out.restarts;
  r.total_slots = out.total_slots;
  return r;
}

void add_stats(BenchManifest& manifest, const std::string& prefix,
               const SweepStats& s) {
  manifest.set_int(prefix + ".supervised_completed", s.supervised_completed);
  manifest.set_int(prefix + ".epoch0_completed", s.epoch0_completed);
  add_summary(manifest, prefix + ".restarts", s.restarts);
  add_summary(manifest, prefix + ".total_slots", s.total_slots);
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 25));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int jobs = args.get_jobs();
  const int n = static_cast<int>(args.get_int("n", 32));
  const int c = static_cast<int>(args.get_int("c", 8));
  const int k = static_cast<int>(args.get_int("k", 3));
  const int affected = static_cast<int>(args.get_int("affected", n / 3));
  args.finish();
  BenchManifest manifest("e34_supervisor", &args);

  std::printf("E34: supervised runs under a first-epoch churn burst   "
              "(n=%d, c=%d, k=%d, burst=%d nodes, %d trials)\n",
              n, c, k, affected, trials);

  const CogCastParams cast_params{n, c, k};
  const CogCompParams comp_params{n, c, k};
  // One identical burst window for both protocols, opening at slot 3 and
  // spanning CogComp's phases 1-2 (broadcast + cluster formation): long
  // enough that CogCast must ride it out (it completes only after the
  // burst clears) and that CogComp's clustering is wrecked beyond repair.
  const Slot burst_from = 3;
  const Slot burst_len = comp_params.phase2_end();

  const SweepStats cast = sweep(trials, seed, jobs, [&](Rng& rng) {
    const std::uint64_t topo_seed = rng();
    const std::uint64_t burst_seed = rng();
    const std::uint64_t run_seed = rng();
    SharedCoreAssignment assignment(n, c, k, LabelMode::LocalRandom,
                                    Rng(topo_seed));
    FaultEngine burst =
        make_burst(n, c, burst_seed, affected, burst_from, burst_len);
    CogCastRunConfig config;
    config.params = cast_params;
    CogCastRunConfig first = config;
    first.fault_engine = &burst;
    SupervisorOptions options;
    options.deadline = 8 * cast_params.horizon() + burst_from + burst_len;
    options.max_restarts = 3;
    const SupervisedOutcome out = run_supervised(
        [&](int attempt, std::uint64_t aseed) {
          return build_cogcast_run(assignment, attempt == 0 ? first : config,
                                   aseed);
        },
        options, run_seed);
    return to_result(out);
  });
  add_stats(manifest, "cogcast", cast);

  const SweepStats comp = sweep(trials, seed + 1000, jobs, [&](Rng& rng) {
    const std::uint64_t topo_seed = rng();
    const std::uint64_t burst_seed = rng();
    const std::uint64_t run_seed = rng();
    const std::uint64_t value_seed = rng();
    SharedCoreAssignment assignment(n, c, k, LabelMode::LocalRandom,
                                    Rng(topo_seed));
    const std::vector<Value> values = make_values(n, value_seed);
    FaultEngine burst =
        make_burst(n, c, burst_seed, affected, burst_from, burst_len);
    CogCompRunConfig config;
    config.params = comp_params;
    CogCompRunConfig first = config;
    first.fault_engine = &burst;
    SupervisorOptions options;
    options.deadline = comp_params.max_slots() + 16;
    options.max_restarts = 3;
    const SupervisedOutcome out = run_supervised(
        [&](int attempt, std::uint64_t aseed) {
          return build_cogcomp_run(assignment, values,
                                   attempt == 0 ? first : config, aseed);
        },
        options, run_seed);
    return to_result(out);
  });
  add_stats(manifest, "cogcomp", comp);

  Table table({"protocol", "unsupervised ok", "supervised ok",
               "median restarts", "median total slots"});
  table.add_row({"CogCast",
                 Table::num(static_cast<std::int64_t>(cast.epoch0_completed)),
                 Table::num(static_cast<std::int64_t>(cast.supervised_completed)),
                 Table::num(cast.restarts.median, 1),
                 Table::num(cast.total_slots.median, 1)});
  table.add_row({"CogComp",
                 Table::num(static_cast<std::int64_t>(comp.epoch0_completed)),
                 Table::num(static_cast<std::int64_t>(comp.supervised_completed)),
                 Table::num(comp.restarts.median, 1),
                 Table::num(comp.total_slots.median, 1)});
  table.print_with_title("supervisor ablation (counts out of " +
                         std::to_string(trials) + " trials)");

  std::printf("\ntheory: the oblivious epidemic needs no supervisor (zero\n"
              "restarts); the coordination-heavy aggregation needs exactly\n"
              "the restart to recover from a phase-2 burst.\n");
  manifest.write();
  return 0;
}
