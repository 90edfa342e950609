#include "harness/bench_suite.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "analysis/theory.h"
#include "core/runtime.h"
#include "harness/claims.h"
#include "serve/server.h"
#include "sim/assignment.h"

namespace cogradio {

namespace {

int trials_or(const SmokeOptions& options, int default_trials) {
  return options.trials > 0 ? options.trials : default_trials;
}

RunManifest smoke_e1_cogcast(const SmokeOptions& opt) {
  const int n = 48, k = 2;
  const int trials = trials_or(opt, 12);
  RunManifest m("smoke_e1_cogcast");
  m.set_config_int("n", n);
  m.set_config_int("k", k);
  m.set_config_string("c_values", "8,16");
  m.set_config_int("trials", trials);
  m.set_config_int("seed", static_cast<std::int64_t>(opt.seed));
  for (const int c : {8, 16}) {
    const std::string tag = "partitioned.c" + std::to_string(c);
    add_summary(m, tag,
                cogcast_slots("partitioned", n, c, k, trials,
                              opt.seed + static_cast<std::uint64_t>(c),
                              opt.jobs));
  }
  add_summary(m, "shared-core.c8",
              cogcast_slots("shared-core", n, 8, k, trials, opt.seed + 1000,
                            opt.jobs));
  return m;
}

RunManifest smoke_e2_cogcomp(const SmokeOptions& opt) {
  const int c = 8, k = 2;
  const int trials = trials_or(opt, 8);
  RunManifest m("smoke_e2_cogcomp");
  m.set_config_int("c", c);
  m.set_config_int("k", k);
  m.set_config_string("n_values", "16,32");
  m.set_config_int("trials", trials);
  m.set_config_int("seed", static_cast<std::int64_t>(opt.seed));
  for (const int n : {16, 32}) {
    const auto runs = cogcomp_trials(
        "partitioned", n, c, k, trials,
        opt.seed + static_cast<std::uint64_t>(n) * 7919, opt.jobs);
    const std::string tag = "n" + std::to_string(n);
    add_summary(m, tag + ".total", summarize(completed_slots(runs)));
    std::int64_t exact = 0;
    for (const AggregationOutcome& out : runs)
      if (out.completed && out.result == out.expected) ++exact;
    m.set_int(tag + ".exact_count", exact);
  }
  return m;
}

RunManifest smoke_e4_baseline_gap(const SmokeOptions& opt) {
  const int n = 32, c = 12, k = 2;
  const int trials = trials_or(opt, 8);
  RunManifest m("smoke_e4_baseline_gap");
  m.set_config_int("n", n);
  m.set_config_int("c", c);
  m.set_config_int("k", k);
  m.set_config_int("trials", trials);
  m.set_config_int("seed", static_cast<std::int64_t>(opt.seed));
  const Summary cogcast =
      cogcast_slots("partitioned", n, c, k, trials, opt.seed, opt.jobs);
  const Summary rendezvous = rendezvous_broadcast_slots(
      "partitioned", n, c, k, trials, opt.seed + 17, opt.jobs);
  add_summary(m, "cogcast", cogcast);
  add_summary(m, "rendezvous", rendezvous);
  if (cogcast.median > 0) m.set("ratio", rendezvous.median / cogcast.median);
  return m;
}

RunManifest smoke_e7_hitting_game(const SmokeOptions& opt) {
  const int c = 16, k = 2;
  const int trials = trials_or(opt, 48);
  RunManifest m("smoke_e7_hitting_game");
  m.set_config_int("c", c);
  m.set_config_int("k", k);
  m.set_config_int("trials", trials);
  m.set_config_int("seed", static_cast<std::int64_t>(opt.seed));
  // A FreshPlayer exhausts every edge within c^2 proposals, so no trial is
  // censored and the sweep records the exact win round.
  std::vector<double> rounds;
  for (const GameResult& game :
       hitting_game_trials(c, k, GamePlayer::Fresh,
                           static_cast<std::int64_t>(c) * c, trials, opt.seed,
                           opt.jobs))
    rounds.push_back(static_cast<double>(game.rounds));
  add_summary(m, "fresh.win_round", summarize(rounds));
  const double bound = theory::lemma11_budget(c, k);
  std::int64_t within = 0;
  for (const double r : rounds)
    if (r <= bound) ++within;
  m.set("lemma11_round_bound", bound);
  m.set_int("fresh.wins_within_lemma11", within);
  return m;
}

RunManifest smoke_e12_jamming(const SmokeOptions& opt) {
  const int n = 24, c = 12, k = 4, budget = 1;
  const int trials = trials_or(opt, 8);
  RunManifest m("smoke_e12_jamming");
  m.set_config_int("n", n);
  m.set_config_int("c", c);
  m.set_config_int("k", k);
  m.set_config_int("jam_budget", budget);
  m.set_config_string("jammer", "random");
  m.set_config_int("trials", trials);
  m.set_config_int("seed", static_cast<std::int64_t>(opt.seed));
  const auto runs = jammed_cogcast_trials("partitioned", n, c, k, "random",
                                          budget, 256, trials, opt.seed,
                                          opt.jobs);
  add_summary(m, "random.slots", summarize(completed_slots(runs)));
  std::int64_t jammed = 0;
  for (const BroadcastOutcome& out : runs)
    jammed += out.stats.jammed_node_slots;
  m.set_int("random.jammed_node_slots.total", jammed);
  return m;
}

RunManifest smoke_e13_backoff(const SmokeOptions& opt) {
  const int trials = trials_or(opt, 200);
  RunManifest m("smoke_e13_backoff");
  m.set_config_string("m_values", "8,64");
  m.set_config_int("trials", trials);
  m.set_config_int("seed", static_cast<std::int64_t>(opt.seed));
  for (const int contenders : {8, 64}) {
    const std::vector<double> micro = resolved_micro_slots(decay_backoff_trials(
        contenders, trials,
        opt.seed + static_cast<std::uint64_t>(contenders) * 104729, opt.jobs));
    const std::string tag = "decay.m" + std::to_string(contenders);
    add_summary(m, tag + ".micro_slots", summarize(micro));
    m.set_int(tag + ".failures",
              static_cast<std::int64_t>(trials) -
                  static_cast<std::int64_t>(micro.size()));
  }
  add_summary(m, "cd.m64.micro_slots",
              summarize(resolved_micro_slots(
                  cd_split_trials(64, 4096, trials, opt.seed + 3, opt.jobs))));
  return m;
}

RunManifest smoke_e25_multihop(const SmokeOptions& opt) {
  const int n = 16, c = 6, k = 2;
  const int trials = trials_or(opt, 6);
  RunManifest m("smoke_e25_multihop");
  m.set_config_int("n", n);
  m.set_config_int("c", c);
  m.set_config_int("k", k);
  m.set_config_string("topology", "line");
  m.set_config_int("trials", trials);
  m.set_config_int("seed", static_cast<std::int64_t>(opt.seed));
  add_summary(m, "line",
              summarize(completed_slots(multihop_cast_trials(
                  "partitioned", "line", n, c, k, trials, opt.seed,
                  opt.jobs))));
  return m;
}

// Miniature of E19: a correlated churn burst mid-broadcast, with the fault
// engine's recovery telemetry pinned — guards fault-schedule determinism
// and the recovery accounting the full E19/E34 benches report.
RunManifest smoke_e19_fault_recovery(const SmokeOptions& opt) {
  const int n = 20, c = 6, k = 2;
  const int burst_nodes = n / 4;
  const Slot burst_from = 2, burst_len = 24;
  const int trials = trials_or(opt, 6);
  RunManifest m("smoke_e19_fault_recovery");
  m.set_config_int("n", n);
  m.set_config_int("c", c);
  m.set_config_int("k", k);
  m.set_config_int("burst_nodes", burst_nodes);
  m.set_config_int("burst_from", burst_from);
  m.set_config_int("burst_len", burst_len);
  m.set_config_int("trials", trials);
  m.set_config_int("seed", static_cast<std::int64_t>(opt.seed));
  const Slot cap = 64 * CogCastParams{n, c, k, 4.0}.horizon() + burst_len;
  const auto runs = faulted_cogcast_trials(
      "shared-core", n, c, k, cap,
      churn_burst(n, burst_nodes, burst_from, burst_len), trials, opt.seed,
      opt.jobs);
  add_summary(m, "burst.slots", summarize(completed_slots(runs)));
  // Time-to-recover: completion slot minus the burst's end.
  std::vector<double> recover;
  std::int64_t churned = 0, drops = 0;
  for (const BroadcastOutcome& out : runs) {
    if (out.completed)
      recover.push_back(static_cast<double>(
          std::max<Slot>(0, out.slots - (burst_from + burst_len))));
    churned += out.stats.churned_node_slots;
    drops += out.stats.feedback_drops;
  }
  add_summary(m, "burst.recover", summarize(recover));
  m.set_int("burst.churned_node_slots.total", churned);
  m.set_int("burst.feedback_drops.total", drops);
  return m;
}

// One fixed run each of CogCast and CogComp with the engine's full counter
// set pinned exactly — the tripwire for behavior changes that leave medians
// intact (e.g. an off-by-one in delivery accounting).
RunManifest smoke_trace_counters(const SmokeOptions& opt) {
  const int n = 32, c = 8, k = 2;
  RunManifest m("smoke_trace_counters");
  m.set_config_int("n", n);
  m.set_config_int("c", c);
  m.set_config_int("k", k);
  m.set_config_int("seed", static_cast<std::int64_t>(opt.seed));
  {
    auto assignment =
        make_assignment("partitioned", n, c, k, LabelMode::LocalRandom,
                        Rng(opt.seed));
    CogCastRunConfig config;
    config.params = {n, c, k, 4.0};
    config.seed = opt.seed + 1;
    config.max_slots = 64 * config.params.horizon();
    const auto out = run_cogcast(*assignment, config);
    m.set_int("cogcast.completed", out.completed ? 1 : 0);
    add_trace_stats(m, "cogcast", out.stats);
  }
  {
    auto assignment =
        make_assignment("partitioned", n, c, k, LabelMode::LocalRandom,
                        Rng(opt.seed + 2));
    CogCompRunConfig config;
    config.params.n = n;
    config.params.c = c;
    config.params.k = k;
    config.seed = opt.seed + 3;
    const auto values = make_values(n, opt.seed + 4);
    const auto out = run_cogcomp(*assignment, values, config);
    m.set_int("cogcomp.completed", out.completed ? 1 : 0);
    m.set_int("cogcomp.phase4_slots", out.phase4_slots);
    m.set_int("cogcomp.result", out.result);
    m.set_int("cogcomp.expected", out.expected);
    m.set_int("cogcomp.covered", out.covered);
    add_trace_stats(m, "cogcomp", out.stats);
  }
  return m;
}

// One fixed CogCast run on the engine and on the reference engine: the
// engine's counters are pinned exactly, and the bit-identity verdict is a
// deterministic 0/1 metric — the bench-gate arm of the reference
// differential (tests/test_reference_network.cpp holds the wide one). The
// soa.* and layouts_bit_identical names date from when the reference was
// a layout of the engine; they stay so the baseline stays byte-identical.
RunManifest smoke_e35_layouts(const SmokeOptions& opt) {
  const int n = 40, c = 8, k = 2;
  RunManifest m("smoke_e35_layouts");
  m.set_config_int("n", n);
  m.set_config_int("c", c);
  m.set_config_int("k", k);
  m.set_config_int("seed", static_cast<std::int64_t>(opt.seed));
  const auto run = [&](auto runner) {
    auto assignment = make_assignment("shared-core", n, c, k,
                                      LabelMode::LocalRandom, Rng(opt.seed));
    CogCastRunConfig config;
    config.params = {n, c, k, 4.0};
    config.seed = opt.seed + 1;
    config.max_slots = 64 * config.params.horizon();
    return runner(*assignment, config);
  };
  const auto engine = run(run_cogcast);
  const auto reference = run(run_cogcast_reference);
  m.set_int("soa.completed", engine.completed ? 1 : 0);
  m.set_int("soa.slots", engine.slots);
  add_trace_stats(m, "soa", engine.stats);
  m.set_int("layouts_bit_identical",
            engine.completed == reference.completed &&
                    engine.slots == reference.slots &&
                    engine.stats == reference.stats
                ? 1
                : 0);
  return m;
}

// The serve daemon's bench-gate arm (the ServeLoadgen tests add a
// starved daemon and a clean wave after the churn): an in-process daemon
// driven through a clean loadgen wave and a disconnect-injection wave.
// Every recorded metric is a deterministic 0/1 flag — byte-identity of
// every surviving session against a local run_job, and the
// exact-accounting invariant accepted == completed + shed_on_disconnect +
// aborted + failed. Counts, rates and latencies are machine-dependent and
// stay out of the manifest entirely.
RunManifest smoke_e37_serve(const SmokeOptions& opt) {
  RunManifest m("smoke_e37_serve");
  m.set_config_int("seed", static_cast<std::int64_t>(opt.seed));
  ServeOptions options;
  options.tcp_port = 0;  // ephemeral loopback port
  options.workers = 2;
  LoadgenOptions load;
  load.sessions = 12;
  load.connections = 4;
  load.seed = opt.seed;
  load.job.n = 24;
  load.job.c = 6;
  load.job.k = 2;
  const ServeWaves waves = run_serve_waves(options, load);
  const LoadgenReport& clean = waves.clean;
  const LoadgenReport& churn = waves.churn;
  const ServeStats& stats = waves.daemon;
  m.set_int("clean.all_completed",
            clean.ok && clean.completed == clean.sessions ? 1 : 0);
  m.set_int("clean.all_verified",
            clean.verify_failures == 0 && clean.protocol_errors == 0 &&
                    clean.transport_errors == 0
                ? 1
                : 0);
  m.set_int("churn.daemon_survived",
            churn.ok && churn.killed > 0 && stats.failed == 0 ? 1 : 0);
  m.set_int("churn.surviving_verified", churn.verify_failures == 0 ? 1 : 0);
  m.set_int("accounting_exact",
            stats.accepted == stats.completed + stats.shed_disconnect +
                                  stats.aborted + stats.failed
                ? 1
                : 0);
  return m;
}

struct ExperimentDef {
  const char* name;
  RunManifest (*run)(const SmokeOptions&);
};

constexpr ExperimentDef kExperiments[] = {
    {"smoke_e1_cogcast", smoke_e1_cogcast},
    {"smoke_e2_cogcomp", smoke_e2_cogcomp},
    {"smoke_e4_baseline_gap", smoke_e4_baseline_gap},
    {"smoke_e7_hitting_game", smoke_e7_hitting_game},
    {"smoke_e12_jamming", smoke_e12_jamming},
    {"smoke_e13_backoff", smoke_e13_backoff},
    {"smoke_e19_fault_recovery", smoke_e19_fault_recovery},
    {"smoke_e25_multihop", smoke_e25_multihop},
    {"smoke_e35_layouts", smoke_e35_layouts},
    {"smoke_e37_serve", smoke_e37_serve},
    {"smoke_trace_counters", smoke_trace_counters},
};

}  // namespace

std::vector<std::string> smoke_experiment_names() {
  std::vector<std::string> names;
  for (const ExperimentDef& e : kExperiments) names.emplace_back(e.name);
  return names;
}

RunManifest run_smoke_experiment(const std::string& name,
                                 const SmokeOptions& options) {
  for (const ExperimentDef& e : kExperiments)
    if (name == e.name) return e.run(options);
  std::abort();  // callers validate against smoke_experiment_names()
}

void add_summary(RunManifest& manifest, const std::string& prefix,
                 const Summary& summary) {
  manifest.set_int(prefix + ".count", static_cast<std::int64_t>(summary.count));
  manifest.set(prefix + ".median", summary.median);
  manifest.set(prefix + ".p95", summary.p95);
}

void add_trace_stats(RunManifest& manifest, const std::string& prefix,
                     const TraceStats& stats) {
  manifest.set_int(prefix + ".slots", stats.slots);
  manifest.set_int(prefix + ".broadcasts", stats.broadcasts);
  manifest.set_int(prefix + ".successes", stats.successes);
  manifest.set_int(prefix + ".deliveries", stats.deliveries);
  manifest.set_int(prefix + ".collision_events", stats.collision_events);
  manifest.set_int(prefix + ".jammed_node_slots", stats.jammed_node_slots);
  manifest.set_int(prefix + ".idle_node_slots", stats.idle_node_slots);
  // Fault telemetry: pinned at zero for fault-free runs, so any engine
  // change that starts (or stops) injecting shows up in the gate.
  manifest.set_int(prefix + ".fault_node_slots", stats.fault_node_slots);
  manifest.set_int(prefix + ".suppressed_deliveries",
                   stats.suppressed_deliveries);
  manifest.set_int(prefix + ".feedback_drops", stats.feedback_drops);
}

}  // namespace cogradio
