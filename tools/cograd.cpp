// cograd — unified command-line front end for the cogradio library.
//
//   cograd <command> [--flags]
//
// Commands:
//   broadcast   CogCast local broadcast            (Theorem 4)
//   aggregate   CogComp data aggregation           (Theorem 10)
//   consensus   CogConsensus (min/max/majority)
//   gossip      all-to-all rumor spreading
//   multihop    epidemic flooding over a topology
//   game        bipartite hitting game             (Lemmas 11/14)
//   record      run a broadcast and dump the execution log
//   check       property-based invariant sweep with shrinking
//   bench       smoke benchmark suite + regression gate
//   lint        determinism & model-soundness source linter
//   serve       long-lived multi-session job daemon (unix socket / TCP)
//   loadgen     load generator + byte-identity verifier for serve
//
// Common flags: --n --c --k --pattern --seed --trials; each command adds
// its own (see the usage text). All runs are deterministic in --seed.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "analysis/bench_suite.h"
#include "analysis/lint.h"
#include "analysis/theory.h"
#include "core/consensus.h"
#include "core/gossip.h"
#include "core/multihop_cast.h"
#include "core/runtime.h"
#include "core/supervisor.h"
#include "lowerbounds/hitting_game.h"
#include "lowerbounds/reduction.h"
#include "serve/crashtest.h"
#include "serve/job.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "sim/assignment.h"
#include "sim/checkpoint.h"
#include "sim/recorder.h"
#include "util/atomic_file.h"
#include "util/bench_gate.h"
#include "util/bench_report.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/proptest.h"
#include "util/stats.h"
#include "util/table.h"

using namespace cogradio;

namespace {

int usage() {
  std::puts(
      "usage: cograd <command> [--flags]\n"
      "\n"
      "commands:\n"
      "  broadcast  --n 32 --c 8 --k 2 [--pattern shared-core] [--trials 1]\n"
      "             [--supervise] [--deadline S] [--stall-window W]\n"
      "             [--max-restarts R] [--max-deadline D]\n"
      "             (self-healing run supervisor: each trial is a serve\n"
      "             job's trial, the trials drawn from one seeder)\n"
      "             [--checkpoint FILE] [--checkpoint-every K]\n"
      "             [--resume FILE] [--outcome-out FILE]\n"
      "             (need --supervise; crash-consistent snapshots every K\n"
      "             slots; --resume continues one bit-identically — rerun\n"
      "             with the SAME flags plus --resume; --checkpoint,\n"
      "             --resume and --outcome-out need --trials 1)\n"
      "  aggregate  --n 32 --c 8 --k 2 [--op sum|min|max|count|collect]\n"
      "             [--unmediated] [--supervise] [--deadline S]\n"
      "             [--stall-window W] [--max-restarts R] [--max-deadline D]\n"
      "             [--checkpoint FILE] [--checkpoint-every K]\n"
      "             [--resume FILE] [--outcome-out FILE]   (as broadcast)\n"
      "  crashtest  [--mode run|serve|corrupt] [--seed S] [--points P]\n"
      "             (SIGKILL a child mid-run / mid-journal-append /\n"
      "             between checkpoint write and rename, restart, and\n"
      "             verify byte-identical outcomes and exact accounting;\n"
      "             corrupt mode must FAIL — WILL_FAIL oracle legs)\n"
      "  consensus  --n 32 --c 8 --k 2 [--rule min|max|majority]\n"
      "  gossip     --n 32 --c 8 --k 2\n"
      "  multihop   --n 32 --c 8 --k 2 [--topology line|ring|grid|geometric]\n"
      "  game       --c 16 --k 4 [--player uniform|fresh|cogcast --n 16]\n"
      "             [--trials 200]\n"
      "  record     --n 16 --c 6 --k 2   (dumps 'slot node mode channel ...')\n"
      "  check      [--trials 64] [--jobs J] [--trial T] [--repro-out FILE]\n"
      "             [--shrink-budget 256]   (slot-invariant property sweep;\n"
      "             every scenario also re-runs on the reference\n"
      "             engine and both must agree bit for bit)\n"
      "             [--faults]   (fuzz FaultEngine schedules; fails unless\n"
      "             every fault kind was exercised at least once)\n"
      "             [--testonly-mutation deaf-hears|mute-transmits|\n"
      "             babble-idles|keep-dropped-feedback|churn-acts|\n"
      "             resume-skew]\n"
      "             (inject one invariant-breaking radio bug; the sweep\n"
      "             must FAIL — used by the WILL_FAIL oracle legs)\n"
      "             [--fault-log-out FILE]  (fault schedules of failures)\n"
      "  bench      [--jobs J] [--trials T] [--only e1,e2,...]\n"
      "             [--out BENCH_all.json] [--compare BASELINE.json]\n"
      "             [--diff-out FILE] [--list] [--validate F1,F2,...]\n"
      "             (smoke benchmark suite + exact regression gate:\n"
      "             every metric BASELINE.json pins must reproduce)\n"
      "  lint       [--tree DIR] [--json LINT.json] [--diff REF.json]\n"
      "             [--jobs J]\n"
      "             (determinism + concurrency/layering source linter:\n"
      "             rules R1-R12, see docs/LINT.md; --diff fails on\n"
      "             findings REF.json does not list and on a stale\n"
      "             REF.json, and writes no manifest unless --json is\n"
      "             given)\n"
      "  serve      [--socket PATH] [--port P] [--workers W]\n"
      "             [--max-queue Q] [--max-sessions S] [--smoke N]\n"
      "             (line-JSON job daemon; --smoke N runs an in-process\n"
      "             self-test with N sessions incl. kill injection)\n"
      "             [--journal FILE] [--recover] [--checkpoint-every K]\n"
      "             (fsync'd job journal; --recover re-queues every job\n"
      "             without a done record — resumed mid-epoch when a\n"
      "             checkpoint was journaled. SIGTERM/SIGINT drain\n"
      "             gracefully: finish queued+running jobs, then exit)\n"
      "  loadgen    [--socket PATH | --port P] [--sessions N]\n"
      "             [--connections C] [--kill-every K] [--no-verify]\n"
      "             [--shutdown]   (send a shutdown frame afterwards)\n"
      "             [--kind cogcast|cogcomp] [job flags: --n --c --k\n"
      "             --pattern --seed --op --unmediated --deadline\n"
      "             --stall-window --max-restarts --max-deadline]\n"
      "\n"
      "common: --seed S (default 1), --pattern shared-core|partitioned|\n"
      "        pigeonhole|identity|dynamic-shared-core|dynamic-pigeonhole\n"
      "errors: a malformed flag exits 2 with 'cli error: ...'; a value no\n"
      "        run can take (k outside [1, c], an unknown name, --trials\n"
      "        below 1, a checkpoint flag without --supervise) exits 2 with\n"
      "        'cograd: ...'");
  return 2;
}

struct Common {
  int n, c, k;
  std::string pattern;
  std::uint64_t seed;
  int trials;
};

Common read_common(CliArgs& args) {
  Common common;
  common.n = static_cast<int>(args.get_int("n", 32));
  common.c = static_cast<int>(args.get_int("c", 8));
  common.k = static_cast<int>(args.get_int("k", 2));
  common.pattern = args.get_string("pattern", "shared-core");
  common.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  common.trials = static_cast<int>(args.get_int("trials", 1));
  return common;
}

// The commands that summarize a sample of trials (broadcast, aggregate,
// game) need one: an empty sample has no median to report.
void require_trials(int trials) {
  if (trials < 1) throw std::invalid_argument("--trials must be >= 1");
}

// The supervisor flags of every job-shaped command (broadcast, aggregate,
// serve --smoke, loadgen). With neither --deadline nor --stall-window,
// run_job_trial bounds an epoch by the run's own slot cap.
void read_supervisor_flags(CliArgs& args, JobSpec& job) {
  job.deadline = args.get_int("deadline", 0);
  job.stall_window = args.get_int("stall-window", 0);
  job.max_restarts = static_cast<int>(args.get_int("max-restarts", 3));
  job.max_deadline = args.get_int("max-deadline", 0);
}

// broadcast's and aggregate's flags as the serve job (serve/job.h) their
// supervised trials run.
JobSpec read_supervised_job(CliArgs& args, JobKind kind, const Common& common) {
  JobSpec job;
  job.kind = kind;
  job.n = common.n;
  job.c = common.c;
  job.k = common.k;
  job.pattern = common.pattern;
  job.seed = common.seed;
  read_supervisor_flags(args, job);
  return job;
}

// Checkpoint/resume flags shared by the supervised broadcast/aggregate
// paths (read before args.finish()).
struct CheckpointCli {
  std::string save_path;   // --checkpoint FILE (empty = off)
  Slot every = 0;          // --checkpoint-every K slots
  std::string resume_path; // --resume FILE (empty = fresh start)
  std::string outcome_out; // --outcome-out FILE (canonical outcome JSON)

  bool any() const { return !save_path.empty() || !resume_path.empty(); }
};

CheckpointCli read_checkpoint_cli(CliArgs& args) {
  CheckpointCli cli;
  cli.save_path = args.get_string("checkpoint", "");
  cli.every = args.get_int("checkpoint-every", 64);
  cli.resume_path = args.get_string("resume", "");
  cli.outcome_out = args.get_string("outcome-out", "");
  return cli;
}

// Validates flag combinations and materializes the CheckpointPolicy
// before any run starts; loading the resume file happens here so a
// corrupted snapshot fails the command before any simulation state
// exists. Throws std::invalid_argument on misuse (main exits 2).
CheckpointPolicy make_checkpoint_policy(const CheckpointCli& cli,
                                        bool supervise, int trials) {
  if (!supervise && (cli.any() || !cli.outcome_out.empty()))
    throw std::invalid_argument(
        "--checkpoint/--resume/--outcome-out require --supervise");
  if (trials != 1 && cli.any())
    throw std::invalid_argument("--checkpoint/--resume require --trials 1");
  // One file holds one outcome: later trials would overwrite earlier ones.
  if (trials != 1 && !cli.outcome_out.empty())
    throw std::invalid_argument("--outcome-out requires --trials 1");
  CheckpointPolicy policy;
  if (!cli.any()) return policy;
  if (cli.every <= 0)
    throw std::invalid_argument("--checkpoint-every must be >= 1");
  if (!cli.save_path.empty()) {
    policy.sink = [path = cli.save_path](const std::string& payload) {
      save_checkpoint_file(path, payload);
    };
    policy.every_slots = cli.every;
  }
  if (!cli.resume_path.empty())
    policy.resume = load_checkpoint_file(cli.resume_path);
  return policy;
}

// Canonical one-line JSON of a supervised run: outcome, epoch history, and
// the final network's complete accounting. The crash harness asserts this
// file is byte-identical between an uninterrupted control run and a
// killed-and-resumed run — every field that could diverge is in here.
std::string supervised_outcome_json(const JobTrial& trial, JobKind kind) {
  const SupervisedOutcome& out = trial.outcome;
  std::ostringstream os;
  os << "{\"completed\":" << (out.completed ? "true" : "false")
     << ",\"aborted\":" << (out.aborted ? "true" : "false")
     << ",\"restarts\":" << out.restarts
     << ",\"total_slots\":" << out.total_slots << ",\"epochs\":[";
  for (std::size_t i = 0; i < out.epochs.size(); ++i) {
    const EpochStats& e = out.epochs[i];
    if (i > 0) os << ",";
    os << "[" << e.slots << "," << (e.completed ? 1 : 0) << ","
       << (e.stalled ? 1 : 0) << "," << (e.deadline_hit ? 1 : 0) << "]";
  }
  os << "],\"stats\":[";
  for (std::size_t i = 0; i < kTraceStatsCounters.size(); ++i)
    os << (i > 0 ? "," : "") << trial.stats.*kTraceStatsCounters[i];
  os << "]";
  if (kind == JobKind::CogComp && out.completed)
    os << ",\"aggregate\":" << trial.result.result;
  os << "}\n";
  return os.str();
}

// `broadcast|aggregate --supervise`: the job's trials, run one after
// another on one seeder.
int run_supervised_trials(const JobSpec& job, int trials,
                          const CheckpointPolicy& policy,
                          const std::string& outcome_out) {
  Rng seeder(job.seed);
  int completed = 0;
  for (int t = 0; t < trials; ++t) {
    const JobTrial trial = run_job_trial(job, seeder, policy);
    const SupervisedOutcome& out = trial.outcome;
    completed += out.completed ? 1 : 0;
    std::printf("trial %d: %s after %lld slots, %d restarts (%zu epochs)\n",
                t, out.completed ? "completed" : "GAVE UP",
                static_cast<long long>(out.total_slots), out.restarts,
                out.epochs.size());
    if (!outcome_out.empty() &&
        !write_file_atomic(outcome_out,
                           supervised_outcome_json(trial, job.kind)))
      return 1;
  }
  return completed == trials ? 0 : 1;
}

int cmd_broadcast(CliArgs& args) {
  const Common common = read_common(args);
  const bool supervise = args.get_flag("supervise");
  const JobSpec job = read_supervised_job(args, JobKind::CogCast, common);
  const CheckpointCli ckpt = read_checkpoint_cli(args);
  args.finish();
  require_trials(common.trials);
  const CheckpointPolicy policy =
      make_checkpoint_policy(ckpt, supervise, common.trials);
  if (supervise)
    return run_supervised_trials(job, common.trials, policy, ckpt.outcome_out);

  std::vector<double> slots;
  Rng seeder(common.seed);
  for (int t = 0; t < common.trials; ++t) {
    auto assignment = make_assignment(common.pattern, common.n, common.c,
                                      common.k, LabelMode::LocalRandom,
                                      Rng(seeder()));
    CogCastRunConfig config;
    config.params = {common.n, common.c, common.k, 4.0};
    config.seed = seeder();
    const auto out = run_cogcast(*assignment, config);
    if (!out.completed) {
      std::printf("trial %d: INCOMPLETE after %lld slots\n", t,
                  static_cast<long long>(out.slots));
      continue;
    }
    slots.push_back(static_cast<double>(out.slots));
    if (common.trials == 1)
      std::printf("completed in %lld slots (horizon %lld); tree valid: %s\n",
                  static_cast<long long>(out.slots),
                  static_cast<long long>(config.params.horizon()),
                  valid_distribution_tree(0, out.informed_slot, out.parent)
                      ? "yes"
                      : "NO");
  }
  if (common.trials > 1) {
    const Summary s = summarize(slots);
    std::printf("broadcast %s n=%d c=%d k=%d: median %.1f p95 %.1f "
                "(%zu/%d trials)\n",
                common.pattern.c_str(), common.n, common.c, common.k, s.median,
                s.p95, s.count, common.trials);
  }
  return 0;
}

int cmd_aggregate(CliArgs& args) {
  const Common common = read_common(args);
  JobSpec job = read_supervised_job(args, JobKind::CogComp, common);
  job.op = parse_agg_op(args.get_string("op", "sum"));
  job.mediated = !args.get_flag("unmediated");
  const bool supervise = args.get_flag("supervise");
  const CheckpointCli ckpt = read_checkpoint_cli(args);
  args.finish();
  require_trials(common.trials);
  const CheckpointPolicy policy =
      make_checkpoint_policy(ckpt, supervise, common.trials);
  if (supervise)
    return run_supervised_trials(job, common.trials, policy, ckpt.outcome_out);

  Rng seeder(common.seed);
  for (int t = 0; t < common.trials; ++t) {
    auto assignment = make_assignment(common.pattern, common.n, common.c,
                                      common.k, LabelMode::LocalRandom,
                                      Rng(seeder()));
    CogCompRunConfig config;
    config.params = {common.n, common.c, common.k, 4.0};
    config.params.mediated = job.mediated;
    config.seed = seeder();
    config.op = job.op;
    const auto values = make_values(common.n, seeder());
    const auto out = run_cogcomp(*assignment, values, config);
    std::printf("%s = %lld (expected %lld) in %lld slots "
                "(phase4 %lld) [%s]\n",
                to_string(job.op).c_str(), static_cast<long long>(out.result),
                static_cast<long long>(out.expected),
                static_cast<long long>(out.slots),
                static_cast<long long>(out.phase4_slots),
                out.completed && out.result == out.expected ? "ok" : "FAIL");
  }
  return 0;
}

int cmd_consensus(CliArgs& args) {
  const Common common = read_common(args);
  const std::string rule_name = args.get_string("rule", "min");
  args.finish();
  if (rule_name != "min" && rule_name != "max" && rule_name != "majority")
    throw std::invalid_argument("unknown consensus rule: " + rule_name);
  ConsensusRule rule = min_consensus();
  if (rule_name == "max") rule = max_consensus();
  if (rule_name == "majority") rule = majority_consensus();

  const ConsensusParams params{common.n, common.c, common.k, 4.0};
  auto assignment =
      make_assignment(common.pattern, common.n, common.c, common.k,
                      LabelMode::LocalRandom, Rng(common.seed));
  const auto proposals =
      rule_name == "majority" ? make_values(common.n, common.seed, 0, 1)
                              : make_values(common.n, common.seed, 0, 99);
  Rng seeder(common.seed * 3 + 1);
  std::vector<std::unique_ptr<CogConsensusNode>> nodes;
  std::vector<Protocol*> protocols;
  for (NodeId u = 0; u < common.n; ++u) {
    nodes.push_back(std::make_unique<CogConsensusNode>(
        u, params, u == 0, proposals[static_cast<std::size_t>(u)], rule,
        seeder.split(static_cast<std::uint64_t>(u))));
    protocols.push_back(nodes.back().get());
  }
  Network network(*assignment, protocols);
  const Slot slots = network.run(params.max_slots());
  bool agree = true;
  for (const auto& node : nodes)
    agree = agree && node->decided() && node->decision() == nodes[0]->decision();
  std::printf("consensus(%s) = %lld in %lld slots; agreement: %s\n",
              rule_name.c_str(), static_cast<long long>(nodes[0]->decision()),
              static_cast<long long>(slots), agree ? "yes" : "NO");
  return agree ? 0 : 1;
}

int cmd_gossip(CliArgs& args) {
  const Common common = read_common(args);
  args.finish();
  auto assignment =
      make_assignment(common.pattern, common.n, common.c, common.k,
                      LabelMode::LocalRandom, Rng(common.seed));
  const auto values = make_values(common.n, common.seed);
  GossipConfig config;
  config.seed = common.seed + 1;
  const auto out = run_gossip(*assignment, values, config);
  std::printf("gossip: %s in %lld slots (n=%d rumors everywhere)\n",
              out.completed ? "complete" : "INCOMPLETE",
              static_cast<long long>(out.slots), common.n);
  return out.completed ? 0 : 1;
}

int cmd_multihop(CliArgs& args) {
  const Common common = read_common(args);
  const std::string shape = args.get_string("topology", "grid");
  args.finish();
  if (shape != "line" && shape != "ring" && shape != "grid" &&
      shape != "geometric")
    throw std::invalid_argument("unknown topology: " + shape);
  Topology topo = shape == "line"   ? Topology::line(common.n)
                  : shape == "ring" ? Topology::ring(common.n)
                  : shape == "grid"
                      ? Topology::grid(std::max(1, common.n / 8), 8)
                      : Topology::random_geometric(common.n, 0.3,
                                                   Rng(common.seed));
  auto assignment =
      make_assignment(common.pattern, topo.num_nodes(), common.c, common.k,
                      LabelMode::LocalRandom, Rng(common.seed + 1));
  MultihopCastConfig config;
  config.seed = common.seed + 2;
  const auto out = run_multihop_cast(*assignment, topo, config);
  std::printf("multihop %s (n=%d, diameter %d): %s in %lld slots\n",
              shape.c_str(), topo.num_nodes(), topo.diameter(),
              out.completed ? "complete" : "INCOMPLETE",
              static_cast<long long>(out.slots));
  return out.completed ? 0 : 1;
}

int cmd_game(CliArgs& args) {
  const int c = static_cast<int>(args.get_int("c", 16));
  const int k = static_cast<int>(args.get_int("k", 4));
  const int n = static_cast<int>(args.get_int("n", 16));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int trials = static_cast<int>(args.get_int("trials", 200));
  const std::string who = args.get_string("player", "fresh");
  args.finish();
  require_trials(trials);
  if (who != "uniform" && who != "fresh" && who != "cogcast")
    throw std::invalid_argument("unknown player: " + who);

  constexpr std::int64_t kMaxRounds = 1'000'000;
  std::vector<double> rounds;
  Rng seeder(seed);
  for (int t = 0; t < trials; ++t) {
    HittingGameReferee referee(c, k, Rng(seeder()));
    std::unique_ptr<HittingGamePlayer> player;
    if (who == "uniform")
      player = std::make_unique<UniformPlayer>(c, Rng(seeder()));
    else if (who == "cogcast")
      player = std::make_unique<CogCastHittingPlayer>(n, c, Rng(seeder()));
    else
      player = std::make_unique<FreshPlayer>(c, Rng(seeder()));
    const GameResult result = play(referee, *player, kMaxRounds);
    if (result.won) rounds.push_back(static_cast<double>(result.rounds));
  }
  std::string budget_note;
  if (2 * k <= c)
    budget_note =
        ", Lemma 11 budget " + Table::num(theory::lemma11_budget(c, k), 1);
  const double c2k = static_cast<double>(c) * c / k;
  // A trial that never wins has no win round: the median of the winners
  // alone would understate the game, so a lost trial drops the median.
  if (static_cast<int>(rounds.size()) < trials)
    std::printf("(%d,%d)-hitting game, %s player: %zu/%d trials won within "
                "%lld rounds (c^2/k = %.1f%s)\n",
                c, k, who.c_str(), rounds.size(), trials,
                static_cast<long long>(kMaxRounds), c2k, budget_note.c_str());
  else
    std::printf("(%d,%d)-hitting game, %s player: median %.1f rounds "
                "(c^2/k = %.1f%s)\n",
                c, k, who.c_str(), summarize(rounds).median, c2k,
                budget_note.c_str());
  return 0;
}

int cmd_record(CliArgs& args) {
  const Common common = read_common(args);
  args.finish();
  ExecutionRecorder recorder;
  SharedCoreAssignment assignment(common.n, common.c, common.k,
                                  LabelMode::LocalRandom, Rng(common.seed));
  Message payload;
  payload.type = MessageType::Data;
  Rng seeder(common.seed + 1);
  std::vector<std::unique_ptr<CogCastNode>> nodes;
  std::vector<Protocol*> protocols;
  for (NodeId u = 0; u < common.n; ++u) {
    nodes.push_back(std::make_unique<CogCastNode>(
        u, common.c, u == 0, payload,
        seeder.split(static_cast<std::uint64_t>(u))));
    protocols.push_back(nodes.back().get());
  }
  Network network(assignment, protocols);
  recorder.attach(network);
  network.run(100'000);
  std::fputs(recorder.serialize().c_str(), stdout);
  std::fprintf(stderr, "# %zu actions, fingerprint %016llx\n",
               recorder.size(),
               static_cast<unsigned long long>(recorder.fingerprint()));
  return 0;
}

// Maps a --testonly-mutation name to the NetworkOptions knob; returns
// false on an unknown name.
bool parse_mutation(const std::string& name, TestonlyFaultMutation* out) {
  if (name == "none") *out = TestonlyFaultMutation::None;
  else if (name == "deaf-hears") *out = TestonlyFaultMutation::DeafHears;
  else if (name == "mute-transmits") *out = TestonlyFaultMutation::MuteTransmits;
  else if (name == "babble-idles") *out = TestonlyFaultMutation::BabbleIdles;
  else if (name == "keep-dropped-feedback")
    *out = TestonlyFaultMutation::KeepDroppedFeedback;
  else if (name == "churn-acts") *out = TestonlyFaultMutation::ChurnActs;
  else return false;
  return true;
}

// Property-based invariant sweep. The output deliberately never mentions
// the worker count: runs with different --jobs must be byte-identical so
// CI can diff them as a determinism check. --faults widens the scenario
// space with FaultEngine schedules and requires every kind to have been
// injected at least once across the sweep (the per-kind totals are atomic
// sums of per-trial values, so they too are jobs-invariant).
int cmd_check(CliArgs& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int trials = static_cast<int>(args.get_int("trials", 64));
  const int trial = static_cast<int>(args.get_int("trial", -1));
  const int shrink_budget =
      static_cast<int>(args.get_int("shrink-budget", 256));
  const std::string repro_out = args.get_string("repro-out", "");
  const bool with_faults = args.get_flag("faults");
  const std::string mutation_name =
      args.get_string("testonly-mutation", "none");
  const std::string fault_log_out = args.get_string("fault-log-out", "");
  const int jobs = args.get_jobs();
  args.finish();

  TestonlyFaultMutation mutation = TestonlyFaultMutation::None;
  bool resume_skew = false;
  if (mutation_name == "resume-skew") {
    // Harness-level mutation: the resume differential restores the
    // snapshot taken one slot early, so the digest compare must flag
    // every trial — the WILL_FAIL leg proving the resume oracle bites.
    resume_skew = true;
  } else if (!parse_mutation(mutation_name, &mutation)) {
    std::fprintf(stderr, "cograd check: unknown mutation '%s'\n",
                 mutation_name.c_str());
    return 2;
  }

  FaultInjectionCounts injections;
  CheckOptions options;
  options.mutation = mutation;
  options.injections = with_faults ? &injections : nullptr;
  options.resume_skew = resume_skew;
  const Property prop = [&options](const Scenario& scn) {
    return check_scenario(scn, options);
  };

  if (trial >= 0) {
    // Single-trial reproducer mode: rerun exactly what `cograd check
    // --seed S [--faults]` executed as trial T and report it.
    const Scenario scn = scenario_for(seed, trial, with_faults);
    std::printf("trial %d: %s\n", trial, describe(scn).c_str());
    if (!fault_log_out.empty()) {
      std::ofstream out(fault_log_out);
      out << "# " << reproducer_line(seed, trial, with_faults) << '\n'
          << fault_schedule_for(scn);
    }
    const std::string msg = prop(scn);
    if (msg.empty()) {
      std::printf("trial %d: ok\n", trial);
      return 0;
    }
    std::printf("trial %d: FAIL: %s\n", trial, msg.c_str());
    return 1;
  }

  const PropReport rep =
      run_property(prop, trials, seed, jobs, 8, shrink_budget, with_faults);
  for (const PropFailure& f : rep.failing) {
    std::printf("FAIL trial %d: %s\n", f.trial, f.message.c_str());
    std::printf("  original: %s\n", describe(f.original).c_str());
    std::printf("  shrunk (%d steps): %s\n", f.shrink_steps,
                describe(f.shrunk).c_str());
    std::printf("  repro: %s\n", f.repro.c_str());
  }
  if (!rep.ok() && !repro_out.empty()) {
    std::ofstream out(repro_out);
    for (const PropFailure& f : rep.failing)
      out << f.repro << "  # " << f.message << '\n';
  }
  if (!rep.ok() && !fault_log_out.empty()) {
    // Failure artifact: the exact fault schedule of every shrunk
    // counterexample, next to its reproducer command.
    std::ofstream out(fault_log_out);
    for (const PropFailure& f : rep.failing) {
      out << "# " << f.repro << '\n'
          << "# shrunk: " << describe(f.shrunk) << '\n'
          << fault_schedule_for(f.shrunk) << '\n';
    }
  }
  int exit = rep.ok() ? 0 : 1;
  if (with_faults) {
    std::printf("faults: deaf=%lld mute=%lld babble=%lld feedback-drop=%lld "
                "churn=%lld (node-slots injected)\n",
                static_cast<long long>(injections.total(FaultKind::Deaf)),
                static_cast<long long>(injections.total(FaultKind::Mute)),
                static_cast<long long>(injections.total(FaultKind::Babble)),
                static_cast<long long>(
                    injections.total(FaultKind::FeedbackDrop)),
                static_cast<long long>(injections.total(FaultKind::Churn)));
    if (!injections.all_kinds_exercised()) {
      std::printf("check: FAIL — a fault kind was never injected; raise "
                  "--trials\n");
      exit = 1;
    }
  }
  std::printf("check: %d/%d trials ok, %d failed (seed %llu)\n",
              rep.trials - rep.failures, rep.trials, rep.failures,
              static_cast<unsigned long long>(seed));
  return exit;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream in(csv);
  while (std::getline(in, part, ','))
    if (!part.empty()) parts.push_back(part);
  return parts;
}

// Smoke benchmark suite + regression gate. Runs the deterministic
// in-process experiments of analysis/bench_suite.h, merges their
// manifests (volatile sections stripped, so the output is bit-identical
// for any --jobs) into --out, and optionally compares against a committed
// baseline, exiting nonzero unless every pinned metric reproduces exactly.
int cmd_bench(CliArgs& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int trials = static_cast<int>(args.get_int("trials", 0));
  const int jobs = args.get_jobs();
  const std::string only = args.get_string("only", "");
  const std::string out_path = args.get_string("out", "BENCH_all.json");
  const std::string compare_path = args.get_string("compare", "");
  const std::string diff_out = args.get_string("diff-out", "");
  const bool list = args.get_flag("list");
  const std::string validate = args.get_string("validate", "");
  args.finish();

  if (list) {
    for (const std::string& name : smoke_experiment_names())
      std::puts(name.c_str());
    return 0;
  }

  if (!validate.empty()) {
    int bad = 0;
    for (const std::string& path : split_csv(validate)) {
      const auto text = read_file(path);
      if (!text) {
        std::printf("%s: cannot read\n", path.c_str());
        ++bad;
        continue;
      }
      std::string error;
      const auto doc = parse_json(*text, &error);
      if (!doc) {
        std::printf("%s: invalid JSON: %s\n", path.c_str(), error.c_str());
        ++bad;
        continue;
      }
      const std::string diagnostic = validate_manifest(*doc);
      if (!diagnostic.empty()) {
        std::printf("%s: %s\n", path.c_str(), diagnostic.c_str());
        ++bad;
        continue;
      }
      std::printf("%s: ok (%zu metrics)\n", path.c_str(),
                  flatten_metrics(*doc).size());
    }
    return bad == 0 ? 0 : 1;
  }

  SmokeOptions options;
  options.seed = seed;
  options.jobs = jobs;
  options.trials = trials;

  std::vector<std::string> selected = smoke_experiment_names();
  if (!only.empty()) {
    const std::vector<std::string> known = selected;
    selected.clear();
    for (const std::string& name : split_csv(only)) {
      if (std::find(known.begin(), known.end(), name) == known.end()) {
        std::fprintf(stderr, "cograd bench: unknown experiment '%s'\n",
                     name.c_str());
        return 2;
      }
      selected.push_back(name);
    }
  }

  std::vector<RunManifest> runs;
  for (const std::string& name : selected) {
    const double start = monotonic_seconds();
    RunManifest manifest = run_smoke_experiment(name, options);
    const double elapsed = monotonic_seconds() - start;
    manifest.set_volatile("wall_clock_seconds", elapsed);
    std::printf("bench: %-22s %6.2fs\n", name.c_str(), elapsed);
    runs.push_back(std::move(manifest));
  }
  const std::string merged = merge_manifests("smoke", runs);
  if (!write_file_atomic(out_path, merged)) {
    std::fprintf(stderr, "cograd bench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu experiments)\n", out_path.c_str(), runs.size());

  if (compare_path.empty()) return 0;

  std::string error;
  const auto current = parse_json(merged, &error);
  if (!current) {
    std::fprintf(stderr, "cograd bench: merged output invalid: %s\n",
                 error.c_str());
    return 1;
  }
  const auto baseline_text = read_file(compare_path);
  if (!baseline_text) {
    std::fprintf(stderr, "cograd bench: cannot read baseline %s\n",
                 compare_path.c_str());
    return 1;
  }
  const auto baseline = parse_json(*baseline_text, &error);
  if (!baseline) {
    std::fprintf(stderr, "cograd bench: baseline %s invalid: %s\n",
                 compare_path.c_str(), error.c_str());
    return 1;
  }
  const GateResult result = compare_bench_manifests(*current, *baseline);
  const std::string report = result.report();
  std::fputs(report.c_str(), stdout);
  if (!diff_out.empty() && !write_file_atomic(diff_out, report)) {
    std::fprintf(stderr, "cograd bench: cannot write %s\n", diff_out.c_str());
    return 1;
  }
  return result.ok() ? 0 : 1;
}

// Determinism & model-soundness linter (src/analysis/lint.h). Scans
// --tree's src/ bench/ tools/ tests/ against rules R1-R12 (docs/LINT.md),
// writes the deterministic schema-2 LINT.json manifest, and exits nonzero
// on any finding not suppressed in-source. --diff REF.json gates on
// regressions only: findings REF lists are carried over, new ones fail,
// and so does a stale REF, one that lists a finding at another line or
// with another status (apply_reference pairs the two). It writes a
// manifest only when --json names one, so it never overwrites the
// reference it reads. --jobs N scans files in parallel; output is
// byte-identical for any N.
int cmd_lint(CliArgs& args) {
  const std::string tree = args.get_string("tree", ".");
  const std::string diff_path = args.get_string("diff", "");
  const std::string json_path =
      args.get_string("json", diff_path.empty() ? "LINT.json" : "");
  const int jobs = static_cast<int>(args.get_int("jobs", 1));
  args.finish();

  LintStats stats;
  std::vector<LintFinding> findings = lint_tree(tree, &stats, jobs);
  if (stats.files_scanned == 0) {
    std::fprintf(stderr,
                 "cograd lint: no C++ sources under %s/{src,bench,tools,"
                 "tests}\n",
                 tree.c_str());
    return 2;
  }

  std::vector<StaleEntry> stale;
  if (!diff_path.empty()) {
    const auto text = read_file(diff_path);
    if (!text) {
      std::fprintf(stderr, "cograd lint: cannot read diff reference %s\n",
                   diff_path.c_str());
      return 2;
    }
    std::string error;
    std::vector<ReferenceEntry> reference;
    if (!parse_reference(*text, &reference, &error)) {
      std::fprintf(stderr, "cograd lint: diff reference %s invalid: %s\n",
                   diff_path.c_str(), error.c_str());
      return 2;
    }
    stale = apply_reference(findings, reference);
  }

  const std::string json = findings_to_json(findings);
  if (!json_path.empty() && !write_file_atomic(json_path, json)) {
    std::fprintf(stderr, "cograd lint: cannot write %s\n", json_path.c_str());
    return 2;
  }

  int active = 0, suppressed = 0, baselined = 0;
  for (const LintFinding& f : findings) {
    if (f.suppressed) {
      ++suppressed;
      continue;
    }
    if (f.baselined) {
      ++baselined;
      continue;
    }
    ++active;
    std::printf("%s:%d: [%s/%s] %s\n    %s\n", f.file.c_str(), f.line,
                f.rule.c_str(), rule_severity(f.rule).c_str(),
                f.message.c_str(), f.snippet.c_str());
    if (!f.fixit.empty()) std::printf("    fix: %s\n", f.fixit.c_str());
  }

  if (!diff_path.empty()) {
    for (const StaleEntry& e : stale)
      std::printf("%s:%d: [%s] %s finding listed in %s at line %d as %s\n"
                  "    %s\n",
                  e.finding.file.c_str(), e.finding.line,
                  e.finding.rule.c_str(), e.status.c_str(), diff_path.c_str(),
                  e.listed_line, e.listed_status.c_str(),
                  e.finding.snippet.c_str());
    std::printf("lint: %d files, %d findings, %d new vs %s "
                "(%d carried over, %d suppressed)\n",
                stats.files_scanned, stats.findings, active,
                diff_path.c_str(), baselined, suppressed);
    if (!stale.empty())
      std::printf("lint: %s is stale (%zu finding(s) moved or changed "
                  "status); regenerate it with `cograd lint --tree %s "
                  "--json %s`\n",
                  diff_path.c_str(), stale.size(), tree.c_str(),
                  diff_path.c_str());
    return active == 0 && stale.empty() ? 0 : 1;
  }
  std::printf("lint: %d files, %d findings (%d active, %d suppressed, "
              "%d baselined)\n",
              stats.files_scanned, stats.findings, active, suppressed,
              baselined);
  return active == 0 ? 0 : 1;
}

// Shared job-template flags for loadgen and the serve self-test.
JobSpec read_job_spec(CliArgs& args) {
  JobSpec job;
  const std::string kind = args.get_string("kind", "cogcast");
  if (kind == "cogcomp")
    job.kind = JobKind::CogComp;
  else if (kind != "cogcast")
    throw std::invalid_argument("--kind must be cogcast or cogcomp");
  job.n = static_cast<int>(args.get_int("n", 24));
  job.c = static_cast<int>(args.get_int("c", 6));
  job.k = static_cast<int>(args.get_int("k", 2));
  job.pattern = args.get_string("pattern", "shared-core");
  job.op = parse_agg_op(args.get_string("op", "sum"));
  job.mediated = !args.get_flag("unmediated");
  read_supervisor_flags(args, job);
  return job;
}

void print_loadgen_report(const char* label, const LoadgenReport& report) {
  std::printf(
      "%s: %d sessions -> %d done, %d shed, %d killed "
      "(%d verify fail, %d protocol err, %d transport err) in %.2fs\n",
      label, report.sessions, report.completed, report.shed, report.killed,
      report.verify_failures, report.protocol_errors,
      report.transport_errors, report.elapsed_seconds);
  if (report.latency.count > 0)
    std::printf("%s: latency median %.4fs p95 %.4fs max %.4fs\n", label,
                report.latency.median, report.latency.p95,
                report.latency.max);
}

// In-process self-test: daemon + loadgen in one command, so a single
// ctest/CI leg can exercise accept/submit/stream/kill/shutdown without
// orchestrating two processes. Exits nonzero on any failure.
int serve_smoke(const ServeOptions& options, const JobSpec& job,
                int sessions, std::uint64_t seed) {
  ServeServer server(options);
  // cograd-lint: allow(R8) serve foreground mode parks run() on a thread so main can wait for signals
  std::thread daemon([&server] { server.run(); });

  LoadgenOptions load;
  load.unix_path = options.unix_path;
  load.tcp_port = options.unix_path.empty() ? server.tcp_port() : -1;
  load.sessions = sessions;
  load.connections = 4;
  load.seed = seed;
  load.job = job;
  const LoadgenReport clean = run_loadgen(load);
  print_loadgen_report("smoke/clean", clean);

  load.kill_every = 3;
  load.seed = seed + 1;
  const LoadgenReport churn = run_loadgen(load);
  print_loadgen_report("smoke/churn", churn);

  std::string error;
  const bool said_bye =
      request_shutdown(options.unix_path,
                       options.unix_path.empty() ? server.tcp_port() : -1,
                       &error);
  daemon.join();
  const ServeStats stats = server.stats();
  std::printf(
      "smoke/daemon: %lld sessions, %lld accepted, %lld completed, "
      "%lld shed, %lld shed-on-disconnect, %lld aborted, %lld disconnects\n",
      static_cast<long long>(stats.sessions_opened),
      static_cast<long long>(stats.accepted),
      static_cast<long long>(stats.completed),
      static_cast<long long>(stats.shed),
      static_cast<long long>(stats.shed_disconnect),
      static_cast<long long>(stats.aborted),
      static_cast<long long>(stats.disconnects));

  // Every accepted job must be accounted for exactly once, no matter how
  // many clients vanished mid-stream. (disconnects can undercount kills:
  // a kill landing after the done frame flushed looks like a polite
  // close, which is fine — the job was already accounted.)
  const bool accounting_exact =
      stats.accepted == stats.completed + stats.shed_disconnect +
                            stats.aborted + stats.failed;
  const bool ok = clean.ok && churn.ok && said_bye && stats.failed == 0 &&
                  clean.killed == 0 && churn.killed > 0 && accounting_exact;
  std::printf("smoke: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

// Graceful-drain signal plumbing for foreground `cograd serve`: the
// handler only sets the flag; the daemon's IO loop polls it.
volatile std::sig_atomic_t g_serve_drain = 0;

void serve_drain_handler(int) { g_serve_drain = 1; }

int cmd_serve(CliArgs& args) {
  ServeOptions options;
  options.unix_path = args.get_string("socket", "");
  options.tcp_port = static_cast<int>(args.get_int("port", -1));
  options.workers = static_cast<int>(args.get_int("workers", 0));
  options.max_queue = static_cast<int>(args.get_int("max-queue", 1024));
  options.max_sessions =
      static_cast<int>(args.get_int("max-sessions", 4096));
  options.journal_path = args.get_string("journal", "");
  options.recover = args.get_flag("recover");
  options.checkpoint_every = args.get_int("checkpoint-every", 0);
  const int smoke = static_cast<int>(args.get_int("smoke", 0));
  JobSpec job;
  if (smoke > 0) job = read_job_spec(args);
  args.finish();

  if (smoke > 0) {
    if (options.unix_path.empty() && options.tcp_port < 0)
      options.unix_path =
          "cograd-smoke-" + std::to_string(::getpid()) + ".sock";
    try {
      return serve_smoke(options, job, smoke, 1);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cograd serve: %s\n", e.what());
      return 1;
    }
  }

  if (options.unix_path.empty() && options.tcp_port < 0) {
    std::fprintf(stderr, "cograd serve: need --socket PATH or --port P\n");
    return 2;
  }
  if (options.recover && options.journal_path.empty()) {
    std::fprintf(stderr, "cograd serve: --recover needs --journal PATH\n");
    return 2;
  }
  // SIGTERM/SIGINT ask for a graceful drain: finish queued and running
  // jobs, then exit — the IO loop polls this flag every poll round.
  options.drain_flag = &g_serve_drain;
  std::signal(SIGTERM, serve_drain_handler);
  std::signal(SIGINT, serve_drain_handler);
  try {
    ServeServer server(options);
    if (!options.unix_path.empty())
      std::printf("cograd serve: listening on %s (%d workers)\n",
                  options.unix_path.c_str(), server.workers());
    if (server.tcp_port() >= 0)
      std::printf("cograd serve: listening on 127.0.0.1:%d (%d workers)\n",
                  server.tcp_port(), server.workers());
    if (options.recover) {
      const ServeStats recovered = server.stats();
      std::printf(
          "cograd serve: recovered — %lld done, %lld resumed, %lld rerun\n",
          static_cast<long long>(recovered.recovered_done),
          static_cast<long long>(recovered.recovered_resumed),
          static_cast<long long>(recovered.recovered_rerun));
    }
    std::fflush(stdout);
    server.run();
    const ServeStats stats = server.stats();
    std::printf(
        "cograd serve: done — %lld sessions, %lld accepted, %lld "
        "completed, %lld shed, %lld disconnects, %lld protocol errors\n",
        static_cast<long long>(stats.sessions_opened),
        static_cast<long long>(stats.accepted),
        static_cast<long long>(stats.completed),
        static_cast<long long>(stats.shed),
        static_cast<long long>(stats.disconnects),
        static_cast<long long>(stats.protocol_errors));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cograd serve: %s\n", e.what());
    return 1;
  }
}

int cmd_crashtest(CliArgs& args) {
  CrashTestOptions options;
  options.mode = args.get_string("mode", "run");
  options.target = args.get_string("target", "ckpt-flip");
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  options.points = static_cast<int>(args.get_int("points", 2));
  args.finish();
  try {
    return run_crashtest(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cograd crashtest: %s\n", e.what());
    return 1;
  }
}

int cmd_loadgen(CliArgs& args) {
  LoadgenOptions load;
  load.unix_path = args.get_string("socket", "");
  load.tcp_port = static_cast<int>(args.get_int("port", -1));
  load.sessions = static_cast<int>(args.get_int("sessions", 64));
  load.connections = static_cast<int>(args.get_int("connections", 4));
  load.kill_every = static_cast<int>(args.get_int("kill-every", 0));
  load.verify = !args.get_flag("no-verify");
  load.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  load.job = read_job_spec(args);
  const bool shutdown_after = args.get_flag("shutdown");
  args.finish();

  if (load.unix_path.empty() && load.tcp_port < 0) {
    std::fprintf(stderr, "cograd loadgen: need --socket PATH or --port P\n");
    return 2;
  }
  const LoadgenReport report = run_loadgen(load);
  print_loadgen_report("loadgen", report);
  if (report.elapsed_seconds > 0)
    std::printf("loadgen: %.1f sessions/sec\n",
                static_cast<double>(report.completed + report.shed +
                                    report.killed) /
                    report.elapsed_seconds);
  bool shutdown_ok = true;
  if (shutdown_after) {
    std::string error;
    shutdown_ok = request_shutdown(load.unix_path, load.tcp_port, &error);
    if (!shutdown_ok)
      std::fprintf(stderr, "cograd loadgen: shutdown failed: %s\n",
                   error.c_str());
  }
  return report.ok && shutdown_ok ? 0 : 1;
}

}  // namespace

// A value no run can take (k outside [1, c], an unknown pattern, op or
// topology, a checkpoint flag without --supervise) exits 2 like a
// malformed flag; a rejected checkpoint file exits 1.
int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  CliArgs args(argc - 1, argv + 1);
  try {
    if (command == "broadcast") return cmd_broadcast(args);
    if (command == "aggregate") return cmd_aggregate(args);
    if (command == "consensus") return cmd_consensus(args);
    if (command == "gossip") return cmd_gossip(args);
    if (command == "multihop") return cmd_multihop(args);
    if (command == "game") return cmd_game(args);
    if (command == "record") return cmd_record(args);
    if (command == "check") return cmd_check(args);
    if (command == "bench") return cmd_bench(args);
    if (command == "lint") return cmd_lint(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "loadgen") return cmd_loadgen(args);
    if (command == "crashtest") return cmd_crashtest(args);
    return usage();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "cograd: %s\n", e.what());
    return 2;
  } catch (const CheckpointError& e) {
    std::fprintf(stderr, "cograd: %s\n", e.what());
    return 1;
  }
}
