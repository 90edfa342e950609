// paper_sweep — a seeded, fixed list of CogCast and mediated CogComp
// trials run through run_cogcast / run_cogcomp (the entry points of
// `cograd broadcast|aggregate` and E1–E34) and fanned over ParallelSweep.
//
// The list follows the regimes the paper's bounds separate, so a speed-up
// in one regime cannot hide a slowdown in another: c/k and lg n on a
// shared core (small channel space: dense bitmap grouping), partitioned
// channels including c >> n (huge channel space: counting-sort grouping,
// long runs, the max{1, c/n} term), a dynamic pattern (no label snapshot:
// one global_channel call per active node-slot), and CogCast under an
// n-uniform RandomJammer. Every node acts every slot through per-node
// Protocol callbacks, so the per-node engine path, the callbacks and the
// sweep pool do the work.
//
// The window runs the whole list in batches, back to back; each batch's
// outcomes are checked after its timing stops. The traced run alternates
// untraced batches with batches run by a runner rebuilt from the public
// CogCastNode/CogCompNode classes around forwarding probes (probes.h),
// and must reproduce the untraced digest trial for trial.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/cogcomp.h"
#include "core/runtime.h"
#include "probes.h"
#include "sim/jamming.h"
#include "util/sweep.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cogradio;

struct TrialSpec {
  bool aggregate = false;
  std::string pattern;
  int n = 0;
  int c = 0;
  int k = 0;  // the overlap the protocol is told (c - 2*budget when jammed)
  int jam_budget = 0;
  AggOp op = AggOp::Sum;
  std::uint64_t assign_seed = 0;
  std::uint64_t run_seed = 0;
  std::uint64_t jam_seed = 0;
  std::uint64_t values_seed = 0;
};

struct Shape {
  bool aggregate;
  const char* pattern;
  int n, c, k, jam_budget;
  AggOp op;
};

// Four seeded replicas of each shape form one batch, so a batch's work
// and its slowest trials vary little from seed to seed. The list runs in
// order, longest trials first, so the pool's tail stays short.
constexpr int kReplicas = 4;
constexpr int kSetups = 15;
const Shape kShapes[] = {
    // Partitioned, C = k + n(c-k): counting-sort grouping. c = 2n puts
    // the max{1, c/n} term to work and makes the longest runs.
    {false, "partitioned", 48, 96, 2, 0, AggOp::Sum},
    {false, "partitioned", 128, 32, 2, 0, AggOp::Sum},
    // Mediated CogComp.
    {true, "shared-core", 64, 8, 4, 0, AggOp::Max},
    {true, "partitioned", 32, 8, 2, 0, AggOp::Sum},
    {true, "shared-core", 32, 8, 2, 0, AggOp::Sum},
    // Shared core, C = 2c: dense bitmap grouping; c/k and lg n vary.
    {false, "shared-core", 512, 8, 4, 0, AggOp::Sum},
    {false, "shared-core", 256, 16, 2, 0, AggOp::Sum},
    {false, "shared-core", 128, 16, 4, 0, AggOp::Sum},
    {false, "shared-core", 64, 8, 2, 0, AggOp::Sum},
    // Dynamic channels: re-drawn every slot, no label snapshot.
    {false, "dynamic-shared-core", 128, 8, 4, 0, AggOp::Sum},
    {false, "dynamic-shared-core", 64, 8, 2, 0, AggOp::Sum},
    // n-uniform jamming over c shared channels, overlap c - 2*budget.
    {false, "identity", 128, 8, 4, 2, AggOp::Sum},
    {false, "identity", 64, 16, 8, 4, AggOp::Sum},
};

std::vector<TrialSpec> make_trials(std::uint64_t seed) {
  std::vector<TrialSpec> trials;
  std::uint64_t index = 0;
  for (const Shape& s : kShapes)
    for (int r = 0; r < kReplicas; ++r) {
      Rng rng = trial_rng(seed, index++);
      TrialSpec t;
      t.aggregate = s.aggregate;
      t.pattern = s.pattern;
      t.n = s.n;
      t.c = s.c;
      t.k = s.k;
      t.jam_budget = s.jam_budget;
      t.op = s.op;
      t.assign_seed = rng();
      t.run_seed = rng();
      t.jam_seed = rng();
      t.values_seed = rng();
      trials.push_back(t);
    }
  return trials;
}

// Set-up products of one trial: the assignment and (CogComp) its inputs.
// Static assignments are read-only during a run and a dynamic one
// re-derives every slot from (seed, slot), so each is reused by every
// batch.
struct Prepared {
  std::unique_ptr<ChannelAssignment> assignment;
  std::vector<Value> values;
  double build_s = 0;
};

struct Outcome {
  std::string error;
  std::int64_t active_node_slots = 0;
  std::uint64_t digest = 0;
  std::string check;  // empty = passed
};

Slot cast_cap(const TrialSpec& t) {
  // Jammed runs get E12's slack; the rest use run_cogcast's default.
  const CogCastParams p{t.n, t.c, t.k, 4.0};
  return t.jam_budget > 0 ? 64 * p.horizon() : 8 * p.horizon();
}

Outcome judge_cast(const TrialSpec& t, const BroadcastOutcome& out) {
  Outcome o;
  o.active_node_slots = static_cast<std::int64_t>(t.n) * out.slots -
                        out.stats.idle_node_slots;
  Digest d;
  d.i64(0);
  d.i64(out.completed);
  d.i64(out.slots);
  feed_stats(d, out.stats);
  for (const Slot s : out.informed_slot) d.i64(s);
  for (const NodeId p : out.parent) d.i64(p);
  o.digest = d.value();
  if (!out.completed)
    o.check = "CogCast left nodes uninformed";
  else if (!valid_distribution_tree(0, out.informed_slot, out.parent))
    o.check = "CogCast distribution tree invalid";
  return o;
}

Outcome judge_comp(const TrialSpec& t, const AggregationOutcome& out) {
  Outcome o;
  o.active_node_slots = static_cast<std::int64_t>(t.n) * out.slots -
                        out.stats.idle_node_slots;
  Digest d;
  d.i64(1);
  d.i64(out.completed);
  d.i64(out.slots);
  d.i64(out.phase1_end);
  d.i64(out.phase2_end);
  d.i64(out.phase3_end);
  d.i64(out.phase4_slots);
  feed_stats(d, out.stats);
  d.i64(out.result);
  d.i64(out.expected);
  d.i64(out.covered);
  o.digest = d.value();
  if (!out.completed || out.covered != t.n)
    o.check = "CogComp did not cover every node";
  else if (out.result != out.expected)
    o.check = "CogComp aggregate differs from the expected value";
  return o;
}

// The untraced trial: exactly what cograd and the E-benches call.
Outcome run_plain(const TrialSpec& t, Prepared& prep) {
  if (t.aggregate) {
    CogCompRunConfig config;
    config.params = {t.n, t.c, t.k, 4.0};
    config.seed = t.run_seed;
    config.op = t.op;
    return judge_comp(t, run_cogcomp(*prep.assignment, prep.values, config));
  }
  CogCastRunConfig config;
  config.params = {t.n, t.c, t.k, 4.0};
  config.seed = t.run_seed;
  config.max_slots = cast_cap(t);
  std::optional<RandomJammer> jammer;
  if (t.jam_budget > 0) {
    jammer.emplace(t.n, prep.assignment->total_channels(), t.jam_budget,
                   Rng(t.jam_seed));
    config.jammer = &*jammer;
  }
  return judge_cast(t, run_cogcast(*prep.assignment, config));
}

// Span names of the traced run.
const std::vector<std::string> kSpanNames = {
    "trial", "runtime.setup", "sim.network.construct", "sim.network.slot",
    "sim.assignment.begin_slot", "sim.jamming.begin_slot"};
enum SpanId { kTrial, kSetup, kConstruct, kSlot, kAssignBegin, kJamBegin };

struct TracedTotals {
  double trial_ns = 0;
  double slot_ns = 0;
  double construct_ns = 0;
  std::int64_t trials = 0;
  std::int64_t active = 0;
};

// The traced trial: run_cogcast / run_cogcomp rebuilt from the public
// node classes (same seeds, same draw order) with every node, the
// assignment and the jammer behind a forwarding probe.
Outcome run_traced(std::size_t index, const TrialSpec& t, Prepared& prep,
                   LayerProbe& probe, TracedTotals& totals) {
  Lane* lane = probe.lane;
  const std::int64_t trial_start = now_ns();
  lane->begin_at(kTrial, trial_start, static_cast<std::int64_t>(index));
  lane->begin_at(kSetup, now_ns());
  TracedAssignment assignment(*prep.assignment, probe);
  Rng seeder(t.run_seed);
  std::vector<std::unique_ptr<Protocol>> nodes;
  std::vector<std::unique_ptr<TracedNode>> wrapped;
  std::vector<Protocol*> protocols;
  const Aggregator aggregator(t.op);
  CogCompNode* source = nullptr;
  std::vector<CogCastNode*> cast_nodes;
  Message payload;
  payload.type = MessageType::Data;
  payload.a = 42;
  CogCompParams comp_params{t.n, t.c, t.k, 4.0};
  for (NodeId u = 0; u < t.n; ++u) {
    if (t.aggregate) {
      auto node = std::make_unique<CogCompNode>(
          u, comp_params, u == 0, prep.values[static_cast<std::size_t>(u)],
          aggregator, seeder.split(static_cast<std::uint64_t>(u)));
      if (u == 0) source = node.get();
      nodes.push_back(std::move(node));
    } else {
      auto node = std::make_unique<CogCastNode>(
          u, t.c, u == 0, payload, seeder.split(static_cast<std::uint64_t>(u)));
      cast_nodes.push_back(node.get());
      nodes.push_back(std::move(node));
    }
    wrapped.push_back(std::make_unique<TracedNode>(*nodes.back(), probe));
    protocols.push_back(wrapped.back().get());
  }
  NetworkOptions net;
  net.seed = seeder.split(0xFEEDu)();
  const std::int64_t c0 = now_ns();
  lane->begin_at(kConstruct, c0);
  Network network(assignment, std::move(protocols), net);
  const std::int64_t c1 = now_ns();
  lane->end_at(c1);
  totals.construct_ns += static_cast<double>(c1 - c0);
  std::optional<RandomJammer> jammer;
  std::optional<TracedJammer> traced_jammer;
  if (t.jam_budget > 0) {
    jammer.emplace(t.n, prep.assignment->total_channels(), t.jam_budget,
                   Rng(t.jam_seed));
    traced_jammer.emplace(*jammer, probe);
    network.set_jammer(&*traced_jammer);
  }
  lane->end_at(now_ns());  // setup

  const Slot cap = t.aggregate ? comp_params.max_slots() : cast_cap(t);
  probe.start_run();
  const std::int64_t run_start = now_ns();
  network.run(cap);
  const std::int64_t run_end = now_ns();
  probe.finish_run(run_end);
  totals.slot_ns += static_cast<double>(run_end - run_start);

  Outcome o;
  if (t.aggregate) {
    AggregationOutcome out;
    out.slots = network.now();
    out.phase1_end = comp_params.phase1_end();
    out.phase2_end = comp_params.phase2_end();
    out.phase3_end = comp_params.phase3_end();
    out.phase4_slots = std::max<Slot>(0, out.slots - comp_params.phase3_end());
    out.stats = network.stats();
    out.completed = source->complete() && network.all_done();
    out.result = aggregator.result(source->accumulated());
    out.covered = source->accumulated().count;
    out.expected = aggregator.expected(prep.values);
    o = judge_comp(t, out);
  } else {
    BroadcastOutcome out;
    out.slots = network.now();
    out.stats = network.stats();
    out.completed = true;
    for (const CogCastNode* node : cast_nodes) {
      out.completed = out.completed && node->informed();
      out.informed_slot.push_back(node->informed_slot());
      out.parent.push_back(node->parent());
    }
    o = judge_cast(t, out);
  }
  const std::int64_t trial_end = now_ns();
  lane->end_at(trial_end);
  totals.trial_ns += static_cast<double>(trial_end - trial_start);
  totals.active += o.active_node_slots;
  ++totals.trials;
  return o;
}

int worker_slot() {
  static std::atomic<int> next{0};
  thread_local const int mine = next.fetch_add(1);
  return mine;
}

struct BatchResult {
  double wall_s = 0;
  std::int64_t active = 0;
  double busy_s = 0;
  double tail_s = 0;
  std::vector<Outcome> outcomes;
};

// One batch: every trial once, fanned over the pool. `body` runs trial i
// and returns its outcome; timing stops before any check runs.
template <typename Body>
BatchResult run_batch(ParallelSweep& pool, std::size_t count, Body&& body) {
  BatchResult b;
  b.outcomes.resize(count);
  std::vector<std::int64_t> start(count), end(count);
  std::vector<int> worker(count);
  const std::int64_t t0 = now_ns();
  pool.run(static_cast<int>(count), [&](int i) {
    const auto u = static_cast<std::size_t>(i);
    start[u] = now_ns();
    try {
      b.outcomes[u] = body(u);
    } catch (const std::exception& e) {
      b.outcomes[u].error = e.what();
    }
    end[u] = now_ns();
    worker[u] = worker_slot();
  });
  const std::int64_t t1 = now_ns();
  b.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  std::map<int, std::int64_t> last_end;
  for (std::size_t i = 0; i < count; ++i) {
    b.active += b.outcomes[i].active_node_slots;
    b.busy_s += static_cast<double>(end[i] - start[i]) * 1e-9;
    auto& last = last_end[worker[i]];
    last = std::max(last, end[i]);
  }
  // The pool stops being fully busy when its first worker runs dry; a
  // worker that never got a trial was dry from the start.
  std::int64_t first_dry = t1;
  for (const auto& [w, e] : last_end) first_dry = std::min(first_dry, e);
  if (static_cast<int>(last_end.size()) < pool.jobs()) first_dry = t0;
  b.tail_s = static_cast<double>(t1 - first_dry) * 1e-9;
  return b;
}

}  // namespace

Report run_paper_sweep(const Options& options) {
  Report report;
  const int workers =
      options.jobs > 0 ? options.jobs : std::min(hardware_threads(), 4);

  // --- Set-up: trial list, assignments, inputs, worker pool and the
  // reference pass that fixes every trial's digest before the window
  // (median of several; the last one is kept). The pass makes up most of
  // it, so allocation and cache-placement luck in the builds, which
  // shifts from run to run, moves setup_s little.
  std::vector<TrialSpec> trials;
  std::vector<Prepared> prepared;
  std::unique_ptr<ParallelSweep> pool;
  auto plain = [&](std::size_t i) { return run_plain(trials[i], prepared[i]); };
  BatchResult ref;
  std::vector<double> setup_s;
  double build_s = 0;
  for (int rep = 0; rep < kSetups; ++rep) {
    pool.reset();
    prepared.clear();
    const std::int64_t t0 = now_ns();
    trials = make_trials(options.seed);
    prepared.resize(trials.size());
    for (std::size_t i = 0; i < trials.size(); ++i) {
      const TrialSpec& t = trials[i];
      const std::int64_t b0 = now_ns();
      prepared[i].assignment = make_assignment(
          t.pattern, t.n, t.c, t.k, LabelMode::LocalRandom, Rng(t.assign_seed));
      prepared[i].build_s = seconds_since(b0);
      if (t.aggregate) prepared[i].values = make_values(t.n, t.values_seed);
    }
    pool = std::make_unique<ParallelSweep>(workers);
    ref = run_batch(*pool, trials.size(), plain);
    setup_s.push_back(seconds_since(t0));
  }
  for (const Prepared& p : prepared) build_s += p.build_s;

  // The reference pass's checks and per-trial digests.
  const std::size_t count = trials.size();
  Digest digest;
  std::vector<std::uint64_t> reference(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Outcome& o = ref.outcomes[i];
    reference[i] = o.digest;
    digest.i64(static_cast<std::int64_t>(o.digest));
  }
  report.digest = digest.hex();

  // Checks one batch's outcomes against the reference and counts them.
  auto check = [&](const BatchResult& b, const char* what) {
    std::int64_t failed = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const Outcome& o = b.outcomes[i];
      std::string why = !o.error.empty() ? o.error : o.check;
      if (why.empty() && o.digest != reference[i])
        why = std::string(what) + " digest differs from the reference batch";
      if (why.empty()) continue;
      ++failed;
      if (report.problems.size() < 8)
        report.problems.push_back("trial " + std::to_string(i) + " (" +
                                  trials[i].pattern + " n=" +
                                  std::to_string(trials[i].n) + "): " + why);
    }
    report.attempted += static_cast<std::int64_t>(count);
    report.failed += failed;
  };
  check(ref, "reference");

  if (!options.trace) {
    // A job here is one sweep: the whole list, as an E-bench run waits
    // for it. (A single trial's time is mostly its seed's luck.)
    std::vector<double> node_rate, batch_ms;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
    while (node_rate.empty() || now_ns() < deadline) {
      const BatchResult b = run_batch(*pool, count, plain);
      check(b, "untraced");
      node_rate.push_back(static_cast<double>(b.active) / b.wall_s);
      batch_ms.push_back(b.wall_s * 1e3);
    }
    const auto batches = static_cast<std::int64_t>(node_rate.size());
    report.set("setup_s", median(setup_s), "s", kSetups);
    report.set("active_node_slots_per_s", median(node_rate), "1/s", batches);
    report.set_percentile("job_latency_p50_ms", chunked_percentile(batch_ms, 0.5),
                          "ms", true);
    report.set_percentile("job_latency_p99_ms", chunked_percentile(batch_ms, 0.99),
                          "ms", true);
    report.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report.set("ok_frac",
               static_cast<double>(report.attempted - report.failed) /
                   static_cast<double>(report.attempted),
               "ratio", report.attempted);
    return report;
  }

  // --- Traced run: untraced and traced batches alternate, so the
  // overhead compares like with like under the same machine load. The
  // last 40% of the time goes to the serve layers (serve.cpp).
  Tracer tracer(true, kSpanNames);
  std::vector<LayerProbe> probes(count);
  std::vector<TracedTotals> totals(count);
  std::vector<std::vector<double>> slot_us(count);
  std::vector<double> plain_wall, traced_wall, busy, tail;
  LayerProbe first_pass;  // exact counts: the first traced batch only
  std::uint64_t first_steady_allocs = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 0.6 * 1e9);
  for (int round = 0; round == 0 || now_ns() < deadline; ++round) {
    const BatchResult p = run_batch(*pool, count, plain);
    check(p, "untraced");
    plain_wall.push_back(p.wall_s);
    busy.push_back(p.busy_s / (workers * p.wall_s));
    tail.push_back(p.tail_s);

    const BatchResult t = run_batch(*pool, count, [&](std::size_t i) {
      LayerProbe& probe = probes[i];
      probe.lane = tracer.lane();
      probe.slot_name = kSlot;
      probe.assign_begin_name = kAssignBegin;
      probe.jam_begin_name = kJamBegin;
      // Slot durations from the first rounds suffice for the percentiles.
      probe.slot_us = round < 64 ? &slot_us[i] : nullptr;
      return run_traced(i, trials[i], prepared[i], probe, totals[i]);
    });
    check(t, "traced");
    traced_wall.push_back(t.wall_s);
    if (round == 0)
      for (const LayerProbe& probe : probes) {
        first_pass.callbacks += probe.callbacks;
        first_pass.gc_calls += probe.gc_calls;
        first_pass.jam_calls += probe.jam_calls;
        first_steady_allocs += probe.steady_total;
      }
  }

  LayerProbe sum;
  TracedTotals all;
  std::vector<double> slots;
  for (std::size_t i = 0; i < count; ++i) {
    const LayerProbe& p = probes[i];
    sum.callbacks += p.callbacks;
    sum.callback_samples += p.callback_samples;
    sum.callback_sampled_ns += p.callback_sampled_ns;
    sum.gc_calls += p.gc_calls;
    sum.gc_samples += p.gc_samples;
    sum.gc_sampled_ns += p.gc_sampled_ns;
    sum.jam_calls += p.jam_calls;
    sum.jam_samples += p.jam_samples;
    sum.jam_sampled_ns += p.jam_sampled_ns;
    sum.assign_begin_ns += p.assign_begin_ns;
    sum.jam_begin_ns += p.jam_begin_ns;
    all.trial_ns += totals[i].trial_ns;
    all.slot_ns += totals[i].slot_ns;
    all.construct_ns += totals[i].construct_ns;
    all.trials += totals[i].trials;
    all.active += totals[i].active;
    slots.insert(slots.end(), slot_us[i].begin(), slot_us[i].end());
  }
  const double callback_ns = sum.callback_ns();
  const double assign_ns = sum.assign_begin_ns + sum.gc_ns();
  const double jam_ns = sum.jam_begin_ns + sum.jam_ns();
  const double self_ns = all.slot_ns - callback_ns - assign_ns - jam_ns;
  if (self_ns < -0.05 * all.slot_ns)
    report.problem("layer estimates exceed the measured step time by " +
                   std::to_string(-self_ns / all.slot_ns));
  const auto rounds = static_cast<std::int64_t>(plain_wall.size());
  report.set("sim.network.self_ns_per_active_node_slot",
             self_ns / static_cast<double>(all.active), "ns", all.active);
  report.set("sim.network.step_share", self_ns / all.slot_ns, "ratio", all.trials);
  report.set_percentile("sim.network.slot_us_p50", percentile(slots, 0.5), "us",
                        false);
  report.set_percentile("sim.network.slot_us_p99", percentile(slots, 0.99), "us",
                        false);
  report.set("sim.network.construct_s",
             all.construct_ns * 1e-9 / static_cast<double>(all.trials), "s",
             all.trials);
  report.set("sim.network.steady_allocs", static_cast<double>(first_steady_allocs),
             "count", static_cast<std::int64_t>(count));
  report.set("sim.assignment.build_s", build_s / static_cast<double>(count), "s",
             static_cast<std::int64_t>(count));
  report.set("sim.assignment.global_channel_calls",
             static_cast<double>(first_pass.gc_calls), "count",
             static_cast<std::int64_t>(count));
  report.set("sim.assignment.step_share", assign_ns / all.slot_ns, "ratio",
             sum.gc_samples);
  report.set("sim.jamming.is_jammed_calls", static_cast<double>(first_pass.jam_calls),
             "count", static_cast<std::int64_t>(count));
  report.set("sim.jamming.step_share", jam_ns / all.slot_ns, "ratio",
             sum.jam_samples);
  report.set("core.protocol.callbacks", static_cast<double>(first_pass.callbacks),
             "count", static_cast<std::int64_t>(count));
  report.set("core.protocol.ns_per_callback",
             sum.callback_samples > 0
                 ? sum.callback_sampled_ns / static_cast<double>(sum.callback_samples)
                 : 0.0,
             "ns", sum.callback_samples);
  report.set("core.protocol.step_share", callback_ns / all.slot_ns, "ratio",
             sum.callback_samples);
  report.set("core.runtime.trial_setup_share",
             (all.trial_ns - all.slot_ns) / all.trial_ns, "ratio", all.trials);
  report.set("util.sweep.busy_frac", median(busy), "ratio", rounds);
  report.set("util.sweep.tail_s", median(tail), "s", rounds);
  report.set("bench.trace_overhead_frac",
             median(traced_wall) / median(plain_wall) - 1.0, "ratio", rounds);
  const std::string path = options.out_dir + "/spans-paper_sweep-" +
                           std::to_string(options.seed) + ".tsv";
  if (!tracer.write(path)) report.problem("could not write " + path);
  measure_serve_layers(options, options.seconds * 0.4, report);
  return report;
}

int hardware_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

}  // namespace perfbench
