#include "core/supervisor.h"

#include <algorithm>
#include <stdexcept>

#include "sim/checkpoint.h"

namespace cogradio {

Slot next_backoff_deadline(Slot deadline, double backoff, Slot max_deadline) {
  const Slot cap = max_deadline > 0
                       ? std::min(max_deadline, kMaxSupervisorDeadline)
                       : kMaxSupervisorDeadline;
  if (deadline >= cap) return cap;
  // Grow in double and compare against the cap *before* converting back:
  // for large deadlines the raw double -> Slot cast is the overflow that
  // used to wrap the deadline tiny or negative.
  const double grown = static_cast<double>(deadline) * backoff;
  if (!(grown < static_cast<double>(cap))) return cap;
  return std::min(cap, std::max<Slot>(deadline + 1, static_cast<Slot>(grown)));
}

SupervisedOutcome run_supervised(const AttemptFactory& factory,
                                 const SupervisorOptions& options,
                                 std::uint64_t seed,
                                 const EpochObserver& observer) {
  return run_supervised(factory, options, seed, CheckpointPolicy{}, observer);
}

SupervisedOutcome run_supervised(const AttemptFactory& factory,
                                 const SupervisorOptions& options,
                                 std::uint64_t seed,
                                 const CheckpointPolicy& policy,
                                 const EpochObserver& observer) {
  if (!factory) throw std::invalid_argument("supervisor: need a factory");
  if (options.deadline <= 0 && options.stall_window <= 0)
    throw std::invalid_argument(
        "supervisor: need a deadline or a stall window to bound epochs");
  if (options.backoff < 1.0)
    throw std::invalid_argument("supervisor: backoff must be >= 1");
  if (options.max_restarts < 0)
    throw std::invalid_argument("supervisor: max_restarts must be >= 0");
  if (options.max_deadline < 0)
    throw std::invalid_argument("supervisor: max_deadline must be >= 0");

  Rng seeder(seed);
  SupervisedOutcome out;
  Slot deadline = options.deadline;

  // A resume payload re-seats the whole supervisor cursor: which attempt
  // was in flight (and the seed it was built from), the backed-off
  // deadline, the finished-epoch history, and the stall detector. The
  // component state that follows it in the payload is restored only after
  // the factory has rebuilt the attempt.
  int start_attempt = 0;
  std::uint64_t resume_attempt_seed = 0;
  Slot resume_steps = 0;
  std::int64_t resume_last_progress = 0;
  Slot resume_flat = 0;
  const bool resuming = !policy.resume.empty();
  std::unique_ptr<CheckpointReader> resume_reader;
  if (resuming) {
    resume_reader = std::make_unique<CheckpointReader>(policy.resume);
    CheckpointReader& r = *resume_reader;
    r.section("supv");
    start_attempt = static_cast<int>(r.u32());
    if (start_attempt > options.max_restarts)
      throw CheckpointError(
          "checkpoint rejected: snapshot is mid-attempt " +
          std::to_string(start_attempt) + " but max_restarts is " +
          std::to_string(options.max_restarts));
    resume_attempt_seed = r.u64();
    r.rng(seeder);
    deadline = r.i64();
    out.restarts = static_cast<int>(r.u32());
    out.total_slots = r.i64();
    const std::size_t num_epochs = r.length(11);
    for (std::size_t i = 0; i < num_epochs; ++i) {
      EpochStats e;
      e.slots = r.i64();
      e.completed = r.boolean();
      e.stalled = r.boolean();
      e.deadline_hit = r.boolean();
      out.epochs.push_back(e);
    }
    resume_steps = r.i64();
    resume_last_progress = r.i64();
    resume_flat = r.i64();
  }

  for (int attempt = start_attempt; attempt <= options.max_restarts;
       ++attempt) {
    const bool restored_attempt = resuming && attempt == start_attempt;
    // Attempt k's seed is Rng(seed).split(k) drawn in order, so the seeder
    // state advances identically in interrupted and uninterrupted runs; a
    // resumed attempt reuses its recorded seed and the restored seeder.
    const std::uint64_t attempt_seed =
        restored_attempt
            ? resume_attempt_seed
            : seeder.split(static_cast<std::uint64_t>(attempt))();
    SupervisedRun run = factory(attempt, attempt_seed);
    if (run.network == nullptr)
      throw std::invalid_argument("supervisor: factory returned no network");
    if (policy.active() && (!run.save_state || !run.restore_state))
      throw std::invalid_argument(
          "supervisor: checkpoint policy needs save_state/restore_state "
          "hooks on the supervised run");

    EpochStats epoch;
    std::int64_t last_progress = run.progress ? run.progress() : 0;
    Slot flat = 0;
    Slot steps = 0;
    if (restored_attempt) {
      run.restore_state(*resume_reader);
      resume_reader->expect_end();
      steps = resume_steps;
      last_progress = resume_last_progress;
      flat = resume_flat;
    }
    while (true) {
      if (run.success && run.success()) {
        epoch.completed = true;
        break;
      }
      if (run.network->all_done()) {
        // Every protocol terminated; without a success predicate that IS
        // success, with one it means the run ended incomplete.
        epoch.completed = !run.success;
        break;
      }
      if (deadline > 0 && steps >= deadline) {
        epoch.deadline_hit = true;
        break;
      }
      run.network->step();
      ++steps;
      if (options.stall_window > 0 && run.progress) {
        const std::int64_t p = run.progress();
        if (p > last_progress) {
          last_progress = p;
          flat = 0;
        } else if (++flat >= options.stall_window) {
          epoch.stalled = true;
          break;
        }
      }
      if (policy.wants_snapshots() && steps % policy.every_slots == 0) {
        CheckpointWriter w;
        w.section("supv");
        w.u32(static_cast<std::uint32_t>(attempt));
        w.u64(attempt_seed);
        w.rng(seeder);
        w.i64(deadline);
        w.u32(static_cast<std::uint32_t>(out.restarts));
        w.i64(out.total_slots);
        w.u64(out.epochs.size());
        for (const EpochStats& e : out.epochs) {
          w.i64(e.slots);
          w.boolean(e.completed);
          w.boolean(e.stalled);
          w.boolean(e.deadline_hit);
        }
        w.i64(steps);
        w.i64(last_progress);
        w.i64(flat);
        run.save_state(w);
        policy.sink(w.bytes());
      }
    }
    epoch.slots = steps;
    out.total_slots += steps;
    out.epochs.push_back(epoch);
    const bool keep_going = !observer || observer(attempt, epoch);
    if (epoch.completed) {
      out.completed = true;
      break;
    }
    if (!keep_going) {
      out.aborted = true;
      break;
    }
    if (attempt < options.max_restarts) {
      ++out.restarts;
      if (deadline > 0)
        deadline = next_backoff_deadline(deadline, options.backoff,
                                         options.max_deadline);
    }
  }
  return out;
}

namespace {

// The checkpoint hooks of an assembled run: the engine, the attached
// jammer and fault engine, then every node in ascending order.
template <typename Node>
void add_checkpoint_hooks(SupervisedRun& run, Assembly<Node>* s,
                          Jammer* jammer, FaultEngine* faults) {
  run.save_state = [=](CheckpointWriter& w) {
    s->network->save_state(w);
    if (jammer != nullptr) jammer->save_state(w);
    if (faults != nullptr) faults->save_state(w);
    for (const auto& node : s->nodes) node->save_state(w);
  };
  run.restore_state = [=](CheckpointReader& r) {
    s->network->restore_state(r);
    if (jammer != nullptr) jammer->restore_state(r);
    if (faults != nullptr) faults->restore_state(r);
    for (auto& node : s->nodes) node->restore_state(r);
  };
}

}  // namespace

SupervisedRun build_cogcast_run(ChannelAssignment& assignment,
                                const CogCastRunConfig& config,
                                std::uint64_t seed) {
  CogCastRunConfig attempt = config;
  attempt.seed = seed;
  auto state = std::make_shared<Assembly<CogCastNode>>(
      assemble_cogcast(assignment, attempt));

  SupervisedRun run;
  run.network = state->network.get();
  run.progress = [s = state.get()] {
    std::int64_t informed = 0;
    for (const auto& node : s->nodes) informed += node->informed() ? 1 : 0;
    return informed;
  };
  run.success = [s = state.get()] {
    return std::all_of(s->nodes.begin(), s->nodes.end(),
                       [](const auto& node) { return node->informed(); });
  };
  add_checkpoint_hooks(run, state.get(), config.jammer, config.fault_engine);
  run.state = state;
  return run;
}

SupervisedRun build_cogcomp_run(ChannelAssignment& assignment,
                                std::span<const Value> values,
                                const CogCompRunConfig& config,
                                std::uint64_t seed) {
  CogCompRunConfig attempt = config;
  attempt.seed = seed;
  auto state = std::make_shared<Assembly<CogCompNode>>(
      assemble_cogcomp(assignment, values, attempt));

  SupervisedRun run;
  run.network = state->network.get();
  run.progress = [s = state.get()] { return s->network->stats().successes; };
  run.success = [s = state.get(), source = config.source] {
    return s->nodes[static_cast<std::size_t>(source)]->complete() &&
           s->network->all_done();
  };
  run.aggregate = [s = state.get(), source = config.source,
                   aggregator = Aggregator(config.op)] {
    return aggregator.result(
        s->nodes[static_cast<std::size_t>(source)]->accumulated());
  };
  add_checkpoint_hooks(run, state.get(), nullptr, config.fault_engine);
  run.state = state;
  return run;
}

}  // namespace cogradio
