// Tests for the self-healing run supervisor (core/supervisor.h): epoch
// bounding (deadline, stall window, exponential backoff), restart
// semantics, determinism, and the paper's robustness asymmetry — a churn
// burst leaves CogCast completing in epoch 0 while CogComp needs the
// supervisor's restart.
#include "core/supervisor.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/assignment.h"
#include "sim/fault_engine.h"

namespace cogradio {
namespace {

// Never-terminating idle protocol; progress is whatever the test wires up.
class Inert : public Protocol {
 public:
  Action on_slot(Slot) override { return Action::idle(); }
  void on_feedback(Slot, const SlotResult&) override {}
  bool done() const override { return false; }
};

// A run over `network` whose success is an external flag; progress flat.
struct InertRig {
  InertRig() : assignment(2, 1, LabelMode::Global, Rng(1)) {
    protocols = {&a, &b};
    network = std::make_unique<Network>(assignment, protocols);
  }
  SupervisedRun run(bool* succeed) {
    SupervisedRun r;
    r.network = network.get();
    r.progress = [] { return std::int64_t{0}; };
    r.success = [succeed] { return *succeed; };
    return r;
  }
  IdentityAssignment assignment;
  Inert a, b;
  std::vector<Protocol*> protocols;
  std::unique_ptr<Network> network;
};

TEST(Supervisor, ValidatesItsOptions) {
  InertRig rig;
  bool succeed = false;
  const AttemptFactory factory = [&](int, std::uint64_t) {
    return rig.run(&succeed);
  };
  SupervisorOptions options;  // no deadline, no stall window
  EXPECT_THROW(run_supervised(factory, options, 1), std::invalid_argument);
  options.deadline = 10;
  options.backoff = 0.5;
  EXPECT_THROW(run_supervised(factory, options, 1), std::invalid_argument);
  options.backoff = 2.0;
  options.max_restarts = -1;
  EXPECT_THROW(run_supervised(factory, options, 1), std::invalid_argument);
  options.max_restarts = 0;
  EXPECT_THROW(run_supervised(nullptr, options, 1), std::invalid_argument);
}

TEST(Supervisor, DeadlineBacksOffExponentially) {
  std::vector<std::uint64_t> attempt_seeds;
  SupervisorOptions options;
  options.deadline = 10;
  options.backoff = 2.0;
  options.max_restarts = 2;
  InertRig rig;
  bool succeed = false;
  const SupervisedOutcome out = run_supervised(
      [&](int, std::uint64_t aseed) {
        attempt_seeds.push_back(aseed);
        return rig.run(&succeed);
      },
      options, 5);
  EXPECT_FALSE(out.completed);
  EXPECT_EQ(out.restarts, 2);
  ASSERT_EQ(out.epochs.size(), 3u);
  EXPECT_EQ(out.epochs[0].slots, 10);
  EXPECT_EQ(out.epochs[1].slots, 20);
  EXPECT_EQ(out.epochs[2].slots, 40);
  for (const EpochStats& epoch : out.epochs) {
    EXPECT_TRUE(epoch.deadline_hit);
    EXPECT_FALSE(epoch.completed);
  }
  EXPECT_EQ(out.total_slots, 70);
  // Every attempt reseeds differently (split streams of the run seed).
  ASSERT_EQ(attempt_seeds.size(), 3u);
  EXPECT_NE(attempt_seeds[0], attempt_seeds[1]);
  EXPECT_NE(attempt_seeds[1], attempt_seeds[2]);
}

// --- Backoff overflow clamp (next_backoff_deadline) -------------------------

TEST(Supervisor, BackoffClampNeverOverflowsOrWraps) {
  // The old code multiplied in double and cast straight back to Slot; near
  // the top of the Slot range the cast wrapped tiny or negative. The clamp
  // must keep every grown deadline in (previous, kMaxSupervisorDeadline].
  Slot deadline = 3;
  for (int i = 0; i < 200; ++i) {
    const Slot next = next_backoff_deadline(deadline, 2.0, 0);
    ASSERT_GT(next, 0);
    ASSERT_GE(next, deadline);
    ASSERT_LE(next, kMaxSupervisorDeadline);
    deadline = next;
  }
  EXPECT_EQ(deadline, kMaxSupervisorDeadline);  // converged to the ceiling
  // Boundary cases around the ceiling itself.
  EXPECT_EQ(next_backoff_deadline(kMaxSupervisorDeadline, 2.0, 0),
            kMaxSupervisorDeadline);
  EXPECT_EQ(next_backoff_deadline(kMaxSupervisorDeadline - 1, 2.0, 0),
            kMaxSupervisorDeadline);
  // A pathological budget that would overflow even one multiplication.
  EXPECT_EQ(next_backoff_deadline(std::numeric_limits<Slot>::max() / 2, 1e6,
                                  0),
            kMaxSupervisorDeadline);
  // backoff == 1.0 still makes progress (at least one slot) up to the cap.
  EXPECT_EQ(next_backoff_deadline(10, 1.0, 0), 11);
}

TEST(Supervisor, BackoffClampHonorsACustomCeiling) {
  EXPECT_EQ(next_backoff_deadline(3, 100.0, 10), 10);
  EXPECT_EQ(next_backoff_deadline(10, 100.0, 10), 10);  // pinned at the cap
  EXPECT_EQ(next_backoff_deadline(3, 2.0, 10), 6);      // under the cap
  // A custom ceiling above the global one is itself clamped.
  EXPECT_EQ(
      next_backoff_deadline(kMaxSupervisorDeadline, 2.0,
                            std::numeric_limits<Slot>::max()),
      kMaxSupervisorDeadline);
}

TEST(Supervisor, MaxDeadlineBoundsTheEpochsEndToEnd) {
  SupervisorOptions options;
  options.deadline = 3;
  options.backoff = 100.0;
  options.max_restarts = 3;
  options.max_deadline = 10;
  InertRig rig;
  bool succeed = false;
  const SupervisedOutcome out = run_supervised(
      [&](int, std::uint64_t) { return rig.run(&succeed); }, options, 5);
  EXPECT_FALSE(out.completed);
  ASSERT_EQ(out.epochs.size(), 4u);
  EXPECT_EQ(out.epochs[0].slots, 3);
  EXPECT_EQ(out.epochs[1].slots, 10);  // 300 clamped to max_deadline
  EXPECT_EQ(out.epochs[2].slots, 10);
  EXPECT_EQ(out.epochs[3].slots, 10);
  SupervisorOptions bad = options;
  bad.max_deadline = -1;
  EXPECT_THROW(
      run_supervised([&](int, std::uint64_t) { return rig.run(&succeed); },
                     bad, 5),
      std::invalid_argument);
}

// --- Epoch observer ----------------------------------------------------------

TEST(Supervisor, ObserverSeesEveryEpochAndCanAbort) {
  SupervisorOptions options;
  options.deadline = 5;
  options.max_restarts = 10;
  InertRig rig;
  bool succeed = false;
  std::vector<std::pair<int, Slot>> seen;
  const SupervisedOutcome out = run_supervised(
      [&](int, std::uint64_t) { return rig.run(&succeed); }, options, 5,
      [&](int attempt, const EpochStats& epoch) {
        seen.emplace_back(attempt, epoch.slots);
        return attempt < 2;  // cancel after the third epoch
      });
  EXPECT_FALSE(out.completed);
  EXPECT_TRUE(out.aborted);
  EXPECT_EQ(out.epochs.size(), 3u);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].first, 0);
  EXPECT_EQ(seen[2].first, 2);
  for (const auto& [attempt, slots] : seen) EXPECT_GT(slots, 0);
}

TEST(Supervisor, AlwaysTrueObserverLeavesTheOutcomeIdentical) {
  const int n = 16, c = 4, k = 2;
  const CogCastParams params{n, c, k};
  CogCastRunConfig config;
  config.params = params;
  SupervisorOptions options;
  options.deadline = 8 * params.horizon();
  auto run_it = [&](const EpochObserver& observer) {
    SharedCoreAssignment assignment(n, c, k, LabelMode::LocalRandom, Rng(9));
    return run_supervised(
        [&](int, std::uint64_t aseed) {
          return build_cogcast_run(assignment, config, aseed);
        },
        options, 13, observer);
  };
  const SupervisedOutcome plain = run_it({});
  int observed = 0;
  const SupervisedOutcome watched =
      run_it([&](int, const EpochStats&) { ++observed; return true; });
  EXPECT_FALSE(watched.aborted);
  EXPECT_EQ(observed, static_cast<int>(watched.epochs.size()));
  EXPECT_EQ(plain.completed, watched.completed);
  EXPECT_EQ(plain.restarts, watched.restarts);
  EXPECT_EQ(plain.total_slots, watched.total_slots);
}

TEST(Supervisor, StallWindowFiresBeforeTheDeadline) {
  SupervisorOptions options;
  options.deadline = 1000;
  options.stall_window = 7;
  options.max_restarts = 1;
  InertRig rig;
  bool succeed = false;
  int attempts = 0;
  const SupervisedOutcome out = run_supervised(
      [&](int attempt, std::uint64_t) {
        ++attempts;
        // The restart "fixes" the environment: attempt 1 succeeds at once.
        if (attempt == 1) succeed = true;
        return rig.run(&succeed);
      },
      options, 5);
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.restarts, 1);
  EXPECT_EQ(attempts, 2);
  ASSERT_EQ(out.epochs.size(), 2u);
  EXPECT_TRUE(out.epochs[0].stalled);
  EXPECT_EQ(out.epochs[0].slots, 7);  // flat progress for the whole window
  EXPECT_TRUE(out.epochs[1].completed);
  EXPECT_EQ(out.epochs[1].slots, 0);  // success checked before stepping
}

TEST(Supervisor, SuccessPredicateShortCircuitsFurtherEpochs) {
  SupervisorOptions options;
  options.deadline = 50;
  options.max_restarts = 3;
  InertRig rig;
  bool succeed = true;
  const SupervisedOutcome out = run_supervised(
      [&](int, std::uint64_t) { return rig.run(&succeed); }, options, 5);
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.restarts, 0);
  EXPECT_EQ(out.total_slots, 0);
  EXPECT_EQ(out.epochs.size(), 1u);
}

// Terminates after `until` local slots; used for the all-done semantics.
class Terminating : public Protocol {
 public:
  explicit Terminating(Slot until) : until_(until) {}
  Action on_slot(Slot slot) override {
    seen_ = slot;
    return Action::idle();
  }
  void on_feedback(Slot, const SlotResult&) override {}
  bool done() const override { return seen_ >= until_; }

 private:
  Slot until_;
  Slot seen_ = 0;
};

TEST(Supervisor, AllDoneWithoutPredicateCountsAsCompletion) {
  IdentityAssignment assignment(2, 1, LabelMode::Global, Rng(1));
  Terminating a(3), b(3);
  std::vector<Protocol*> protocols{&a, &b};
  Network network(assignment, protocols);
  SupervisorOptions options;
  options.deadline = 100;
  const SupervisedOutcome out = run_supervised(
      [&](int, std::uint64_t) {
        SupervisedRun run;
        run.network = &network;  // no success predicate
        return run;
      },
      options, 1);
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.restarts, 0);
}

TEST(Supervisor, AllDoneWithFailedPredicateEndsTheEpochIncomplete) {
  // Protocols that terminate on their own schedule while the success
  // predicate still says no — the CogComp shape. The epoch must end (not
  // burn slots to the deadline) and count as incomplete.
  IdentityAssignment assignment(2, 1, LabelMode::Global, Rng(1));
  SupervisorOptions options;
  options.deadline = 1000;
  options.max_restarts = 1;
  std::vector<std::unique_ptr<Terminating>> nodes;
  std::vector<std::unique_ptr<Network>> networks;
  const SupervisedOutcome out = run_supervised(
      [&](int, std::uint64_t) {
        nodes.push_back(std::make_unique<Terminating>(3));
        nodes.push_back(std::make_unique<Terminating>(3));
        std::vector<Protocol*> protocols{nodes[nodes.size() - 2].get(),
                                         nodes.back().get()};
        networks.push_back(
            std::make_unique<Network>(assignment, protocols));
        SupervisedRun run;
        run.network = networks.back().get();
        run.success = [] { return false; };
        return run;
      },
      options, 1);
  EXPECT_FALSE(out.completed);
  EXPECT_EQ(out.restarts, 1);
  ASSERT_EQ(out.epochs.size(), 2u);
  EXPECT_LT(out.epochs[0].slots, 10);  // ended at all-done, not deadline
  EXPECT_FALSE(out.epochs[0].deadline_hit);
}

// --- The paper's asymmetry under a churn burst -------------------------------

// A churn burst over the first third of the nodes, never the source;
// attached through the run config on attempt 0 only, so a restart
// escapes it.
FaultEngine make_burst(int n, int c, Slot from, Slot len) {
  FaultEngine engine(n, c, Rng(42));
  std::vector<NodeId> hit;
  for (NodeId u = 1; u <= n / 3; ++u) hit.push_back(u);
  engine.add_burst(hit, from, len);
  return engine;
}

TEST(Supervisor, CogCastRidesOutAFirstEpochBurst) {
  const int n = 24, c = 6, k = 2;
  const CogCastParams params{n, c, k};
  const Slot burst_len = 4 * params.horizon();
  SharedCoreAssignment assignment(n, c, k, LabelMode::LocalRandom, Rng(3));
  FaultEngine burst = make_burst(n, c, /*from=*/3, burst_len);
  CogCastRunConfig config;
  config.params = params;
  CogCastRunConfig first = config;
  first.fault_engine = &burst;
  SupervisorOptions options;
  options.deadline = 8 * params.horizon() + burst_len;
  options.max_restarts = 3;
  const SupervisedOutcome out = run_supervised(
      [&](int attempt, std::uint64_t aseed) {
        return build_cogcast_run(assignment, attempt == 0 ? first : config,
                                 aseed);
      },
      options, 7);
  // The oblivious epidemic needs no restart: epoch 0 completes even
  // though a third of the nodes were off for most of the run.
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.restarts, 0);
  ASSERT_EQ(out.epochs.size(), 1u);
  EXPECT_TRUE(out.epochs[0].completed);
}

TEST(Supervisor, CogCompNeedsTheRestartToRecover) {
  const int n = 18, c = 6, k = 2;
  const CogCompParams params{n, c, k};
  SharedCoreAssignment assignment(n, c, k, LabelMode::LocalRandom, Rng(3));
  const std::vector<Value> values = make_values(n, 11);
  // Burst across phases 1-2 wrecks clustering beyond repair.
  FaultEngine burst = make_burst(n, c, /*from=*/3, params.phase2_end());
  CogCompRunConfig config;
  config.params = params;
  CogCompRunConfig first = config;
  first.fault_engine = &burst;
  SupervisorOptions options;
  options.deadline = params.max_slots() + 16;
  options.max_restarts = 3;
  const SupervisedOutcome out = run_supervised(
      [&](int attempt, std::uint64_t aseed) {
        return build_cogcomp_run(assignment, values,
                                 attempt == 0 ? first : config, aseed);
      },
      options, 7);
  EXPECT_TRUE(out.completed);
  EXPECT_GE(out.restarts, 1);
  EXPECT_FALSE(out.epochs.front().completed);
  EXPECT_TRUE(out.epochs.back().completed);
}

// A supervised run's checkpoint carries its attached fault engine: a run
// resumed into a fresh engine with the same schedule ends with the
// uninterrupted engine's injection totals and audit log, both of which
// count slots from before the snapshot.
TEST(Supervisor, CheckpointCarriesTheAttachedFaultEngine) {
  const int n = 24, c = 6, k = 2;
  const CogCastParams params{n, c, k};
  const Slot burst_len = 40;
  SharedCoreAssignment assignment(n, c, k, LabelMode::LocalRandom, Rng(3));
  SupervisorOptions options;
  options.deadline = 8 * params.horizon() + burst_len;
  auto run_it = [&](FaultEngine& faults, const CheckpointPolicy& policy) {
    CogCastRunConfig config;
    config.params = params;
    config.fault_engine = &faults;
    return run_supervised(
        [&](int, std::uint64_t aseed) {
          return build_cogcast_run(assignment, config, aseed);
        },
        options, 7, policy);
  };

  FaultEngine whole = make_burst(n, c, /*from=*/3, burst_len);
  std::string snapshot;  // the first one, cut at slot 8 inside the burst
  CheckpointPolicy cut;
  cut.every_slots = 8;
  cut.sink = [&](const std::string& payload) {
    if (snapshot.empty()) snapshot = payload;
  };
  const SupervisedOutcome full = run_it(whole, cut);
  ASSERT_FALSE(snapshot.empty());

  FaultEngine resumed = make_burst(n, c, /*from=*/3, burst_len);
  CheckpointPolicy resume;
  resume.resume = snapshot;
  const SupervisedOutcome rest = run_it(resumed, resume);
  EXPECT_TRUE(full.completed);
  EXPECT_EQ(full.total_slots, rest.total_slots);
  EXPECT_GT(whole.injected(FaultKind::Churn), 0);
  EXPECT_EQ(whole.injected(FaultKind::Churn),
            resumed.injected(FaultKind::Churn));
  EXPECT_EQ(whole.serialize_log(), resumed.serialize_log());
}

TEST(Supervisor, OutcomeIsDeterministicInTheSeed) {
  const int n = 16, c = 4, k = 2;
  const CogCastParams params{n, c, k};
  CogCastRunConfig config;
  config.params = params;
  SupervisorOptions options;
  options.deadline = 8 * params.horizon();
  auto run_it = [&] {
    SharedCoreAssignment assignment(n, c, k, LabelMode::LocalRandom, Rng(9));
    return run_supervised(
        [&](int, std::uint64_t aseed) {
          return build_cogcast_run(assignment, config, aseed);
        },
        options, 13);
  };
  const SupervisedOutcome first = run_it();
  const SupervisedOutcome second = run_it();
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.restarts, second.restarts);
  EXPECT_EQ(first.total_slots, second.total_slots);
  ASSERT_EQ(first.epochs.size(), second.epochs.size());
  for (std::size_t i = 0; i < first.epochs.size(); ++i)
    EXPECT_EQ(first.epochs[i].slots, second.epochs[i].slots);
}

}  // namespace
}  // namespace cogradio
