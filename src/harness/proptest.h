// Seeded property-based testing for the slot engines.
//
// A *scenario* is a fully-specified randomized execution — topology size,
// channel structure, assignment family, traffic protocol, jammer, engine
// variant, fading, fault schedule, slot count, and one salt that seeds
// every run-time coin. Scenarios are drawn from util/sweep.h's trial_rng, so a
// failing trial is reproducible forever from just (seed, trial); the
// harness prints that pair as a one-line `cograd check` reproducer.
//
// The default property, check_scenario, materializes the scenario, runs
// it under sim/invariants.h's InvariantChecker (with every protocol
// tapped), re-runs it on the reference engine (sim/reference_network.h),
// which must agree on the action stream and every counter, and — for
// oblivious random traffic on the paper's model — additionally runs the
// *differential* engine check: the plain one-winner engine and the
// backoff-emulating engine must produce bit-identical action streams for
// the same seeds, because oblivious nodes never see the coin flips that
// differ between the two contention resolvers.
//
// Every scenario additionally runs the *resume differential*: a second
// materialization of the same world is checkpointed at the salt-derived
// snap slot (sim/checkpoint.h), the snapshot is restored into a third,
// freshly built twin, and the twin — continued to completion — must
// reproduce the uninterrupted run's accounting digest exactly. This is
// the property-level half of the resume-equivalence contract
// (docs/DETERMINISM.md); the ctest crashtest legs prove the same contract
// under real SIGKILLs.
//
// On failure the harness shrinks greedily toward a minimal counterexample
// (fewer slots, fewer nodes, no faults, no jammer, no fading, plain
// engine, simplest traffic and assignment) and reports both the original
// and the shrunk scenario. run_property fans trials across ParallelSweep
// and keeps its report bit-identical for any job count.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/fault_engine.h"
#include "sim/network.h"
#include "sim/protocol.h"
#include "util/rng.h"

namespace cogradio {

// --- Scenario space ---------------------------------------------------------

enum class ScnPattern : std::uint8_t {
  SharedCore,
  Partitioned,
  Pigeonhole,
  Identity,           // forces k == c
  DynamicSharedCore,  // re-drawn every slot
  DynamicPigeonhole,
};

enum class ScnProtocol : std::uint8_t {
  Random,   // oblivious uniform traffic (the fuzz hammer)
  CogCast,  // the paper's epidemic broadcast
  Gossip,   // all-to-all rumor spreading
};

enum class ScnJammer : std::uint8_t { None, Random, Sweep, Reactive };

enum class ScnEngine : std::uint8_t {
  Plain,          // OneWinner, uniform winner draw
  Backoff,        // OneWinner rebuilt via decay backoff on the raw radio
  AllDelivered,   // footnote-3 stronger model
  CollisionLoss,  // raw radio, no winner resolution
};

struct Scenario {
  int n = 8;
  int c = 4;
  int k = 2;
  ScnPattern pattern = ScnPattern::SharedCore;
  ScnProtocol protocol = ScnProtocol::Random;
  ScnJammer jammer = ScnJammer::None;
  int jam_budget = 0;
  ScnEngine engine = ScnEngine::Plain;
  // Per-delivery fading probability, quantized to sixteenths; nonzero only
  // on the OneWinner engines (the raw/AllDelivered paths ignore it).
  double loss_prob = 0.0;
  int slots = 64;
  int crashes = 0;  // nodes churned out for good from a slot on
  int outages = 0;  // nodes churned out over one [from, to) window
  // Per-kind window budgets plus one correlated churn burst, on the same
  // FaultEngine (sim/fault_engine.h) as the crashes and outages. Only
  // populated when the harness runs with faults enabled (`cograd check
  // --faults`), so the historical (seed, trial) scenario space is
  // unchanged.
  FaultProfile faults;
  // Snapshot slot for the resume differential: the primary world is
  // checkpointed after `snap` slots, restored into a freshly materialized
  // twin, and the twin's completed run must match the uninterrupted one
  // bit for bit. Derived from the salt (no draw consumed), clamped to
  // [1, slots - 1] so every scenario both snapshots mid-run and resumes
  // with work left to do.
  int snap = 1;
  std::uint64_t salt = 1;  // seeds every run-time coin of the execution

  bool operator==(const Scenario&) const = default;
};

// Clamps every field into its legal range and resolves cross-field
// constraints (k <= c, Identity forces k = c, fading only on OneWinner,
// faults never outnumber nodes...). generate/shrink both go through this,
// so any Scenario the harness touches materializes cleanly.
Scenario canonicalize(Scenario scn);

// Draws a canonical scenario. Pure in the rng state: feed it
// trial_rng(seed, t) and the scenario is a function of (seed, t). With
// `with_faults` it additionally draws a FaultProfile — those draws come
// strictly *after* every historical field, so a (seed, trial) pair still
// names the exact same fault-free scenario it always did.
Scenario generate_scenario(Rng& rng, bool with_faults = false);

// Convenience: the scenario `cograd check --seed S --trial T [--faults]`
// reruns.
Scenario scenario_for(std::uint64_t seed, int trial, bool with_faults = false);

// One-line human-readable form, stable across runs (used in reports).
std::string describe(const Scenario& scn);

// --- Properties -------------------------------------------------------------

// A property maps a scenario to a failure message ("" = holds).
using Property = std::function<std::string(const Scenario&)>;

// Per-kind faulted node-slots (TraceStats), summed across every checked
// scenario. Atomic adds of per-run totals commute, so the counts are
// identical for any worker count / completion order. `cograd check
// --faults` fails a sweep in which any kind was never exercised.
struct FaultInjectionCounts {
  std::array<std::atomic<std::int64_t>, kNumFaultKinds> by_kind{};

  void record(const TraceStats& stats) {
    const std::int64_t counts[] = {  // in FaultKind order
        stats.deaf_node_slots, stats.mute_node_slots, stats.babble_node_slots,
        stats.feedback_drop_node_slots, stats.churned_node_slots};
    for (int k = 0; k < kNumFaultKinds; ++k)
      by_kind[static_cast<std::size_t>(k)].fetch_add(
          counts[k], std::memory_order_relaxed);
  }
  std::int64_t total(FaultKind kind) const {
    return by_kind[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
  }
  bool all_kinds_exercised() const {
    for (const auto& count : by_kind)
      if (count.load(std::memory_order_relaxed) <= 0) return false;
    return true;
  }
};

// Knobs for check_scenario beyond the scenario itself. `mutation` plumbs a
// testonly invariant-breaking radio into the network so WILL_FAIL legs can
// prove the oracle actually polices each fault rule; `injections`, when
// set, accumulates the primary run's per-kind faulted node-slots. The
// primary run is on Network; the reference differential re-runs every
// unmutated scenario on the reference engine.
struct CheckOptions {
  TestonlyFaultMutation mutation = TestonlyFaultMutation::None;
  FaultInjectionCounts* injections = nullptr;
  // Testonly: the resume differential restores the snapshot taken one slot
  // *early*, modelling a resume from the wrong slot boundary. The digest
  // compare must flag it — the WILL_FAIL leg proving the resume oracle
  // actually bites (`cograd check --testonly-mutation resume-skew`).
  bool resume_skew = false;
};

// The model audit: run under the InvariantChecker (all protocols tapped),
// plus the reference, plain-vs-backoff and resume differentials. Returns
// "" or the first violation.
std::string check_scenario(const Scenario& scn);
std::string check_scenario(const Scenario& scn, const CheckOptions& options);

// The reproducible fault schedule of a scenario (empty without crashes,
// outages or a fault profile): exactly the windows run_once would
// install, serialized one per line.
// Failure artifacts attach this next to the reproducer command.
std::string fault_schedule_for(const Scenario& scn);

// --- Harness ----------------------------------------------------------------

struct PropFailure {
  int trial = -1;
  Scenario original;
  Scenario shrunk;
  int shrink_steps = 0;    // accepted shrink transformations
  std::string message;     // failure message of the *shrunk* scenario
  std::string repro;       // one-line reproducer: cograd check --seed --trial
};

struct PropReport {
  int trials = 0;
  int failures = 0;                   // total failing trials
  std::vector<PropFailure> failing;   // first few, shrunk, in trial order
  bool ok() const { return failures == 0; }
};

// Greedy counterexample shrinking: repeatedly tries size-reducing
// transformations (halve/decrement slots and n, drop faults, jammer,
// fading, engine emulation, simplify traffic and assignment, shrink c/k)
// and keeps any transform under which `prop` still fails, until a fixed
// point or `budget` property evaluations. Returns the shrunk scenario and
// the number of accepted steps.
std::pair<Scenario, int> shrink_scenario(const Property& prop,
                                         Scenario failing, int budget = 256);

// Runs `trials` scenarios drawn from trial_rng(seed, t) across `jobs`
// workers (ParallelSweep), then shrinks up to `max_reported` failures
// sequentially in trial order. The report — including shrunk scenarios —
// is bit-identical for any `jobs` value. `with_faults` switches scenario
// generation (and the printed reproducers) to the fault-profile space.
PropReport run_property(const Property& prop, int trials, std::uint64_t seed,
                        int jobs, int max_reported = 8,
                        int shrink_budget = 256, bool with_faults = false);

std::string reproducer_line(std::uint64_t seed, int trial,
                            bool with_faults = false);

// --- Traffic generators ------------------------------------------------------

// Oblivious uniform random traffic: each slot idle with probability 1/10,
// otherwise broadcast (4/9) or listen (5/9) on a uniform local label. Its
// action stream never depends on feedback, which is exactly what the
// differential engine check needs. Shared by tests/test_fuzz.cpp.
class RandomTrafficNode : public Protocol {
 public:
  RandomTrafficNode(int c, Rng rng) : c_(c), rng_(rng) {}

  Action on_slot(Slot) override;
  void on_feedback(Slot, const SlotResult&) override {}
  bool done() const override { return false; }

  // The only cross-slot state is the traffic coin stream, so a snapshot is
  // just the RNG — which is exactly what the resume differential needs to
  // continue the stream bit-identically.
  bool checkpointable() const override { return true; }
  void save_state(CheckpointWriter& w) const override;
  void restore_state(CheckpointReader& r) override;

 private:
  int c_;
  Rng rng_;
};

}  // namespace cogradio
