// Experiment runtime: assembles a network of protocol nodes, runs it, and
// extracts structured outcomes. All tests, examples and benches go through
// these helpers so that a (parameters, seed) pair reproduces bit-identically.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "agg/aggregate.h"
#include "core/cogcast.h"
#include "core/cogcomp.h"
#include "sim/network.h"

namespace cogradio {

// --- Local broadcast --------------------------------------------------------

struct BroadcastOutcome {
  bool completed = false;  // every node informed
  Slot slots = 0;          // slots until completion (or the cap)
  TraceStats stats;
  std::vector<Slot> informed_slot;  // per node; kNoSlot if never, 0 = source
  std::vector<NodeId> parent;       // distribution-tree parent per node
};

struct CogCastRunConfig {
  CogCastParams params;
  std::uint64_t seed = 1;
  NodeId source = 0;
  // Additional nodes that also start informed (replicated beacons). With
  // m initial sources the epidemic skips ~lg m doublings; informed_slot
  // is 0 for every source and parents form a forest rooted at them.
  std::vector<NodeId> extra_sources;
  // Slot cap for the run. 0 = a generous default (8x the Theorem-4
  // horizon) so that time-to-completion can be measured past the horizon.
  Slot max_slots = 0;
  // When true, nodes stop at params.horizon() (the terminating variant);
  // when false they run long-lived until everyone is informed or the cap.
  bool bounded = false;
  // Engine knobs (sim/network.h): collision model, fading, backoff
  // emulation. The run's RNG seed is derived from `seed` above.
  NetworkOptions net{};
  Jammer* jammer = nullptr;
  // Optional adversarial fault schedule (sim/fault_engine.h); windows must
  // be added before the run. Not owned.
  FaultEngine* fault_engine = nullptr;
};

// Runs CogCast on `assignment` and reports time-to-all-informed plus the
// distribution tree. The message disseminated is a Data payload.
BroadcastOutcome run_cogcast(ChannelAssignment& assignment,
                             const CogCastRunConfig& config);

// The same run on the reference engine (sim/reference_network.h), for
// differentials: its outcome must equal run_cogcast's field for field.
BroadcastOutcome run_cogcast_reference(ChannelAssignment& assignment,
                                       const CogCastRunConfig& config);

// Validates the distribution tree of a completed broadcast: exactly one
// root (the source), every other node has a parent that was informed
// strictly earlier, and all nodes reach the root. Returns true iff valid.
bool valid_distribution_tree(NodeId source, std::span<const Slot> informed_slot,
                             std::span<const NodeId> parent);

// --- Data aggregation --------------------------------------------------------

struct AggregationOutcome {
  bool completed = false;  // source terminated with a full-count aggregate
  Slot slots = 0;          // total slots until every node terminated
  Slot phase1_end = 0;     // phase boundaries, for per-phase breakdowns
  Slot phase2_end = 0;
  Slot phase3_end = 0;
  Slot phase4_slots = 0;   // slots spent in phase 4
  TraceStats stats;
  Value result = 0;        // aggregate computed at the source
  Value expected = 0;      // ground truth over the input values
  std::int64_t covered = 0;  // node count folded into the source's result
};

struct CogCompRunConfig {
  CogCompParams params;
  std::uint64_t seed = 1;
  NodeId source = 0;
  AggOp op = AggOp::Sum;
  Slot max_slots = 0;  // 0 = params.max_slots()
  NetworkOptions net{};
  FaultEngine* fault_engine = nullptr;  // as in CogCastRunConfig
};

// Runs CogComp with the given per-node input values (values.size() == n).
AggregationOutcome run_cogcomp(ChannelAssignment& assignment,
                               std::span<const Value> values,
                               const CogCompRunConfig& config);

// Deterministic pseudo-random input values for aggregation workloads.
std::vector<Value> make_values(int n, std::uint64_t seed,
                               Value lo = 0, Value hi = 1'000'000);

// --- Baseline runners ---------------------------------------------------------

struct BaselineRunConfig {
  std::uint64_t seed = 1;
  NodeId source = 0;
  Slot max_slots = 1'000'000;
  AggOp op = AggOp::Sum;  // aggregation baseline only
  // Engine knobs (collision model, fading, ...) flow through every runner
  // the same way; the run's RNG seed is still derived from `seed` above.
  NetworkOptions net{};
};

// Randomized-rendezvous broadcast straw man (Section 1): the source hops and
// transmits, everyone else hops and listens; ~O((c^2/k) lg n) slots.
BroadcastOutcome run_rendezvous_broadcast(ChannelAssignment& assignment,
                                          const BaselineRunConfig& config);

// Randomized-rendezvous aggregation straw man (Section 1): ~O(c^2 n / k).
AggregationOutcome run_rendezvous_aggregation(ChannelAssignment& assignment,
                                              std::span<const Value> values,
                                              const BaselineRunConfig& config);

// Hopping-together sequential scan (Section 6 discussion); requires global
// labels — the physical channel list is read from the assignment.
BroadcastOutcome run_hopping_together(ChannelAssignment& assignment,
                                      const BaselineRunConfig& config);

// --- Generic many-trial sweep helper -----------------------------------------

// Runs `trials` executions of `fn(trial_seed)` and returns the collected
// per-trial completion-slot samples (as doubles, for the stats toolkit).
// `fn` must return a Slot-like value.
template <typename Fn>
std::vector<double> collect_trials(int trials, std::uint64_t base_seed, Fn fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(trials));
  Rng seeder(base_seed);
  for (int t = 0; t < trials; ++t)
    samples.push_back(static_cast<double>(fn(seeder.split(static_cast<std::uint64_t>(t))())));
  return samples;
}

}  // namespace cogradio
