// Self-healing run supervisor: a progress watchdog around protocol runs.
//
// The paper's robustness story is asymmetric: CogCast is oblivious — every
// node does the same thing in every slot — so faults cost it throughput but
// never wedge it, while CogComp's coordination-heavy phases 2-4 can be
// left permanently incomplete by mid-run faults (a crashed cluster head is
// never re-elected). A deployment would wrap such a protocol in a
// supervisor: watch progress, declare the epoch dead on a stall or a
// deadline, and restart the whole run from fresh (re-seeded) state with an
// exponentially backed-off deadline. run_supervised implements exactly
// that loop, and its SupervisedOutcome quantifies the asymmetry: E34
// measures that CogCast completes with zero restarts under a churn burst
// while CogComp needs the restart to recover.
//
// Determinism: attempt k draws its seed as Rng(seed).split(k), so a
// (factory, options, seed) triple replays bit-identically — including how
// many restarts it takes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/runtime.h"
#include "sim/network.h"

namespace cogradio {

// Ceiling for the backed-off per-epoch deadline. Exponential growth is
// computed in double, and for large budgets the double -> Slot conversion
// could otherwise overflow and wrap to a tiny or negative deadline (which
// would silently turn "more time" into "no time"). next_backoff_deadline
// clamps here; generous enough that a real run never notices — at one
// nanosecond per slot this is two years of slots per epoch.
inline constexpr Slot kMaxSupervisorDeadline = Slot{1} << 56;

struct SupervisorOptions {
  // Per-epoch slot budget; 0 = unbounded (then stall_window must be set).
  Slot deadline = 0;
  // Restart when the progress counter is flat for this many consecutive
  // slots; 0 disables stall detection.
  Slot stall_window = 0;
  // The deadline is multiplied by this factor after every restart, so a
  // run that merely needed more time eventually gets it.
  double backoff = 2.0;
  // Restarts allowed after the first attempt (total epochs <= 1 + this).
  int max_restarts = 3;
  // Backed-off deadlines are clamped to min(max_deadline,
  // kMaxSupervisorDeadline); 0 = kMaxSupervisorDeadline. A serve session
  // sets this lower to bound its worst-case epoch.
  Slot max_deadline = 0;
};

// The deadline for the epoch after one with per-epoch budget `deadline`:
// grows by `backoff` (always by at least one slot) and clamps to
// min(max_deadline > 0 ? max_deadline : kMaxSupervisorDeadline,
// kMaxSupervisorDeadline). Total in double before converting, so a huge
// deadline times a huge backoff clamps instead of wrapping. Exposed for
// the boundary tests in tests/test_supervisor.cpp.
Slot next_backoff_deadline(Slot deadline, double backoff, Slot max_deadline);

// Why one epoch ended.
struct EpochStats {
  Slot slots = 0;             // slots this epoch executed
  bool completed = false;     // success() held
  bool stalled = false;       // progress flat for stall_window slots
  bool deadline_hit = false;  // epoch exceeded its (backed-off) deadline
};

// Observes every finished epoch (attempt index and its stats) before the
// supervisor decides whether to restart. Returning false aborts the whole
// supervised run — no further restarts — which is how a serve session's
// cancel frame (src/serve) stops in-flight work between epochs. An empty
// function observes nothing and never aborts.
using EpochObserver = std::function<bool(int attempt, const EpochStats&)>;

struct SupervisedOutcome {
  bool completed = false;
  bool aborted = false;       // an EpochObserver returned false
  int restarts = 0;           // epochs abandoned and retried
  Slot total_slots = 0;       // summed over every epoch
  std::vector<EpochStats> epochs;
};

// One freshly built attempt: the network to drive, a monotone progress
// counter (more is better; used by the stall detector), the success
// predicate, and an opaque owner keeping nodes/engines alive while the
// epoch runs.
struct SupervisedRun {
  Network* network = nullptr;
  std::function<std::int64_t()> progress;
  std::function<bool()> success;
  // Reads the run's scalar answer (CogComp: the source's aggregate);
  // empty when the protocol has none. Callers that keep the run alive
  // past run_supervised (src/serve/job.cpp) read it after completion.
  std::function<Value()> aggregate;
  // Checkpoint hooks (sim/checkpoint.h): serialize / reconstruct the
  // attempt's complete cross-slot component state — network, attached
  // jammer and fault engine, protocol nodes. restore_state targets a run
  // freshly built by the same factory call (same attempt, same derived
  // seed). Both empty means the run cannot be checkpointed;
  // run_supervised refuses a checkpoint policy in that case rather than
  // writing partial snapshots.
  std::function<void(CheckpointWriter&)> save_state;
  std::function<void(CheckpointReader&)> restore_state;
  std::shared_ptr<void> state;
};

// Checkpoint policy for run_supervised: every `every_slots` network slots
// the supervisor serializes its own cursor (attempt index, backed-off
// deadline, epoch history, stall detector) plus the run's component state
// and hands the raw payload to `sink` — callers wrap it in the validated
// file header via save_checkpoint_file. A nonempty `resume` payload (from
// load_checkpoint_file) makes run_supervised continue mid-epoch from the
// snapshot instead of starting attempt 0 fresh; the resume-equivalence
// contract is that the continued run is bit-identical to the
// uninterrupted one.
struct CheckpointPolicy {
  std::function<void(const std::string& payload)> sink;
  Slot every_slots = 0;
  std::string resume;

  bool wants_snapshots() const { return sink && every_slots > 0; }
  bool active() const { return wants_snapshots() || !resume.empty(); }
};

// Builds attempt `attempt` from its derived seed. The factory may attach
// a jammer or a FaultEngine — e.g. through the config's fault_engine on
// attempt 0 only, so a restart escapes a scripted burst (E34).
using AttemptFactory =
    std::function<SupervisedRun(int attempt, std::uint64_t seed)>;

// The supervisor loop: run epochs until success() holds, the restart
// budget is exhausted, or `observer` (called after every epoch) asks for
// an abort. Throws if neither a deadline nor a stall window bounds the
// epoch. The observer never affects what an epoch computes — only whether
// the next one starts — so an observer that always returns true leaves the
// outcome bit-identical to the observer-free call.
SupervisedOutcome run_supervised(const AttemptFactory& factory,
                                 const SupervisorOptions& options,
                                 std::uint64_t seed,
                                 const EpochObserver& observer = {});

// As above, with checkpointing: snapshots are cut at slot boundaries per
// `policy`, and a nonempty policy.resume continues a snapshotted run.
// Throws if the policy is active but the factory's runs lack the
// save_state/restore_state hooks.
SupervisedOutcome run_supervised(const AttemptFactory& factory,
                                 const SupervisorOptions& options,
                                 std::uint64_t seed,
                                 const CheckpointPolicy& policy,
                                 const EpochObserver& observer = {});

// Standard supervised runs: the run that run_cogcast / run_cogcomp step
// (assemble_cogcast / assemble_cogcomp, core/runtime.h), assembled from
// `seed` in place of config.seed, with config.jammer and
// config.fault_engine attached and included in the checkpoint hooks.
// progress = number of informed nodes; success = everyone informed.
SupervisedRun build_cogcast_run(ChannelAssignment& assignment,
                                const CogCastRunConfig& config,
                                std::uint64_t seed);
// progress = cumulative channel successes (communication keeps happening);
// success = the source holds a full-count aggregate and all nodes are done.
SupervisedRun build_cogcomp_run(ChannelAssignment& assignment,
                                std::span<const Value> values,
                                const CogCompRunConfig& config,
                                std::uint64_t seed);

}  // namespace cogradio
