// Slot-synchronous single-hop network engine (Section 2 of the paper).
//
// Each slot:
//   1. the channel assignment advances (dynamic assignments re-draw);
//   2. the jammer (if any) fixes per-node jam sets, knowing only history;
//   3. every protocol picks an Action (local label + broadcast/listen);
//   4. local labels are resolved to physical channels and the collision
//      model is applied per channel;
//   5. every protocol receives a SlotResult.
//
// Three collision models are provided:
//   OneWinner     the paper's model — one uniformly random broadcaster per
//                 channel succeeds; all listeners receive it; failed
//                 broadcasters learn of the failure AND receive the winner;
//   AllDelivered  the stronger model of the rendezvous literature
//                 (footnote 3) — every concurrent message reaches every
//                 listener;
//   CollisionLoss the raw radio — two or more concurrent broadcasts destroy
//                 each other (no collision detection). The backoff substrate
//                 (sim/backoff.h) rebuilds OneWinner on top of this.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "sim/assignment.h"
#include "sim/backoff.h"
#include "sim/channel_bitmap.h"
#include "sim/fault_engine.h"
#include "sim/protocol.h"
#include "sim/trace.h"
#include "util/rng.h"

namespace cogradio {

enum class CollisionModel : std::uint8_t { OneWinner, AllDelivered, CollisionLoss };

// Which slot-engine implementation step() runs.
//   SoA  default — structure-of-arrays hot path: parallel flat arrays for
//        mode/flags/fault/channel, per-channel uint64_t bitmaps
//        (sim/channel_bitmap.h) of tuned and broadcasting nodes when the
//        channel space is small enough (counting-sort grouping otherwise),
//        and winner/fade coins drawn batched per contended channel.
//   AoS  the original per-node ResolvedAction walk, kept as the reference
//        path. Differential-tested bit-identical against SoA — same coin
//        stream, same callbacks, same accounting — across every collision
//        model, jamming, fading, backoff emulation, and fault kind
//        (tests/test_engine_layouts.cpp, util/proptest.cpp), mirroring the
//        CountingSort vs ComparisonSort discipline.
// The RNG draw-order contract both layouts honor is documented in
// DETERMINISM.md ("Engine layouts and the batched draw order").
enum class EngineLayout : std::uint8_t { SoA, AoS };

// "soa" / "aos".
const char* engine_layout_name(EngineLayout layout);
// Parses "soa"/"aos" (the --engine CLI flag); throws std::invalid_argument
// on anything else.
EngineLayout parse_engine_layout(const std::string& text);

// How step() groups participating nodes by physical channel.
//   CountingSort    default — stable two-pass bucket sort keyed by channel;
//                   O(n + C) per slot with no comparator indirection.
//   ComparisonSort  the reference path: std::stable_sort on channel. Kept
//                   for differential testing (test_network.cpp runs both
//                   and asserts bit-identical executions).
// Both are stable by node index within a channel, so the two paths resolve
// collisions identically for the same seed.
enum class GroupingStrategy : std::uint8_t { CountingSort, ComparisonSort };

// TEST-ONLY fault-rule violations, one per FaultKind (see NetworkOptions).
//   DeafHears           deliveries to a deaf node are NOT suppressed;
//   MuteTransmits       a mute node's broadcast is NOT demoted to a listen;
//   BabbleIdles         a babbling node idles instead of transmitting;
//   KeepDroppedFeedback blanked feedback is delivered intact;
//   ChurnActs           a churned-out node still takes its protocol action.
enum class TestonlyFaultMutation : std::uint8_t {
  None,
  DeafHears,
  MuteTransmits,
  BabbleIdles,
  KeepDroppedFeedback,
  ChurnActs,
};

// Adversarial interference (Theorem 18). An n-uniform jammer may cut off
// any (node, channel) pairs each slot; concrete strategies live in
// sim/jamming.h and are responsible for honoring their per-node budget.
class Jammer {
 public:
  virtual ~Jammer() = default;
  // Fix this slot's jam sets. Called before any node acts; the jammer sees
  // only the history it accumulated via observe() — never current coins.
  virtual void begin_slot(Slot slot) = 0;
  virtual bool is_jammed(NodeId node, Channel channel) const = 0;
  // History feedback: physical channel each node used (kNoChannel if idle).
  virtual void observe(Slot slot, std::span<const Channel> node_channels) {
    (void)slot;
    (void)node_channels;
  }

  // Checkpoint/restore of cross-slot adversary state (sim/checkpoint.h):
  // per-node history, RNG. The defaults fit stateless strategies (the
  // per-slot jam sets are rebuilt by the next begin_slot); strategies that
  // carry state across slots override both.
  virtual void save_state(CheckpointWriter&) const {}
  virtual void restore_state(CheckpointReader&) {}
};

struct NetworkOptions {
  CollisionModel collision = CollisionModel::OneWinner;
  std::uint64_t seed = 0xc09'7ad'10;  // drives winner selection only

  // When true (OneWinner only), contention on each channel is resolved by
  // actually simulating decay backoff on a collision-loss radio instead of
  // drawing a uniform winner: micro-slot costs accumulate in
  // TraceStats::micro_slots, and a channel-slot whose backoff fails to
  // resolve within its budget delivers nothing (TraceStats counts it).
  bool emulate_backoff = false;
  BackoffParams backoff{};

  // Fading: each individual delivery (listener or failed-broadcaster copy)
  // is independently lost with this probability. The winner's tx_success
  // feedback is unaffected — the transmitter cannot observe per-receiver
  // fades. 0 = the paper's loss-free model. Robustness experiment E28
  // sweeps this: the oblivious CogCast degrades gracefully, while
  // CogComp's deterministic phases lose their guarantees (and report
  // incompleteness rather than a silently wrong aggregate).
  double loss_prob = 0.0;

  EngineLayout layout = EngineLayout::SoA;

  // Grouping strategy of the AoS reference path (the SoA layout groups via
  // channel bitmaps or its own counting sort). Kept as a differential-test
  // knob: test_network.cpp runs both and asserts bit-identical executions.
  GroupingStrategy grouping = GroupingStrategy::CountingSort;

  // TEST-ONLY mutation hook (never set outside tests): when true, a
  // contended OneWinner channel marks a second broadcaster successful
  // without accounting it — a deliberate model violation used by the
  // mutation smoke test to prove the invariant oracle is live, not
  // vacuous (tests/test_invariants.cpp).
  bool testonly_duplicate_winner = false;

  // TEST-ONLY fault-semantics mutations (never set outside tests): each one
  // makes the network violate exactly one FaultEngine rule while keeping the
  // fault flags set, so the invariant oracle's fault checks can be proven
  // live kind-by-kind (tests/test_fault_engine.cpp, WILL_FAIL cograd legs).
  TestonlyFaultMutation testonly_fault_mutation = TestonlyFaultMutation::None;
};

// Post-resolution view of one node's slot, for test oracles and observers.
struct ResolvedAction {
  NodeId node = kNoNode;
  Mode mode = Mode::Idle;
  Channel channel = kNoChannel;  // physical; kNoChannel when idle
  bool jammed = false;
  bool tx_success = false;
  std::uint8_t fault = 0;  // faultflag bits active on this node this slot

  // Element-wise stream equality, for the engine-layout differential tests.
  bool operator==(const ResolvedAction&) const = default;
};

// Per-node per-slot flag bits of the SoA layout, exposed to batch clients
// through BatchFeedback::flags.
namespace slotflag {
inline constexpr std::uint8_t kJammed = 1;     // cut off by the jammer
inline constexpr std::uint8_t kTxSuccess = 2;  // broadcast won its channel
// Feedback blanked by a fault (faultflag::kBlankFeedback): the node saw an
// empty SlotResult this slot, so a batch client must ignore the node's
// other flag bits and rx view, exactly as a per-node protocol would have.
inline constexpr std::uint8_t kFeedbackBlank = 4;
}  // namespace slotflag

// End-of-slot view handed to a BatchClient: parallel per-node arrays
// (indexed by NodeId) instead of n SlotResult callbacks. rx_count[i]
// messages for node i start at messages[rx_offset[i]]; spans are only
// valid for the duration of the end_slot() call.
struct BatchFeedback {
  Slot slot = 0;
  std::span<const Mode> mode;           // as resolved (fault overrides applied)
  std::span<const std::uint8_t> flags;  // slotflag bits
  std::span<const std::uint8_t> fault;  // faultflag bits
  std::span<const std::int32_t> rx_offset;
  std::span<const std::int32_t> rx_count;
  std::span<const Message> messages;
};

// Batched traffic interface of the SoA layout: one virtual call collects
// every node's action and one returns every node's feedback, replacing
// the 2n virtual Protocol calls per slot that dominate stepping at scale
// (bench E35 measures the difference). The engine still runs assignment,
// jamming, faults, collision resolution, fading, and accounting exactly
// as for per-node protocols — E35 cross-checks TraceStats between a batch
// run and a per-node twin every run.
class BatchClient {
 public:
  virtual ~BatchClient() = default;

  // Fill mode[i] and label[i] for the slot's active nodes (spans have
  // num_nodes entries). The mode span arrives pre-filled with Mode::Idle,
  // so a client over a mostly-idle fleet only touches the nodes that act
  // this slot. label[i] is read only for non-idle nodes and must lie in
  // [0, channels_per_node).
  virtual void begin_slot(Slot slot, std::span<Mode> mode,
                          std::span<LocalLabel> label) = 0;

  // The message node `node` attached to its broadcast this slot. Called
  // lazily — only for broadcasters whose message is actually accounted
  // (the channel winner; every broadcaster under AllDelivered) — and at
  // most once per (slot, node), so it must be a pure function of them.
  virtual Message source_message(Slot slot, NodeId node) = 0;

  virtual void end_slot(const BatchFeedback& feedback) = 0;

  virtual bool done() const = 0;
};

class Network {
 public:
  // `protocols[i]` is node i; non-owning — callers keep protocols alive for
  // the lifetime of the network (the runtime helpers in core/runtime.h own
  // them for you).
  Network(ChannelAssignment& assignment, std::vector<Protocol*> protocols,
          NetworkOptions options = {});

  // Batched-traffic variant (non-owning, like protocols). Requires the SoA
  // layout — the AoS reference path is per-node by construction.
  Network(ChannelAssignment& assignment, BatchClient& client,
          NetworkOptions options = {});

  void set_jammer(Jammer* jammer) { jammer_ = jammer; }

  // Attach an adversarial fault engine (non-owning, like the jammer). Its
  // begin_slot runs right after the jammer's; the resulting per-node flag
  // masks override protocol actions and gate delivery/feedback in step().
  void set_fault_engine(FaultEngine* engine) { fault_engine_ = engine; }
  const FaultEngine* fault_engine() const { return fault_engine_; }

  // Observer invoked after each slot with the resolved actions; used by
  // tests to validate collision-model semantics externally.
  using SlotObserver = std::function<void(Slot, std::span<const ResolvedAction>)>;
  void set_observer(SlotObserver observer) { observer_ = std::move(observer); }

  int num_nodes() const { return n_; }
  int total_channels() const { return assignment_.total_channels(); }
  const NetworkOptions& options() const { return options_; }
  Slot now() const { return stats_.slots; }
  const TraceStats& stats() const { return stats_; }
  // Per-node duty-cycle counters. `idle` is derived on read, not stored:
  // every slot consumes exactly one of {idle, jammed, tx, listen} per node,
  // so idle = slots - (tx + listen + jammed). Storing the other three lets
  // the SoA batch path skip idle nodes' accounting entirely, which is what
  // makes mostly-idle million-node slots O(active) instead of O(n).
  NodeActivity activity(NodeId node) const {
    NodeActivity a = activity_[static_cast<std::size_t>(node)];
    a.idle = stats_.slots - (a.tx + a.listen + a.jammed);
    return a;
  }

  bool all_done() const;

  // Executes one slot.
  void step();

  // Runs until every protocol reports done() or `max_slots` have executed
  // (counted from construction). Returns the slot count at exit.
  Slot run(Slot max_slots);

  // --- Checkpoint/restore (sim/checkpoint.h) ------------------------------
  // Serializes the engine's complete cross-slot state at a slot boundary:
  // the slot counter + TraceStats accumulators, per-node activity, and the
  // winner/fade RNG. Everything else in the engine is per-slot scratch the
  // next step() rebuilds (channel bitmaps, grouping scratch).
  // restore_state targets a freshly constructed Network over the same node
  // count; the layout/grouping knobs may differ between writer and
  // reader — the draw order is engine-invariant, which the proptest resume
  // differential exercises. Protocol, jammer, and fault-engine state is
  // serialized by those components, not here.
  void save_state(CheckpointWriter& w) const;
  void restore_state(CheckpointReader& r);

 private:
  ChannelAssignment& assignment_;
  std::vector<Protocol*> protocols_;
  NetworkOptions options_;
  Rng rng_;
  int n_ = 0;
  BatchClient* batch_ = nullptr;
  Jammer* jammer_ = nullptr;
  FaultEngine* fault_engine_ = nullptr;
  SlotObserver observer_;
  TraceStats stats_;
  std::vector<NodeActivity> activity_;

  // Sizes all per-slot scratch for the configured layout; called once from
  // either constructor.
  void init_scratch();

  // The two step() implementations, dispatched on options_.layout. Both
  // produce bit-identical executions: same RNG draw sequence, same
  // protocol/jammer/observer call order, same TraceStats/NodeActivity.
  void step_aos();
  void step_soa();

  // Groups the participating nodes of `resolved_` into `order_` (stable by
  // node index within each physical channel) using options_.grouping.
  void group_by_channel();
  // SoA counting-sort fallback: same grouping, reading the flat arrays.
  void group_by_channel_soa();
  // Batch-mode counting sort over soa_active_ only: O(active + C), used
  // when a slot is too sparse for the dense bitmap rows to pay off.
  void group_by_channel_soa_active();

  // Shared SoA per-channel resolution core: `Group` is either the dense
  // bitmap-row view or the sparse index-list view (network.cpp); both
  // enumerate nodes in ascending id order, so the coin logic lives in one
  // place and is provably identical across the two SoA groupings.
  template <typename Group>
  void resolve_group_soa(Slot slot, const Group& group);

  // The per-slot dense-vs-sparse grouping heuristic of the batch path.
  bool batch_dense_slot(std::size_t active) const;

  // Per-slot scratch, sized once in the constructor and reused every slot
  // so that step() performs zero heap allocations in steady state (the E18
  // and E35 allocation probes enforce this).
  std::vector<ResolvedAction> resolved_;
  std::vector<Message> messages_;   // broadcast message per node (by index);
                                    // only broadcaster entries are live — stale
                                    // slots are never read, so no per-slot reset
  std::vector<int> order_;          // participating node indices, grouped by channel
  std::vector<Channel> used_channel_;  // per node, for jammer observe();
                                       // filled only while a jammer is attached
  std::vector<std::span<const Message>> received_;  // per-node delivery view
  std::vector<char> fed_;           // feedback already delivered in-loop
  std::vector<Message> group_messages_;  // AllDelivered per-group scratch
  std::vector<int> broadcasters_;   // per-group partition scratch
  std::vector<int> listeners_;
  std::vector<int> channel_bucket_;  // counting-sort histogram / offsets

  // SoA layout state (sized only when options_.layout == SoA).
  bool dense_ = false;        // bitmap grouping affordable for this (C, n)
  ChannelBitmaps bitmaps_;    // dense per-channel tuned/broadcast rows
  std::vector<Mode> soa_mode_;
  std::vector<std::uint8_t> soa_flags_;  // slotflag bits
  std::vector<std::uint8_t> soa_fault_;  // faultflag bits
  std::vector<Channel> soa_chan_;        // physical channel (kNoChannel idle)
  std::vector<Channel> flat_map_;  // static-assignment snapshot, node-major:
                                   // flat_map_[i*cpn + label] == global_channel
  // Batch-client state (sized only for the BatchClient constructor).
  std::vector<LocalLabel> soa_label_;
  std::vector<std::int32_t> soa_rx_off_;  // into batch_msgs_
  std::vector<std::int32_t> soa_rx_cnt_;
  std::vector<Message> batch_msgs_;  // messages delivered this slot
  // Batch mode: non-idle nodes this slot (ascending). The accounting pass
  // iterates it, and the next slot's reset uses it to restore the all-idle
  // invariant in O(active) work instead of Theta(n) fills. The dirty bit
  // is true while the per-node arrays may hold stale bytes written outside
  // the active list (a fault engine can blank-flag idle nodes), forcing
  // one full-fill scrub slot after it detaches.
  std::vector<std::int32_t> soa_active_;
  bool soa_fault_dirty_ = false;
};

}  // namespace cogradio
