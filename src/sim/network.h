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
//
// The engine keeps per-field node arrays, lists the slot's non-idle nodes
// once, and runs every pass after the fault overrides over that list:
// a gather that counts each node's (channel, role) key into its bucket and
// marks its channel in a two-level touched map, one stable scatter of the
// keys, and a walk over the touched channels in ascending order. A slot
// costs O(active + C/4096), and a channel costs what its contention does:
// a run with no broadcaster is skipped, and a lone broadcaster, with
// nobody to reach, costs only its winner coin and its accounting; faults
// add O(flagged).
// sim/reference_network.h writes the same model out plainly, and the two
// are diffed bit for bit; DETERMINISM.md ("The slot engine, its reference,
// and the draw order") documents the draw order both honor.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "sim/assignment.h"
#include "sim/backoff.h"
#include "sim/fault_engine.h"
#include "sim/protocol.h"
#include "sim/trace.h"
#include "util/huge_pages.h"
#include "util/rng.h"

namespace cogradio {

enum class CollisionModel : std::uint8_t { OneWinner, AllDelivered, CollisionLoss };

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

  // Element-wise stream equality, for the reference differential tests.
  bool operator==(const ResolvedAction&) const = default;
};

// Per-node per-slot flag bits of the engine, exposed to batch clients
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
// messages for node i start at messages[rx_offset[i]]; rx_offset[i] is
// meaningful only when rx_count[i] > 0 (it is never reset, so a node that
// heard nothing may hold a stale offset). Spans are only valid for the
// duration of the end_slot() call.
struct BatchFeedback {
  Slot slot = 0;
  std::span<const Mode> mode;           // as resolved (fault overrides applied)
  std::span<const std::uint8_t> flags;  // slotflag bits
  std::span<const std::uint8_t> fault;  // faultflag bits
  std::span<const std::int32_t> rx_offset;
  std::span<const std::int32_t> rx_count;
  std::span<const Message> messages;
};

// The engine's one client interface: one virtual call collects every
// node's action and one returns every node's feedback. Per-node Protocols
// ride it too, through an adapter the Network owns (network.cpp) that
// calls on_slot/on_feedback for each node in ascending node order; a
// native batch client skips those 2n virtual calls per slot, which is
// what dominates stepping at scale. Either way the engine runs
// assignment, jamming, faults, collision resolution, fading, and
// accounting through the same code: the ReferenceBatch test diffs a batch
// run and a per-node twin against the reference.
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
  // them for you). Each slot calls every on_slot in ascending node order,
  // then every on_feedback in ascending node order, under every collision
  // model.
  Network(ChannelAssignment& assignment, std::vector<Protocol*> protocols,
          NetworkOptions options = {});

  // Batched-traffic variant (non-owning, like protocols).
  Network(ChannelAssignment& assignment, BatchClient& client,
          NetworkOptions options = {});

  ~Network();

  // Attach an adversarial jammer (non-owning). Attaching one sizes the
  // per-node channel history handed to Jammer::observe (step() never
  // allocates).
  void set_jammer(Jammer* jammer);

  // Attach an adversarial fault engine (non-owning, like the jammer). Its
  // begin_slot runs right after the jammer's; the flag masks of the nodes
  // it lists (FaultEngine::flagged) override protocol actions and gate
  // delivery/feedback in step(). Throws std::invalid_argument unless the
  // engine fits this network (check_fault_engine_fits); nullptr detaches.
  void set_fault_engine(FaultEngine* engine);
  const FaultEngine* fault_engine() const { return fault_engine_; }

  // Observer invoked after each slot with the resolved actions; used by
  // tests to validate collision-model semantics externally. Attaching one
  // sizes the ResolvedAction view it reads (step() never allocates).
  using SlotObserver = std::function<void(Slot, std::span<const ResolvedAction>)>;
  void set_observer(SlotObserver observer);

  int num_nodes() const { return n_; }
  int total_channels() const { return assignment_.total_channels(); }
  const NetworkOptions& options() const { return options_; }
  Slot now() const { return stats_.slots; }
  const TraceStats& stats() const { return stats_; }
  // Per-node duty-cycle counters. `idle` is derived on read, not stored:
  // every slot consumes exactly one of {idle, jammed, tx, listen} per node,
  // so idle = slots - (tx + listen + jammed). Storing only the other
  // counters lets step() skip idle nodes' accounting entirely, which
  // is what makes mostly-idle million-node slots O(active) instead of O(n).
  NodeActivity activity(NodeId node) const {
    const Activity& a = activity_[static_cast<std::size_t>(node)];
    NodeActivity out;
    out.tx = a.tx;
    out.tx_success = a.tx_success;
    out.listen = a.listen;
    out.received = a.received;
    out.jammed = a.jammed;
    out.idle = stats_.slots - (a.tx + a.listen + a.jammed);
    return out;
  }

  // Words of the touched-channel map the grouping has read since
  // construction: one per word holding a touched channel, per slot. The
  // exact work count behind the O(active + C/4096) slot bound (the
  // summary's C/4096 words are not counted); a diagnostic, not model
  // state, so it is neither checkpointed nor diffed against the reference.
  std::int64_t touched_words_read() const { return touched_words_read_; }

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
  // next step() rebuilds (grouping keys, buckets, the active list). Each
  // node's record keeps NodeActivity's six fields; its idle entry is
  // always 0 (idle is derived on read), and restore_state rejects any
  // other value.
  // restore_state targets a freshly constructed Network over the same node
  // count, and rejects an activity record no run can produce: a negative
  // counter, more wins than broadcasts, or more active slots than slots.
  // Protocol, jammer, and fault-engine state is serialized by those
  // components, not here.
  void save_state(CheckpointWriter& w) const;
  void restore_state(CheckpointReader& r);

 private:
  // Per-node protocols wrapped as a BatchClient (network.cpp).
  class ProtocolClient;

  // A node's accumulated duty-cycle counters: NodeActivity without the
  // idle count, which activity() derives.
  struct Activity {
    std::int64_t tx = 0;
    std::int64_t tx_success = 0;
    std::int64_t listen = 0;
    std::int64_t received = 0;
    std::int64_t jammed = 0;
  };

  ChannelAssignment& assignment_;
  std::unique_ptr<ProtocolClient> protocols_;  // null for a batch client
  NetworkOptions options_;
  Rng rng_;
  int n_ = 0;
  BatchClient* batch_ = nullptr;  // the caller's client, or *protocols_
  Jammer* jammer_ = nullptr;
  FaultEngine* fault_engine_ = nullptr;
  SlotObserver observer_;
  TraceStats stats_;
  // On huge pages (util/huge_pages.h), like every per-node array the
  // engine fills end to end: at fleet scale these are the arrays each
  // active node's lines are scattered over.
  HugePageVector<Activity> activity_;

  // Sizes all per-slot scratch; called once from either constructor.
  void init_scratch();

  // Finishes the counting sort the gather began: lists the touched
  // channels into touched_channels_, ascending, and places the active
  // nodes into `order_` by soa_key_, each touched channel's run holding
  // its broadcasters, then its listeners, both ascending. Leaves each
  // touched channel's two buckets at its listeners' start and its run's
  // end for the resolve walk, and returns the runs' total length.
  std::size_t group_by_key();

  // Per-channel resolution: one channel's broadcasters (at least one) and
  // listeners, each a run of order_ in ascending node order.
  void resolve_group(Slot slot, std::span<const int> broadcasters,
                     std::span<const int> listeners);

  // A landed broadcast: marks `idx` successful, sources the message its
  // radio put on the air and books the success and word accounting; the
  // caller delivers the message or, for a lone broadcaster, drops it.
  Message land(Slot slot, int idx);
  void mark_success(int idx);

  // Per-slot scratch, sized once (in the constructor, or by the setter
  // that attaches its reader) and reused every slot so that step()
  // performs zero heap allocations in steady state (counted by
  // tests/test_steady_alloc.cpp, with dynamic and spectrum assignments and
  // random and reactive jammers among its settings). Per-node arrays
  // are sized only for their readers: a 2^20-node BatchClient fleet
  // allocates neither resolved_ nor used_channel_.
  std::vector<ResolvedAction> resolved_;  // only with an observer
  std::vector<int> order_;          // active node indices, grouped by channel
  std::vector<Channel> used_channel_;  // per node, for jammer observe();
                                       // sized and filled only with a jammer
  // Counting-sort histogram / offsets, indexed by key: 2C + 2 entries,
  // the last one the jammed nodes' cursor. step() keeps them all zero
  // between slots, resetting only the ones it touched.
  std::vector<int> channel_bucket_;

  // The per-field node state.
  std::vector<Mode> soa_mode_;
  std::vector<std::uint8_t> soa_flags_;  // slotflag bits
  std::vector<std::uint8_t> soa_fault_;  // faultflag bits; all 0 without
                                         // a fault engine
  // Label snapshot, in the assignment's flat node-major format, taken only
  // for a static assignment whose table() is empty (a forwarding wrapper,
  // say); a table-backed assignment's own table is read in place each
  // slot, and a dynamic one without a table is asked per node.
  HugePageVector<Channel> flat_map_;
  HugePageVector<LocalLabel> soa_label_;
  HugePageVector<std::int32_t> soa_rx_off_;  // into batch_msgs_
  HugePageVector<std::int32_t> soa_rx_cnt_;
  // Messages delivered this slot; reserved to n, so views into it stay
  // valid for the whole slot.
  std::vector<Message> batch_msgs_;
  // Non-idle nodes this slot (ascending). Every pass after the fault
  // overrides runs over it, and the next slot resets exactly its
  // entries, restoring the all-idle invariant in O(active) work instead
  // of Theta(n) fills.
  std::vector<std::int32_t> soa_active_;
  // Nodes whose fault byte this slot wrote, for the next slot's reset
  // (an engine may detach in between). Reserved to n when one attaches.
  std::vector<std::int32_t> soa_faulted_;
  // Grouping key of soa_active_[a], written by the gather:
  // (channel << 1) | listens, where a node the jammer cut off takes key
  // 2C + 1, one past the last channel's listeners.
  std::vector<std::uint32_t> soa_key_;
  // The two-level touched map: one bit per physical channel the slot's
  // keys touched, and a summary with one bit per non-zero word of it. Both
  // are all zero between slots, like the buckets they index.
  std::vector<std::uint64_t> touched_;
  std::vector<std::uint64_t> touched_summary_;
  // This slot's touched channels, ascending: listed by group_by_key,
  // walked by the resolve pass. Reserved to min(n, C).
  std::vector<std::uint32_t> touched_channels_;
  std::int64_t touched_words_read_ = 0;
};

}  // namespace cogradio
