// Simulator-level adversarial fault engine (robustness harness): the one
// fault model of the simulator.
//
// The FaultEngine injects faults *inside* Network::step, as a dedicated
// stage between the jammer and action resolution, so every fault
// interacts with jamming, collisions and fading exactly like failing
// hardware would: a node that is off, a receiver that dies while the
// transmitter keeps working, a stuck transmitter spewing garbage that
// *contends* under the collision model, lost feedback, or whole node
// subsets dropping out at once. A protocol never sees its fault: it is
// asked for an action every slot, and a silenced slot's feedback is
// SlotResult{}, the feedback of a powered-off radio.
//
// Fault kinds (active per node over [from, to) slot windows):
//   Deaf          rx dead, tx works: the node transmits and may win its
//                 channel, but every copy addressed to it is dropped
//                 (counted in TraceStats::suppressed_deliveries);
//   Mute          tx dead, rx works: a broadcast is demoted to a listen on
//                 the same label — the node still hears the channel;
//   Babble        stuck transmitter: whatever the protocol asked for, the
//                 radio broadcasts garbage on one stuck label and contends
//                 under the collision model; the protocol hears nothing;
//   FeedbackDrop  the slot's SlotResult is lost: the node acted and
//                 physics happened, but it learns nothing (blank feedback);
//   Churn         the node is off: forced idle, hears nothing. A crash is
//                 a window that never closes, an outage or a late wake-up
//                 a window [from, to); the building block of correlated
//                 bursts.
//
// Composition precedence within one slot: Churn dominates everything (an
// off radio neither babbles nor listens); Mute beats Babble (a dead
// transmitter cannot babble); Deaf and FeedbackDrop compose freely with
// the tx-side kinds. Every window transition lands in an auditable
// FaultLog (log() / serialize_log()), so a failing run can be replayed
// fault by fault.
//
// Determinism: all schedule coins are spent when windows are added
// (add / add_random / add_burst); begin_slot only resolves them. A
// (seed, schedule) pair therefore replays bit-identically, which is what
// lets `cograd check --faults` fuzz fault schedules with shrinking.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/types.h"
#include "util/rng.h"

namespace cogradio {

class CheckpointWriter;  // sim/checkpoint.h
class CheckpointReader;

enum class FaultKind : std::uint8_t { Deaf, Mute, Babble, FeedbackDrop, Churn };

inline constexpr int kNumFaultKinds = 5;

std::string to_string(FaultKind kind);

// Per-node fault state for one slot, as a bitmask; ResolvedAction::fault
// carries it to observers and the invariant oracle.
namespace faultflag {
inline constexpr std::uint8_t kChurnedOut = 1u << 0;
inline constexpr std::uint8_t kDeaf = 1u << 1;
inline constexpr std::uint8_t kMute = 1u << 2;
inline constexpr std::uint8_t kBabble = 1u << 3;
inline constexpr std::uint8_t kFeedbackDrop = 1u << 4;
// Set by the network when an active Mute fault actually demoted a
// requested broadcast to a listen this slot.
inline constexpr std::uint8_t kDemoted = 1u << 5;

// Kinds that kill the node's receive path: copies addressed to it are
// suppressed instead of delivered.
inline constexpr std::uint8_t kRxDead =
    kChurnedOut | kDeaf | kBabble | kFeedbackDrop;
// Kinds whose feedback is blanked entirely (SlotResult{}): the protocol
// learns nothing at all about the slot, like a powered-off radio.
inline constexpr std::uint8_t kBlankFeedback =
    kChurnedOut | kBabble | kFeedbackDrop;
}  // namespace faultflag

// Maps a FaultKind to its faultflag bit.
std::uint8_t fault_bit(FaultKind kind);

// One audited fault transition: the window of `kind` on `node` opened
// (onset) or closed at `slot`.
struct FaultEvent {
  Slot slot = 0;
  NodeId node = kNoNode;
  FaultKind kind = FaultKind::Deaf;
  bool onset = false;
};

// Budget for add_random: how many distinct nodes get each kind, plus one
// optional correlated churn burst. Also the fault dimension of a proptest
// Scenario (harness/proptest.h), hence the defaulted equality.
struct FaultProfile {
  int deaf = 0;
  int mute = 0;
  int babble = 0;
  int feedback_drop = 0;
  int churn = 0;
  int burst_nodes = 0;  // correlated burst: this many nodes churn at once
  Slot burst_len = 0;   // ... for this many slots

  bool any() const {
    return deaf > 0 || mute > 0 || babble > 0 || feedback_drop > 0 ||
           churn > 0 || (burst_nodes > 0 && burst_len > 0);
  }
  bool operator==(const FaultProfile&) const = default;
};

class FaultEngine {
 public:
  // `n` nodes with `c` local labels each (babble stuck labels are drawn
  // uniformly in [0, c)); `rng` seeds every schedule draw.
  FaultEngine(int n, int c, Rng rng);

  // Scripted window: `kind` is active on `node` over [from, to);
  // to == kNoSlot means forever.
  void add(NodeId node, FaultKind kind, Slot from, Slot to = kNoSlot);

  // Budgeted random schedule: per kind, that many distinct not-yet-faulted
  // nodes get one uniform window inside [1, horizon]. The burst draws its
  // own node subset and start slot — overlaps with scripted windows are
  // fine (Churn dominates).
  void add_random(const FaultProfile& profile, Slot horizon);

  // Correlated burst: every node in `nodes` is churned out over
  // [from, from + len).
  void add_burst(std::span<const NodeId> nodes, Slot from, Slot len);

  // Resolves the per-node flag masks for `slot`, lists the flagged nodes
  // and logs window transitions, in O(windows + flagged): only last
  // slot's flagged nodes are cleared. The network calls this once per
  // slot, after the jammer's begin_slot; tests may drive it directly.
  void begin_slot(Slot slot);

  std::uint8_t flags(NodeId node) const {
    return flags_[static_cast<std::size_t>(node)];
  }
  // Stuck label of an active babbler (kNoChannel when not babbling).
  LocalLabel babble_label(NodeId node) const {
    return babble_label_[static_cast<std::size_t>(node)];
  }
  // This slot's flagged nodes: each node with non-zero flags(), once, in
  // the order the schedule first flagged it.
  std::span<const NodeId> flagged() const { return flagged_; }

  // The node count and the label count the engine was built for.
  int num_nodes() const { return n_; }
  int num_labels() const { return c_; }

  int num_windows() const { return static_cast<int>(windows_.size()); }
  // End slot of the latest-ending burst window (kNoSlot without a burst);
  // recovery telemetry measures completion relative to this.
  Slot last_burst_end() const { return last_burst_end_; }

  const std::vector<FaultEvent>& log() const { return log_; }
  // One "slot=<s> node=<u> kind=<k> <onset|clear>" line per logged event.
  std::string serialize_log() const;
  // One "node=<u> kind=<k> from=<f> to=<t>" line per scheduled window —
  // the reproducible fault schedule, for failure artifacts.
  std::string serialize_schedule() const;

  // Checkpoint/restore (sim/checkpoint.h): the scheduled windows (the
  // cursor over them is pure in the slot), audit log, burst horizon, and
  // the schedule RNG. The per-slot flag masks and flagged list are
  // rebuilt by the next begin_slot; the per-kind fault tally is the
  // network's TraceStats. restore_state targets a freshly constructed
  // engine with the same (n, c), and throws CheckpointError on a window
  // or log entry add() could not have made.
  void save_state(CheckpointWriter& w) const;
  void restore_state(CheckpointReader& r);

 private:
  struct Window {
    NodeId node = kNoNode;
    FaultKind kind = FaultKind::Deaf;
    Slot from = 0;
    Slot to = kNoSlot;               // kNoSlot = forever
    LocalLabel label = kNoChannel;   // babble stuck label, drawn at add()
  };

  int n_;
  int c_;
  Rng rng_;
  std::vector<Window> windows_;
  std::vector<std::uint8_t> flags_;        // per node, current slot
  std::vector<LocalLabel> babble_label_;   // per node, current slot
  std::vector<NodeId> flagged_;  // nodes with non-zero flags_; reserved to n
  std::vector<FaultEvent> log_;
  Slot last_burst_end_ = kNoSlot;
};

// Throws std::invalid_argument unless `engine` can drive a network of `n`
// nodes with `c` labels each: a flagged node indexes the network's node
// arrays, so the node counts must match, and a babble label indexes the
// node's label row, so the engine may draw from at most c labels.
void check_fault_engine_fits(const FaultEngine& engine, int n, int c);

}  // namespace cogradio
