// Per-node protocol interface driven by the slot-synchronous network.
//
// Each slot the network asks every protocol for an Action (which local
// channel to tune to, and whether to broadcast or listen), resolves the
// collision model per physical channel, and hands each protocol a
// SlotResult. Protocols see only their own local labels and feedback —
// never other nodes' channel sets — which enforces the paper's knowledge
// model by construction.
#pragma once

#include <cstdint>
#include <span>

#include "sim/message.h"
#include "sim/types.h"

namespace cogradio {

enum class Mode : std::uint8_t {
  Listen,     // tune to `channel` and receive
  Broadcast,  // tune to `channel` and transmit `msg`
  Idle,       // do not participate this slot (terminated / waiting)
};

struct Action {
  Mode mode = Mode::Idle;
  LocalLabel channel = 0;  // meaningful unless Idle
  Message msg{};           // meaningful only when broadcasting

  static Action listen(LocalLabel ch) { return {Mode::Listen, ch, {}}; }
  static Action broadcast(LocalLabel ch, Message m) {
    return {Mode::Broadcast, ch, std::move(m)};
  }
  static Action idle() { return {}; }
};

// Outcome of a slot from one node's perspective. `received` views
// network-owned storage and is valid only for the duration of the
// on_feedback call; copy out anything to keep.
//
// Semantics under the paper's collision model (CollisionModel::OneWinner):
// a listener receives the (single) winning message on its channel, if any;
// a broadcaster learns tx_success, and on failure *also* receives the
// winning message (Section 2).
struct SlotResult {
  bool jammed = false;        // node was cut off by the jammer this slot
  bool tx_attempted = false;  // node broadcast (and was not jammed)
  bool tx_success = false;    // its message was the one delivered
  std::span<const Message> received;
};

class CheckpointWriter;  // sim/checkpoint.h
class CheckpointReader;

class Protocol {
 public:
  virtual ~Protocol() = default;

  Protocol() = default;
  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  // Decide this slot's action. Slots are 1-based and strictly increasing.
  virtual Action on_slot(Slot slot) = 0;

  // Receive the slot's outcome. Called exactly once per on_slot call.
  virtual void on_feedback(Slot slot, const SlotResult& result) = 0;

  // True once this node has met its protocol's goal (e.g. informed, or
  // terminated). A done protocol keeps being scheduled — epidemic protocols
  // must keep broadcasting after they are "done"; return Idle from on_slot
  // to actually stop participating.
  virtual bool done() const = 0;

  // --- Checkpoint/restore (sim/checkpoint.h) ------------------------------
  // A protocol returning true here serializes its COMPLETE cross-slot state
  // in save_state and reconstructs it in restore_state, called only at slot
  // boundaries on a freshly constructed twin (same constructor arguments).
  // The resume-equivalence contract: after restore_state the twin's future
  // actions, feedback handling, and RNG draws are bit-identical to the
  // original's. A decorator forwards to the wrapped protocol and prepends
  // its own state. The defaults make a protocol opt-in:
  // harnesses must check checkpointable() before trusting the no-ops.
  virtual bool checkpointable() const { return false; }
  virtual void save_state(CheckpointWriter&) const {}
  virtual void restore_state(CheckpointReader&) {}
};

}  // namespace cogradio
