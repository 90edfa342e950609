// Chatter: deterministic, feedback-oblivious test traffic that a per-node
// Protocol and a BatchClient can generate identically. A pure hash of
// (slot, node) decides each node's mode, label and payload, so both
// interfaces offer byte-identical load and must see identical engine
// accounting. With a duty period d > 1 one residue class of the nodes
// mod d, picked by the slot, is awake each slot: the mostly idle fleet
// perfbench's duty_fleet runs at d = 100.
#pragma once

#include <cstdint>
#include <span>

#include "sim/network.h"

namespace cogradio {

struct ChatterDecision {
  Mode mode = Mode::Idle;
  LocalLabel label = 0;
};

inline std::uint64_t chatter_mix(std::uint64_t h) {
  h ^= h >> 29;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 32;
  return h;
}

struct Chatter {
  int c = 8;     // labels per node
  int duty = 1;  // duty period; 1 = every node decides every slot

  ChatterDecision decide(Slot slot, NodeId node) const {
    const auto s = static_cast<std::uint64_t>(slot) * 0x9E3779B97F4A7C15ull;
    ChatterDecision d;
    if (duty > 1 && static_cast<std::uint64_t>(node % duty) !=
                        chatter_mix(s) % static_cast<std::uint64_t>(duty))
      return d;  // asleep
    const std::uint64_t h = chatter_mix(
        s + static_cast<std::uint64_t>(node) * 0xBF58476D1CE4E5B9ull);
    const std::uint64_t roll = h % 10;
    if (roll == 0) return d;  // idle
    d.mode = roll < 5 ? Mode::Broadcast : Mode::Listen;
    d.label = static_cast<LocalLabel>((h >> 8) % static_cast<std::uint64_t>(c));
    return d;
  }
};

inline Message chatter_msg(Slot slot, NodeId node) {
  Message m;
  m.type = MessageType::Data;
  m.a = slot * 1000 + node;
  return m;
}

// What each traffic side accumulates from feedback; must agree exactly
// between the per-node and batch runs.
struct ChatterTally {
  std::int64_t tx_success = 0;
  std::int64_t jammed = 0;
  std::int64_t received = 0;
  std::int64_t received_payload_sum = 0;

  bool operator==(const ChatterTally&) const = default;
};

class ChatterNode : public Protocol {
 public:
  ChatterNode(NodeId id, Chatter traffic, ChatterTally* tally)
      : id_(id), traffic_(traffic), tally_(tally) {}

  Action on_slot(Slot slot) override {
    const ChatterDecision d = traffic_.decide(slot, id_);
    switch (d.mode) {
      case Mode::Broadcast:
        return Action::broadcast(d.label, chatter_msg(slot, id_));
      case Mode::Listen:
        return Action::listen(d.label);
      case Mode::Idle:
        break;
    }
    return Action::idle();
  }

  void on_feedback(Slot, const SlotResult& result) override {
    if (result.jammed) ++tally_->jammed;
    if (result.tx_success) ++tally_->tx_success;
    tally_->received += static_cast<std::int64_t>(result.received.size());
    for (const Message& m : result.received) tally_->received_payload_sum += m.a;
  }

  bool done() const override { return false; }

 private:
  NodeId id_;
  Chatter traffic_;
  ChatterTally* tally_;
};

class ChatterClient : public BatchClient {
 public:
  ChatterClient(int n, Chatter traffic, Slot slots, ChatterTally* tally)
      : n_(n), traffic_(traffic), slots_(slots), tally_(tally) {}

  void begin_slot(Slot slot, std::span<Mode> mode,
                  std::span<LocalLabel> label) override {
    for (NodeId u = 0; u < n_; ++u) {
      const ChatterDecision d = traffic_.decide(slot, u);
      mode[static_cast<std::size_t>(u)] = d.mode;
      label[static_cast<std::size_t>(u)] = d.label;
    }
  }

  Message source_message(Slot slot, NodeId node) override {
    return chatter_msg(slot, node);
  }

  void end_slot(const BatchFeedback& fb) override {
    for (NodeId u = 0; u < n_; ++u) {
      const auto i = static_cast<std::size_t>(u);
      const std::uint8_t f = fb.flags[i];
      // A blanked node saw an empty SlotResult: ignore its other bits and
      // its rx view, exactly as the per-node path delivers it.
      if (f & slotflag::kFeedbackBlank) continue;
      if (f & slotflag::kJammed) ++tally_->jammed;
      if (f & slotflag::kTxSuccess) ++tally_->tx_success;
      const std::int32_t count = fb.rx_count[i];
      tally_->received += count;
      for (std::int32_t m = 0; m < count; ++m) {
        tally_->received_payload_sum +=
            fb.messages[static_cast<std::size_t>(fb.rx_offset[i] + m)].a;
      }
    }
    last_slot_ = fb.slot;
  }

  bool done() const override { return last_slot_ >= slots_; }

 private:
  int n_;
  Chatter traffic_;
  Slot slots_;
  Slot last_slot_ = 0;
  ChatterTally* tally_;
};

}  // namespace cogradio
