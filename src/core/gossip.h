// CogGossip — all-to-all rumor spreading, the symmetric generalization of
// local broadcast.
//
// In local broadcast one source knows the message; in gossip *every* node
// starts with its own rumor and must learn everyone else's (this directly
// yields aggregation at all nodes simultaneously, one of the "many
// theoretical tasks" the paper's introduction gestures at). The protocol
// keeps CogCast's obliviousness: every slot each node picks a uniformly
// random local channel and flips a fair coin to broadcast its *entire
// current rumor set* or listen; listeners merge whatever they hear.
// The fair coin is necessary — with everyone informed from slot one,
// someone must be listening for any transfer to happen.
//
// Under the one-winner model each meeting transfers a full set, so rumor
// counts at meeting nodes jump (push of many rumors at once); completion
// — every node holding all n rumors — takes O((c/k_eff)(lg n) + diameter
// effects) meetings per node and is measured by experiment E26 against
// the repeated-CogCast baseline (n sequential broadcasts).
#pragma once

#include <vector>

#include "agg/aggregate.h"
#include "sim/assignment.h"
#include "sim/network.h"
#include "sim/protocol.h"
#include "util/rng.h"

namespace cogradio {

class GossipNode : public Protocol {
 public:
  // `rumor` is this node's own value; rumors are tracked as (origin id,
  // value) pairs and merged set-wise.
  GossipNode(NodeId id, int c, int n, Value rumor, Rng rng);

  Action on_slot(Slot slot) override;
  void on_feedback(Slot slot, const SlotResult& result) override;
  // Done once all n rumors are known.
  bool done() const override { return known_count_ == n_; }

  NodeId id() const { return id_; }
  int known_count() const { return known_count_; }
  bool knows(NodeId origin) const {
    return known_[static_cast<std::size_t>(origin)];
  }
  // The rumors as (origin, value) pairs, unordered.
  const std::vector<std::pair<NodeId, Value>>& rumors() const {
    return rumors_;
  }
  Slot completed_slot() const { return completed_slot_; }

  // --- Checkpoint/restore (sim/checkpoint.h) ---
  // Cross-slot state: RNG, rumor set (origin/value pairs; `known_` and
  // `known_count_` are rebuilt from it), completion slot.
  bool checkpointable() const override { return true; }
  void save_state(CheckpointWriter& w) const override;
  void restore_state(CheckpointReader& r) override;

 private:
  void absorb(const AggPayload& payload, Slot slot);

  NodeId id_;
  int c_;
  int n_;
  Rng rng_;
  std::vector<bool> known_;
  std::vector<std::pair<NodeId, Value>> rumors_;
  int known_count_ = 0;
  Slot completed_slot_ = kNoSlot;
};

struct GossipOutcome {
  bool completed = false;  // every node knows every rumor
  Slot slots = 0;
  TraceStats stats;
  std::vector<Slot> completed_slot;  // per node
};

struct GossipConfig {
  std::uint64_t seed = 1;
  Slot max_slots = 1'000'000;
  // Engine knobs (collision model, fading, ...). The run's RNG seed is
  // still derived from `seed` above.
  NetworkOptions net{};
};

// Runs gossip with rumor values `values` (one per node).
GossipOutcome run_gossip(ChannelAssignment& assignment,
                         std::span<const Value> values,
                         const GossipConfig& config);

}  // namespace cogradio
