#include "core/gossip.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/runtime.h"
#include "sim/checkpoint.h"

namespace cogradio {

GossipNode::GossipNode(NodeId id, int c, int n, Value rumor, Rng rng)
    : id_(id),
      c_(c),
      n_(n),
      rng_(rng),
      known_(static_cast<std::size_t>(n), false) {
  if (c < 1 || n < 1) throw std::invalid_argument("gossip: need c,n >= 1");
  known_[static_cast<std::size_t>(id)] = true;
  rumors_.emplace_back(id, rumor);
  known_count_ = 1;
  if (n_ == 1) completed_slot_ = 0;
}

Action GossipNode::on_slot(Slot /*slot*/) {
  const auto label =
      static_cast<LocalLabel>(rng_.below(static_cast<std::uint64_t>(c_)));
  // Fair push/pull coin: everyone holds rumors from slot one, so pure
  // pushing would leave no listeners.
  if (rng_.chance(0.5)) {
    Message m;
    m.type = MessageType::Value;
    m.payload.items = rumors_;
    m.payload.count = known_count_;
    return Action::broadcast(label, m);
  }
  return Action::listen(label);
}

void GossipNode::on_feedback(Slot slot, const SlotResult& result) {
  for (const Message& m : result.received) {
    if (m.type != MessageType::Value) continue;
    absorb(m.payload, slot);
  }
}

void GossipNode::absorb(const AggPayload& payload, Slot slot) {
  for (const auto& [origin, value] : payload.items) {
    if (origin < 0 || origin >= n_) continue;
    auto seen = known_[static_cast<std::size_t>(origin)];
    if (seen) continue;
    known_[static_cast<std::size_t>(origin)] = true;
    rumors_.emplace_back(origin, value);
    ++known_count_;
  }
  if (known_count_ == n_ && completed_slot_ == kNoSlot)
    completed_slot_ = slot;
}

void GossipNode::save_state(CheckpointWriter& w) const {
  w.section("goss");
  w.rng(rng_);
  w.u64(rumors_.size());
  for (const auto& [origin, value] : rumors_) {
    w.i64(origin);
    w.i64(value);
  }
  w.i64(completed_slot_);
}

void GossipNode::restore_state(CheckpointReader& r) {
  r.section("goss");
  r.rng(rng_);
  rumors_.clear();
  std::fill(known_.begin(), known_.end(), false);
  known_count_ = 0;
  const std::size_t len = r.length(16);
  rumors_.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    const NodeId origin = static_cast<NodeId>(r.i64());
    const Value value = static_cast<Value>(r.i64());
    if (origin < 0 || origin >= n_)
      throw CheckpointError("checkpoint rejected: gossip rumor origin " +
                            std::to_string(origin) + " out of range [0, " +
                            std::to_string(n_) + ")");
    rumors_.emplace_back(origin, value);
    if (!known_[static_cast<std::size_t>(origin)]) {
      known_[static_cast<std::size_t>(origin)] = true;
      ++known_count_;
    }
  }
  completed_slot_ = r.i64();
}

GossipOutcome run_gossip(ChannelAssignment& assignment,
                         std::span<const Value> values,
                         const GossipConfig& config) {
  const int n = assignment.num_nodes();
  if (static_cast<int>(values.size()) != n)
    throw std::invalid_argument("run_gossip: one rumor per node");

  const auto run = assemble<GossipNode>(
      assignment, Rng(config.seed), config.net, [&](NodeId u, Rng rng) {
        return std::make_unique<GossipNode>(
            u, assignment.channels_per_node(), n,
            values[static_cast<std::size_t>(u)], rng);
      });
  run.network->run(config.max_slots);

  GossipOutcome out;
  out.slots = run.network->now();
  out.stats = run.network->stats();
  out.completed = run.network->all_done();
  for (const auto& node : run.nodes)
    out.completed_slot.push_back(node->completed_slot());
  return out;
}

}  // namespace cogradio
