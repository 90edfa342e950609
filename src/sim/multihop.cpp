#include "sim/multihop.h"

#include <cassert>
#include <stdexcept>

namespace cogradio {

MultihopNetwork::MultihopNetwork(ChannelAssignment& assignment,
                                 const Topology& topology,
                                 std::vector<Protocol*> protocols)
    : assignment_(assignment),
      topology_(topology),
      protocols_(std::move(protocols)),
      activity_(protocols_.size()) {
  if (protocols_.empty())
    throw std::invalid_argument("multihop: need at least one protocol");
  if (static_cast<int>(protocols_.size()) != assignment_.num_nodes() ||
      topology_.num_nodes() != assignment_.num_nodes())
    throw std::invalid_argument(
        "multihop: assignment/topology/protocol sizes must agree");
  for (const Protocol* p : protocols_)
    if (p == nullptr) throw std::invalid_argument("multihop: null protocol");
}

bool MultihopNetwork::all_done() const {
  for (const Protocol* p : protocols_)
    if (!p->done()) return false;
  return true;
}

void MultihopNetwork::step() {
  const Slot slot = stats_.slots + 1;
  const auto n = protocols_.size();
  assignment_.begin_slot(slot);

  channel_of_.assign(n, kNoChannel);
  broadcasting_.assign(n, 0);
  messages_.assign(n, Message{});

  if (observer_) {
    resolved_.assign(n, ResolvedAction{});
    for (std::size_t i = 0; i < n; ++i)
      resolved_[i].node = static_cast<NodeId>(i);
  }

  // 1. Collect actions.
  for (std::size_t i = 0; i < n; ++i) {
    Action action = protocols_[i]->on_slot(slot);
    if (observer_) resolved_[i].mode = action.mode;
    if (action.mode == Mode::Idle) {
      ++stats_.idle_node_slots;
      ++activity_[i].idle;
      continue;
    }
    assert(action.channel >= 0 &&
           action.channel < assignment_.channels_per_node());
    channel_of_[i] =
        assignment_.global_channel(static_cast<NodeId>(i), action.channel);
    if (observer_) resolved_[i].channel = channel_of_[i];
    if (action.mode == Mode::Broadcast) {
      broadcasting_[i] = 1;
      messages_[i] = std::move(action.msg);
      messages_[i].sender = static_cast<NodeId>(i);
      ++stats_.broadcasts;
      ++activity_[i].tx;
    } else {
      ++activity_[i].listen;
    }
  }

  // 2. Receiver-side resolution: a listener hears the unique broadcasting
  //    neighbor on its channel, or nothing.
  for (std::size_t i = 0; i < n; ++i) {
    SlotResult result;
    result.tx_attempted = broadcasting_[i] != 0;
    if (channel_of_[i] != kNoChannel && !broadcasting_[i]) {
      int talkers = 0;
      std::size_t talker = 0;
      for (NodeId v : topology_.neighbors(static_cast<NodeId>(i))) {
        const auto j = static_cast<std::size_t>(v);
        if (broadcasting_[j] && channel_of_[j] == channel_of_[i]) {
          ++talkers;
          talker = j;
          if (talkers > 1) break;
        }
      }
      if (talkers == 1) {
        result.received = {&messages_[talker], 1};
        ++stats_.deliveries;
        ++activity_[i].received;
        ++stats_.successes;
      } else if (talkers > 1) {
        ++stats_.collision_events;  // collision at this receiver
      }
    }
    protocols_[i]->on_feedback(slot, result);
  }

  stats_.slots = slot;
  if (observer_) observer_(slot, resolved_);
}

Slot MultihopNetwork::run(Slot max_slots) {
  while (!all_done() && stats_.slots < max_slots) step();
  return stats_.slots;
}

}  // namespace cogradio
