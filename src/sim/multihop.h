// Multi-hop radio engine: the paper's channel model composed with a
// connectivity graph.
//
// Reception rule (the standard collision-loss radio-network model used by
// the multi-hop CRN literature the paper cites, [14]/[20]): a listener u
// tuned to physical channel q receives a message iff *exactly one* of its
// graph neighbors broadcasts on q in that slot. Two or more broadcasting
// neighbors collide at u and u hears nothing (no collision detection);
// non-neighbors are out of radio range and never interfere.
//
// Unlike the single-hop engine, there is no global per-channel winner and
// a broadcaster gets no meaningful delivery feedback (tx_success is always
// false) — real multi-hop radios do not know who heard them. Protocols for
// this engine must therefore manage contention themselves (see
// core/multihop_cast.h, which uses cycling-decay transmit probabilities).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "sim/assignment.h"
#include "sim/network.h"  // ResolvedAction / SlotObserver, shared engines
#include "sim/protocol.h"
#include "sim/topology.h"
#include "sim/trace.h"

namespace cogradio {

class MultihopNetwork {
 public:
  // `assignment` supplies per-node channels exactly as in the single-hop
  // model; `topology` defines who can hear whom. Non-owning protocols,
  // one per node; all three must agree on n.
  MultihopNetwork(ChannelAssignment& assignment, const Topology& topology,
                  std::vector<Protocol*> protocols);

  int num_nodes() const { return static_cast<int>(protocols_.size()); }
  Slot now() const { return stats_.slots; }
  const TraceStats& stats() const { return stats_; }
  const NodeActivity& activity(NodeId node) const {
    return activity_[static_cast<std::size_t>(node)];
  }

  // Observer invoked after each slot with the resolved actions, exactly as
  // in the single-hop engine (tx_success is always false here — multi-hop
  // broadcasters get no delivery feedback). Lets ExecutionRecorder pin
  // deterministic replay down for the multi-hop protocols too.
  void set_observer(Network::SlotObserver observer) {
    observer_ = std::move(observer);
  }

  bool all_done() const;
  void step();
  Slot run(Slot max_slots);

 private:
  ChannelAssignment& assignment_;
  const Topology& topology_;
  std::vector<Protocol*> protocols_;
  TraceStats stats_;
  std::vector<NodeActivity> activity_;

  Network::SlotObserver observer_;

  // Per-slot scratch.
  std::vector<Channel> channel_of_;   // kNoChannel when idle
  std::vector<char> broadcasting_;
  std::vector<Message> messages_;
  std::vector<ResolvedAction> resolved_;  // observer view
};

// NodeActivity comes from the single-hop engine's header.

}  // namespace cogradio
