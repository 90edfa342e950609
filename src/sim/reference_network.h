// The slot model of Section 2 written out to be read against the paper and
// docs/DETERMINISM.md, not to be fast: the reference the engine in
// sim/network.h is diffed against, bit for bit (the differential tests,
// `cograd check` and the smoke_e35_layouts bench smoke). One slot:
//   1. the assignment advances; the jammer and the fault engine fix this
//      slot's jam sets and fault flags from history alone;
//   2. every node picks an action, in node order, and a fault may override
//      it: a churned-out radio idles, a babbling one broadcasts garbage on
//      its stuck label, a mute one listens where it meant to broadcast;
//   3. each acting node's label becomes a physical channel, and a node the
//      jammer cut off from that channel drops out;
//   4. channels resolve in ascending order. OneWinner lands one uniformly
//      chosen broadcast (decay backoff, when emulated, may land none),
//      AllDelivered lands all, CollisionLoss only a lone one. Every other
//      node on the channel hears what landed; under OneWinner each copy
//      fades with probability loss_prob. A receiver a fault silenced gets
//      no copy and spends no coin;
//   5. every node gets its SlotResult, in node order, blank when a fault
//      drops its feedback.
// Unlike Network it allocates every slot, groups with an ordered map,
// counts all six NodeActivity fields (Network derives idle on read), and
// reads only the model fields of NetworkOptions, never the testonly hooks.
// It drives per-node Protocols only and keeps no checkpoint state.
#pragma once

#include <vector>

#include "sim/network.h"

namespace cogradio {

class ReferenceNetwork {
 public:
  // As for Network: `protocols[i]` is node i, and nothing is owned.
  ReferenceNetwork(ChannelAssignment& assignment,
                   std::vector<Protocol*> protocols,
                   NetworkOptions options = {});

  void set_jammer(Jammer* jammer) { jammer_ = jammer; }
  // Throws std::invalid_argument unless the engine fits, as Network does.
  void set_fault_engine(FaultEngine* engine) {
    if (engine != nullptr)
      check_fault_engine_fits(*engine, num_nodes(),
                              assignment_.channels_per_node());
    fault_engine_ = engine;
  }
  void set_observer(Network::SlotObserver observer) {
    observer_ = std::move(observer);
  }

  int num_nodes() const { return static_cast<int>(protocols_.size()); }
  Slot now() const { return stats_.slots; }
  const TraceStats& stats() const { return stats_; }
  NodeActivity activity(NodeId node) const {
    return activity_[static_cast<std::size_t>(node)];
  }

  bool all_done() const;
  void step();
  Slot run(Slot max_slots);

 private:
  // A channel's unjammed nodes, each list in ascending node order.
  struct Group {
    std::vector<NodeId> broadcasters;
    std::vector<NodeId> listeners;
  };

  std::uint8_t apply_faults(NodeId node, Action& action);
  void resolve(const Group& group, const std::vector<Message>& sent,
               std::vector<ResolvedAction>& acts,
               std::vector<std::vector<Message>>& heard);

  ChannelAssignment& assignment_;
  std::vector<Protocol*> protocols_;
  NetworkOptions options_;
  Rng rng_;
  Jammer* jammer_ = nullptr;
  FaultEngine* fault_engine_ = nullptr;
  Network::SlotObserver observer_;
  TraceStats stats_;
  std::vector<NodeActivity> activity_;
};

}  // namespace cogradio
