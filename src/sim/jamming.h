// n-uniform jamming adversaries (Section 7, Theorem 18).
//
// An n-uniform adversary partitions the nodes into arbitrary groups (here:
// every node individually) and each slot jams up to `budget` channels *per
// node*. A node whose current channel is jammed for it is cut off for the
// slot: it receives nothing and its transmission is lost. The adversary
// fixes its jam sets before the slot's coin flips, seeing only history —
// the standard adaptive-but-not-prescient adversary.
//
// With per-node budget k out of c channels, any pair of nodes retains at
// least c - 2k mutually unjammed channels each slot, which is exactly the
// dynamic cognitive-radio-network overlap guarantee under which Theorem 18
// transfers CogCast to the jammed multi-channel network. Experiment E12
// exercises that reduction against all three strategies below.
#pragma once

#include <deque>
#include <vector>

#include "sim/network.h"
#include "sim/types.h"
#include "util/rng.h"

namespace cogradio {

// Common budget bookkeeping: derived classes fill `jam_sets_` each slot.
class BudgetedJammer : public Jammer {
 public:
  BudgetedJammer(int num_nodes, int num_channels, int budget);

  int budget() const { return budget_; }
  bool is_jammed(NodeId node, Channel channel) const override;

  // Diagnostics for tests: the jam set fixed for `node` this slot.
  const std::vector<Channel>& jam_set(NodeId node) const;

 protected:
  void clear_jams();
  // Adds `channel` to `node`'s jam set; ignores overflow beyond the budget
  // (derived strategies should not exceed it, asserted in debug builds).
  void jam(NodeId node, Channel channel);

  int num_nodes_;
  int num_channels_;
  int budget_;

 private:
  std::vector<std::vector<Channel>> jam_sets_;  // per node, current slot
};

// Jams `budget` uniformly random channels per node, fresh every slot.
class RandomJammer : public BudgetedJammer {
 public:
  RandomJammer(int num_nodes, int num_channels, int budget, Rng rng);
  void begin_slot(Slot slot) override;

  // Cross-slot state is just the jam RNG; jam sets are per-slot scratch.
  void save_state(CheckpointWriter& w) const override;
  void restore_state(CheckpointReader& r) override;

 private:
  Rng rng_;
  std::vector<Channel> draw_;  // one node's draw, reused every node-slot
};

// Jams a sliding window of `budget` consecutive channels, the same window
// for every node, advancing one channel per slot (a scanning barrage).
class SweepJammer : public BudgetedJammer {
 public:
  SweepJammer(int num_nodes, int num_channels, int budget);
  void begin_slot(Slot slot) override;
};

// Jams, for each node, the most recent `budget` distinct channels that node
// was observed using — the strongest history-adaptive strategy against
// protocols with channel locality.
class ReactiveJammer : public BudgetedJammer {
 public:
  ReactiveJammer(int num_nodes, int num_channels, int budget);
  void begin_slot(Slot slot) override;
  void observe(Slot slot, std::span<const Channel> node_channels) override;

  // Cross-slot state is the per-node observation history.
  void save_state(CheckpointWriter& w) const override;
  void restore_state(CheckpointReader& r) override;

 private:
  std::vector<std::deque<Channel>> history_;  // recent distinct channels
};

}  // namespace cogradio
