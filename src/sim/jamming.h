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

#include <span>
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
  std::span<const Channel> jam_set(NodeId node) const;

 protected:
  void clear_jams();
  // Adds `channel` to `node`'s jam set; ignores overflow beyond the budget
  // (derived strategies should not exceed it, asserted in debug builds).
  void jam(NodeId node, Channel channel);

  int num_nodes_;
  int num_channels_;
  int budget_;

 private:
  // This slot's jam sets: node u's is the first jam_count_[u] entries of
  // its `budget` entries in jams_, so filling them never allocates.
  std::vector<Channel> jams_;
  std::vector<int> jam_count_;
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

  // Cross-slot state is the per-node observation history, newest first.
  // Restore rejects a history longer than `budget`, a repeated channel or
  // a channel outside [0, C).
  void save_state(CheckpointWriter& w) const override;
  void restore_state(CheckpointReader& r) override;

 private:
  std::span<const Channel> history(NodeId node) const;

  // Each node's recent distinct channels, newest first: node u's are the
  // first history_len_[u] of its `budget` entries in history_.
  std::vector<Channel> history_;
  std::vector<int> history_len_;
};

}  // namespace cogradio
