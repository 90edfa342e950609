// Channel-assignment generators — the unknown overlap patterns that the
// paper's analysis quantifies over (Section 2, Claim 2, Theorem 16).
//
// An assignment decides, for every node and every slot, which physical
// channel stands behind each of the node's c local labels. All generators
// maintain the model invariant: every node has exactly c distinct channels
// and every pair of nodes overlaps on at least k physical channels (in
// every slot, for dynamic assignments).
//
// Implemented patterns (see DESIGN.md §2 for the mapping to paper claims):
//   SharedCore          k common channels + random private tails
//   Partitioned         Theorem 16 setup: C = k + n(c-k), disjoint tails
//   PigeonholeRandom    random c-subsets of C = 2c-k (overlap >= k forced)
//   Identity            all nodes share channels 0..c-1 (k = c extreme)
//   DynamicAssignment   SharedCore or Pigeonhole re-drawn independently
//                       every slot
//   AdaptiveAdversary   re-labels per slot to dodge a predicted choice
//                       (Theorem 17 demonstration)
//
// Table format. Every table-backed assignment (the four static generators,
// DynamicAssignment, AdaptiveAdversary, and the Markov spectrum of
// sim/spectrum.h) stores its whole label map as ONE flat
// node-major vector of n*c channels: entry node*c + label is the physical
// channel behind `label` at `node`. table() lends that vector to the
// engine, which indexes it directly instead of copying it or calling
// global_channel per node (sim/network.h).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/labels.h"
#include "sim/types.h"
#include "util/huge_pages.h"
#include "util/rng.h"

namespace cogradio {

// Abstract mapping from (node, local label) to physical channel, advanced
// slot by slot. `begin_slot` is invoked by the network exactly once per
// slot, before any node acts; static assignments ignore it.
class ChannelAssignment {
 public:
  virtual ~ChannelAssignment() = default;

  ChannelAssignment(const ChannelAssignment&) = delete;
  ChannelAssignment& operator=(const ChannelAssignment&) = delete;

  int num_nodes() const { return n_; }
  int channels_per_node() const { return c_; }
  int total_channels() const { return total_channels_; }
  int min_overlap() const { return k_; }

  virtual bool is_dynamic() const { return false; }
  virtual void begin_slot(Slot slot) { (void)slot; }

  // Physical channel behind `label` for `node` in the current slot.
  // Preconditions: 0 <= node < n, 0 <= label < c.
  virtual Channel global_channel(NodeId node, LocalLabel label) const = 0;

  // The current slot's label map in the flat node-major format (file
  // comment): n*c entries, table()[node*c + label] ==
  // global_channel(node, label). The span stays valid until the next
  // begin_slot. Empty (the default) means the assignment keeps no such
  // table, and callers must ask global_channel instead.
  virtual std::span<const Channel> table() const { return {}; }

  // Diagnostics/verification: the node's full physical channel set this
  // slot, and pairwise overlap size. Not visible to protocols.
  std::vector<Channel> channel_set(NodeId node) const;
  int overlap(NodeId u, NodeId v) const;
  // Smallest pairwise overlap across all node pairs this slot (O(n^2 c)).
  int min_overlap_actual() const;

 protected:
  ChannelAssignment(int n, int c, int k, int total_channels);

  int n_;
  int c_;
  int k_;
  int total_channels_;
};

// Validates a channel-universe size C that a generator computed in 64
// bits from its shape (e.g. k + n(c-k)) and returns it as an int; throws
// std::invalid_argument, naming `who`, when C exceeds Channel's range, so
// no outside shape reaches signed overflow or a table allocation.
int checked_total_channels(std::int64_t total, const char* who);

// Base for assignments backed by an explicit labels->channel table, kept
// in the flat node-major format and lent out through table().
class TableAssignment : public ChannelAssignment {
 public:
  Channel global_channel(NodeId node, LocalLabel label) const override;
  std::span<const Channel> table() const override { return table_; }

 protected:
  // Validates the shape, then sizes the n*c table for the generator to
  // draw into.
  TableAssignment(int n, int c, int k, int total_channels);

  // `node`'s c entries of table_.
  std::span<Channel> row(NodeId node);

  // table_[node*c + label] = physical channel. On huge pages
  // (util/huge_pages.h): the engine reads one scattered entry per active
  // node per slot.
  HugePageVector<Channel> table_;
};

// --- Static generators ----------------------------------------------------

// k core channels shared by everyone + (c-k) random channels per node drawn
// from the remaining C-k. Requires C >= c (defaults to C = 2c).
// `low_core` pins the core to channels 0..k-1 instead of a random draw —
// under LabelMode::Global the shared channels then occupy the lowest label
// ranks at every node (used by the E30 bias-alignment ablation).
class SharedCoreAssignment : public TableAssignment {
 public:
  SharedCoreAssignment(int n, int c, int k, LabelMode labels, Rng rng,
                       int total_channels = 0, bool low_core = false);
};

// The Theorem 16 setup: C = k + n(c-k); k shared channels chosen at random,
// the rest partitioned into n disjoint private blocks of size c-k. Pairwise
// overlap is exactly k.
class PartitionedAssignment : public TableAssignment {
 public:
  PartitionedAssignment(int n, int c, int k, LabelMode labels, Rng rng);
};

// Every node independently draws a uniformly random c-subset of
// C = 2c - k channels; any two c-subsets then overlap on >= k channels by
// pigeonhole, while actual overlaps vary from pair to pair.
class PigeonholeAssignment : public TableAssignment {
 public:
  PigeonholeAssignment(int n, int c, int k, LabelMode labels, Rng rng);
};

// All nodes hold exactly channels 0..c-1 (so k = c). The degenerate
// maximum-overlap extreme; also handy for unit tests.
class IdentityAssignment : public TableAssignment {
 public:
  IdentityAssignment(int n, int c, LabelMode labels, Rng rng);
};

// --- Dynamic assignments (Section 7 discussion) ----------------------------

// Draws an independent static assignment every slot, modelling the dynamic
// model in which channel availability changes over time while the
// pairwise-k invariant is preserved slot by slot. Each begin_slot
// overwrites the one table in place with the draw the static generator
// (with LabelMode::LocalRandom) makes from the slot's stream, which
// derives purely from (seed, slot): entering a slot again reproduces it,
// and once the draw buffers have grown no slot allocates.
class DynamicAssignment : public TableAssignment {
 public:
  enum class Pattern : std::uint8_t { SharedCore, Pigeonhole };

  DynamicAssignment(int n, int c, int k, Pattern pattern, Rng rng);

  bool is_dynamic() const override { return true; }
  void begin_slot(Slot slot) override;

  // Convenience constructors for the two patterns.
  static std::unique_ptr<DynamicAssignment> shared_core(int n, int c, int k,
                                                        Rng rng);
  static std::unique_ptr<DynamicAssignment> pigeonhole(int n, int c, int k,
                                                       Rng rng);

 private:
  Pattern pattern_;
  std::uint64_t seed_;
  std::vector<std::int32_t> sample_;  // the draws' sampler buffer
  std::vector<Channel> rest_;         // shared-core: channels off the core
};

// Adversarial dynamic assignment for the Theorem 17 demonstration.
//
// Layout is the Partitioned one (k shared channels, disjoint private
// blocks), but each slot the adversary re-labels every node's channels so
// that the label the node is *predicted* to pick maps to a private channel
// — on which nobody else can hear it. Against a deterministic algorithm
// the prediction is exact and broadcast never completes; against CogCast
// the prediction is a blind guess, so a random label still lands on a
// shared channel with probability >= k/c and broadcast goes through.
// Each begin_slot rewrites the table in place.
class AdaptiveAdversaryAssignment : public TableAssignment {
 public:
  // `predictor(node, slot)` returns the label the adversary expects `node`
  // to use in `slot` (return kNoChannel to skip dodging that node).
  using Predictor = std::function<LocalLabel(NodeId, Slot)>;

  AdaptiveAdversaryAssignment(int n, int c, int k, Predictor predictor,
                              Rng rng);

  bool is_dynamic() const override { return true; }
  void begin_slot(Slot slot) override;

 private:
  Predictor predictor_;
  Rng rng_;
};

// --- Named factory ----------------------------------------------------------

// Builds a static assignment by pattern name: "shared-core", "partitioned",
// "pigeonhole", "identity". Used by examples/benches to sweep patterns.
std::unique_ptr<ChannelAssignment> make_assignment(const std::string& pattern,
                                                   int n, int c, int k,
                                                   LabelMode labels, Rng rng);

// All static pattern names accepted by make_assignment (excluding
// "identity", whose k is pinned to c), in a stable order for sweeps.
const std::vector<std::string>& static_pattern_names();

}  // namespace cogradio
