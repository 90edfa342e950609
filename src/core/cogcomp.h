// COGCOMP — data aggregation over the CogCast distribution tree
// (Section 5 of the paper).
//
// Every node holds a value; the source must learn the aggregate. CogComp
// runs in four phases over O((c/k) * max{1, c/n} * lg n + n) slots:
//
//   Phase 1 (CogCast):  the source floods INIT; each node's first informer
//       becomes its parent, implicitly building the *distribution tree*.
//       Every node logs its per-slot actions for replay.
//   Phase 2 (n slots):  each non-source node returns to the channel on
//       which it was informed and announces <id, r> until its broadcast
//       succeeds, then keeps listening. Everyone on a channel thus hears
//       every announcement exactly once, so each node learns the size of
//       its own (r, c)-cluster — and the full per-cluster census of its
//       channel, from which the *mediator* (minimum-id member of the
//       latest-informed cluster) self-identifies (Lemma 7).
//   Phase 3 (rewind of phase 1): in slot i each node returns to the channel
//       it used in phase-1 slot l-i+1; first-time-informed nodes broadcast
//       their cluster size, phase-1 successful broadcasters listen — so
//       every informer learns the size of each cluster it created
//       (Lemma 9).
//   Phase 4 (3-slot steps): per channel, the mediator serializes clusters
//       in descending r. Step layout: slot 1 mediator polls r'; slot 2
//       ready senders of cluster r' broadcast their subtree aggregate;
//       slot 3 the receiving informer acknowledges the delivered sender.
//       Receivers collect their clusters in descending r, then turn into
//       senders; mediators keep serving until their channel drains.
//       Theorem 10 bounds this phase by O(n) steps.
//
// Given a phase 1 that informed everyone, phases 2-4 are deterministic
// successes in this collision model — the test suite checks exact
// aggregates, cluster censuses and mediator uniqueness on randomized
// topologies.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "agg/aggregate.h"
#include "core/cogcast.h"
#include "sim/protocol.h"

namespace cogradio {

struct CogCompParams {
  int n = 0;
  int c = 0;
  int k = 0;
  double gamma = 4.0;  // CogCast constant for phase 1

  // Design-choice ablation (experiment E27): with `mediated` false, phase 4
  // runs WITHOUT mediators — 2-slot steps (data, ack) in which every ready
  // sender fires with probability `fire_prob` instead of waiting for a
  // poll. Still exact (the receiver only accepts and acks its current
  // cluster), but senders from clusters whose informer is elsewhere can win
  // a channel and waste the step — exactly the contention the paper's
  // mediator mechanism exists to avoid (Section 5 overview: "one might
  // imagine being delayed by Theta(n/c) time at each level").
  bool mediated = true;
  double fire_prob = 0.5;

  Slot phase1_end() const {
    return CogCastParams{n, c, k, gamma}.horizon();
  }
  Slot phase2_end() const { return phase1_end() + n; }
  Slot phase3_end() const { return phase2_end() + phase1_end(); }
  int step_slots() const { return mediated ? 3 : 2; }
  // Mediated phase 4 needs at most ~3(n+1) slots (Theorem 10); doubled for
  // margin. The unmediated ablation has no such bound — its budget is a
  // generous contention allowance, and runs exceeding it are reported as
  // incomplete rather than wrong.
  Slot max_slots() const {
    return phase3_end() + (mediated ? 6 * (static_cast<Slot>(n) + 4)
                                    : 80 * (static_cast<Slot>(n) + 8));
  }
};

class CogCompNode : public Protocol {
 public:
  CogCompNode(NodeId id, const CogCompParams& params, bool is_source,
              Value value, Aggregator aggregator, Rng rng);

  // --- Protocol interface ---
  Action on_slot(Slot slot) override;
  void on_feedback(Slot slot, const SlotResult& result) override;
  bool done() const override { return done_; }

  // --- State queries ---
  NodeId id() const { return id_; }
  bool is_source() const { return is_source_; }
  bool informed() const { return cast_.informed(); }
  NodeId parent() const { return cast_.parent(); }
  Slot informed_slot() const { return cast_.informed_slot(); }
  LocalLabel informed_label() const { return cast_.informed_label(); }

  // Phase-2 products (valid after phase 2).
  std::int64_t my_cluster_size() const { return my_cluster_size_; }
  bool is_mediator() const { return mediator_; }
  // (r, size) of each cluster on this node's channel, descending r —
  // populated for every node on the channel, authoritative at the mediator.
  const std::vector<std::pair<Slot, std::int64_t>>& channel_census() const {
    return mediator_clusters_;
  }

  // Phase-3 products: the clusters this node informed, descending r.
  struct InformedCluster {
    Slot r = kNoSlot;
    LocalLabel label = kNoChannel;
    std::int64_t size = 0;
  };
  const std::vector<InformedCluster>& informed_clusters() const {
    return informed_clusters_;
  }

  // Phase-4 products.
  bool delivered() const { return delivered_; }  // non-source: sent to parent
  // The subtree aggregate this node accumulated (the final answer at the
  // source once done()).
  const AggPayload& accumulated() const { return acc_; }
  // Source only: true when the aggregate provably covers all n nodes.
  bool complete() const {
    return is_source_ && done_ && acc_.count == static_cast<std::int64_t>(n_);
  }

  // --- Checkpoint/restore (sim/checkpoint.h) ---
  // Serializes the phase-1 delegate plus all phase 2-4 machinery: cluster
  // censuses, mediator role, collection cursors and the running aggregate.
  // Restore targets a fresh node with the same constructor arguments.
  bool checkpointable() const override { return true; }
  void save_state(CheckpointWriter& w) const override;
  void restore_state(CheckpointReader& r) override;

 private:
  enum class Role : std::uint8_t { Receiver, Sender, Finished };

  void begin_phase2();
  void begin_phase3();
  void begin_phase4();
  Action phase2_action();
  Action phase3_action(Slot slot);
  Action phase4_action(Slot slot);
  Action phase4_action_unmediated(Slot slot);
  void phase2_feedback(const SlotResult& result);
  void phase3_feedback(Slot slot, const SlotResult& result);
  void phase4_feedback(Slot slot, const SlotResult& result);
  void phase4_feedback_unmediated(Slot slot, const SlotResult& result);
  void receiver_ack_committed();
  void advance_collect();
  int step_offset(Slot slot) const;  // offset within a phase-4 step
  bool mediator_active() const {
    return mediator_ && duties_started_ && med_idx_ < mediator_clusters_.size();
  }

  NodeId id_;
  CogCompParams params_;
  int n_;
  // The phase ends, which (n, c, k, gamma) fix through Theorem 4's
  // horizon: worked out once here, read by every callback.
  Slot phase1_end_;
  Slot phase2_end_;
  Slot phase3_end_;
  bool is_source_;
  Value value_;
  Aggregator aggregator_;
  CogCastNode cast_;  // phase-1 delegate (records history)
  Rng rng_phase4_;    // sender fire coin for the unmediated ablation

  // Phase 2.
  bool phase2_started_ = false;
  bool announced_ = false;
  struct ClusterTally {
    std::int64_t size = 0;
    NodeId min_id = kNoNode;
  };
  std::map<Slot, ClusterTally> channel_clusters_;  // by r, on my channel
  std::int64_t my_cluster_size_ = 0;

  // Derived at phase-2 end.
  bool phase3_started_ = false;
  bool mediator_ = false;
  std::vector<std::pair<Slot, std::int64_t>> mediator_clusters_;  // desc r

  // Phase 3.
  std::vector<InformedCluster> informed_clusters_;  // desc r
  LocalLabel phase3_label_ = kNoChannel;
  bool phase3_listening_ = false;

  // Phase 4.
  bool phase4_started_ = false;
  Role role_ = Role::Receiver;
  std::size_t collect_idx_ = 0;
  std::int64_t collect_count_ = 0;
  AggPayload acc_;
  bool send_pending_ = false;
  bool sent_this_step_ = false;
  NodeId pending_ack_ = kNoNode;
  bool delivered_ = false;
  bool duties_started_ = false;
  std::size_t med_idx_ = 0;
  std::int64_t med_delivered_ = 0;
  bool done_ = false;
};

}  // namespace cogradio
