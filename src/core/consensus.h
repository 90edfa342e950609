// Consensus from aggregation + broadcast (Section 1: "A solution to this
// problem can be used to solve many theoretical tasks (e.g., reaching
// consensus to maintain consistency)").
//
// CogConsensus is the natural composition the paper gestures at:
//
//   phase A (slots 1 .. CogCompParams::max_slots()):
//       CogComp aggregates every node's proposal at the source;
//   phase B (the following CogCastParams::horizon() slots):
//       the source applies a decision rule to the aggregate and floods the
//       decision with CogCast; each node decides on the value it receives.
//
// Both phase boundaries are fixed functions of (n, c, k, gamma), so the
// composition stays slot-synchronous without any extra coordination.
//
// Guarantees (inherited from Theorems 4 and 10, w.h.p.):
//   agreement    all decided nodes hold the same value (single source
//                decision, Data messages carry it verbatim);
//   validity     with the Min/Max rules the decision is some node's
//                proposal; with Majority (binary inputs) it is the
//                majority bit of all n proposals;
//   termination  within max_slots() = O((c/k) max{1,c/n} lg n + n) slots.
#pragma once

#include <functional>
#include <optional>

#include "core/cogcast.h"
#include "core/cogcomp.h"

namespace cogradio {

struct ConsensusParams {
  int n = 0;
  int c = 0;
  int k = 0;
  double gamma = 4.0;

  CogCompParams comp() const { return {n, c, k, gamma}; }
  CogCastParams cast() const { return {n, c, k, gamma}; }
  Slot aggregation_end() const { return comp().max_slots(); }
  Slot max_slots() const { return aggregation_end() + cast().horizon(); }
};

// Decision rules mapping the source's aggregate to the decided value.
// The rule must be paired with a compatible AggOp (see the factories).
using DecisionRule = std::function<Value(const AggPayload&, int n)>;

struct ConsensusRule {
  AggOp op;
  DecisionRule decide;
};

// Decide the minimum / maximum proposal (validity: some node's input).
ConsensusRule min_consensus();
ConsensusRule max_consensus();
// Binary inputs in {0,1}; decide the majority bit (ties -> 1).
ConsensusRule majority_consensus();

// Leader election is consensus on ids: every node proposes its own id
// under the Min rule; the decided value is the minimum id, agreed by all.
// Convenience helper constructing the proposal for `id`.
inline Value leader_election_proposal(NodeId id) {
  return static_cast<Value>(id);
}

class CogConsensusNode : public Protocol {
 public:
  CogConsensusNode(NodeId id, const ConsensusParams& params, bool is_source,
                   Value proposal, ConsensusRule rule, Rng rng);

  Action on_slot(Slot slot) override;
  void on_feedback(Slot slot, const SlotResult& result) override;
  bool done() const override { return decided_; }

  NodeId id() const { return id_; }
  bool decided() const { return decided_; }
  Value decision() const { return decision_; }
  // Diagnostics: whether the aggregation phase covered all n proposals at
  // the source (meaningful at the source only).
  bool aggregation_complete() const { return comp_.complete(); }

 private:
  NodeId id_;
  ConsensusParams params_;
  Slot aggregation_end_;  // params_.aggregation_end(), worked out once
  bool is_source_;
  ConsensusRule rule_;
  Rng cast_rng_;
  CogCompNode comp_;
  std::optional<CogCastNode> cast_;  // built at the phase-B boundary
  bool decided_ = false;
  Value decision_ = 0;
};

}  // namespace cogradio
