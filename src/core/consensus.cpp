#include "core/consensus.h"

namespace cogradio {

ConsensusRule min_consensus() {
  return {AggOp::Min,
          [](const AggPayload& p, int /*n*/) { return p.combined; }};
}

ConsensusRule max_consensus() {
  return {AggOp::Max,
          [](const AggPayload& p, int /*n*/) { return p.combined; }};
}

ConsensusRule majority_consensus() {
  return {AggOp::Sum, [](const AggPayload& p, int n) {
            return static_cast<Value>(2 * p.combined >= n ? 1 : 0);
          }};
}

CogConsensusNode::CogConsensusNode(NodeId id, const ConsensusParams& params,
                                   bool is_source, Value proposal,
                                   ConsensusRule rule, Rng rng)
    : id_(id),
      params_(params),
      aggregation_end_(params.aggregation_end()),
      is_source_(is_source),
      rule_(std::move(rule)),
      cast_rng_(rng.split(2)),
      comp_(id, params.comp(), is_source, proposal, Aggregator(rule_.op),
            rng.split(1)) {}

Action CogConsensusNode::on_slot(Slot slot) {
  if (slot <= aggregation_end_) return comp_.on_slot(slot);

  if (!cast_.has_value()) {
    // Phase-B kickoff: the source fixes the decision from its aggregate;
    // everyone else prepares to be informed of a Data message.
    Message payload;
    payload.type = MessageType::Data;
    if (is_source_) {
      decision_ = rule_.decide(comp_.accumulated(), params_.n);
      payload.a = decision_;
      decided_ = true;
    }
    cast_.emplace(id_, params_.c, is_source_, payload, cast_rng_,
                  /*horizon=*/params_.cast().horizon());
  }
  return cast_->on_slot(slot - aggregation_end_);
}

void CogConsensusNode::on_feedback(Slot slot, const SlotResult& result) {
  if (slot <= aggregation_end_) {
    comp_.on_feedback(slot, result);
    return;
  }
  cast_->on_feedback(slot - aggregation_end_, result);
  if (!decided_ && cast_->informed()) {
    decision_ = cast_->payload().a;
    decided_ = true;
  }
}

}  // namespace cogradio
