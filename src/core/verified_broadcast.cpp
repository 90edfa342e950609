#include "core/verified_broadcast.h"

namespace cogradio {

VerifiedBroadcastNode::VerifiedBroadcastNode(
    NodeId id, const VerifiedBroadcastParams& params, bool is_source,
    Message payload, Rng rng)
    : id_(id),
      params_(params),
      broadcast_end_(params.broadcast_end()),
      is_source_(is_source),
      comp_rng_(rng.split(2)),
      cast_(id, params.c, is_source, std::move(payload), rng.split(1),
            /*horizon=*/broadcast_end_) {}

Action VerifiedBroadcastNode::on_slot(Slot slot) {
  if (slot <= broadcast_end_) return cast_.on_slot(slot);
  if (!comp_.has_value()) {
    // Verification round: every node contributes 1 iff it is informed.
    comp_.emplace(id_, CogCompParams{params_.n, params_.c, params_.k,
                                     params_.gamma},
                  is_source_, cast_.informed() ? 1 : 0, Aggregator(AggOp::Sum),
                  comp_rng_);
  }
  return comp_->on_slot(slot - broadcast_end_);
}

void VerifiedBroadcastNode::on_feedback(Slot slot, const SlotResult& result) {
  if (slot <= broadcast_end_) {
    cast_.on_feedback(slot, result);
    return;
  }
  comp_->on_feedback(slot - broadcast_end_, result);
}

bool VerifiedBroadcastNode::done() const {
  return comp_.has_value() && comp_->done();
}

std::int64_t VerifiedBroadcastNode::certified_informed() const {
  if (!comp_.has_value() || !is_source_) return 0;
  // Sum of informed flags over the nodes covered by the aggregation.
  return Aggregator(AggOp::Sum).result(comp_->accumulated());
}

bool VerifiedBroadcastNode::verified() const {
  return is_source_ && comp_.has_value() && comp_->complete() &&
         certified_informed() == params_.n;
}

}  // namespace cogradio
