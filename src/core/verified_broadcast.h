// Verified broadcast: Result #2 certifying Result #1.
//
// CogCast gives no completion signal — the source never learns whether its
// message actually reached everyone (it only has the w.h.p. guarantee).
// Composing the paper's two results closes that gap: after a fixed CogCast
// budget, run CogComp with each node contributing informed ? 1 : 0 under
// Sum; the source's aggregate equals the number of informed nodes, so
// `count == n` is a *certificate* that the broadcast completed. (CogComp's
// phases are deterministic given its own phase 1, so if the verification
// round itself completes, the certificate is exact; if it does not, the
// source learns that too — verified() stays false.)
//
// Slot budget: CogCastParams::horizon() + CogCompParams::max_slots(),
// both fixed functions of (n, c, k, gamma), keeping the composition
// slot-synchronous with zero extra coordination.
#pragma once

#include <optional>

#include "core/cogcast.h"
#include "core/cogcomp.h"

namespace cogradio {

struct VerifiedBroadcastParams {
  int n = 0;
  int c = 0;
  int k = 0;
  double gamma = 4.0;

  Slot broadcast_end() const { return CogCastParams{n, c, k, gamma}.horizon(); }
  Slot max_slots() const {
    return broadcast_end() + CogCompParams{n, c, k, gamma}.max_slots();
  }
};

class VerifiedBroadcastNode : public Protocol {
 public:
  VerifiedBroadcastNode(NodeId id, const VerifiedBroadcastParams& params,
                        bool is_source, Message payload, Rng rng);

  Action on_slot(Slot slot) override;
  void on_feedback(Slot slot, const SlotResult& result) override;
  bool done() const override;

  // Broadcast-phase state.
  bool informed() const { return cast_.informed(); }
  const Message& payload() const { return cast_.payload(); }

  // Verification outcome (meaningful at the source once done()):
  // the number of nodes the certificate covers, and whether it equals n.
  std::int64_t certified_informed() const;
  bool verified() const;

 private:
  NodeId id_;
  VerifiedBroadcastParams params_;
  Slot broadcast_end_;  // params_.broadcast_end(), worked out once
  bool is_source_;
  Rng comp_rng_;
  CogCastNode cast_;
  std::optional<CogCompNode> comp_;  // built at the verification boundary
};

}  // namespace cogradio
