// Slot-level invariant oracle for the single-hop engine.
//
// Every theorem-shaped claim in EXPERIMENTS.md rests on sim/network.cpp
// faithfully implementing the paper's Section 2 collision model, and the
// engine's hot path gets rewritten for speed (counting-sort grouping,
// scratch reuse, backoff emulation). InvariantChecker is the standing
// oracle those rewrites are verified against: it attaches to a Network as
// its slot observer and re-derives, from the resolved actions alone, what
// the model says must have happened — then checks the engine's stats and
// per-node activity ledgers against that, slot by slot.
//
// Checked every slot (see docs/MODEL.md "Checked invariants" for the
// mapping to the paper's Section 2 statements):
//   * at most one successful broadcaster per (slot, channel); exactly one
//     whenever the channel has any unjammed broadcaster (OneWinner), with
//     the backoff-emulation exception that a contended channel may fail to
//     resolve (counted in TraceStats::backoff_failures);
//   * jammed node-slots transmit nothing and win nothing;
//   * TraceStats accounting identities, incrementally (per-slot deltas
//     match the observed actions) and cumulatively (broadcasts ==
//     successes + failed broadcasts, every counter non-negative);
//   * NodeActivity identities per node (exactly one of tx/listen/idle/
//     jammed advances per slot; tx + listen + idle + jammed == slots;
//     energy == tx + listen);
//   * FaultEngine semantics when one is attached (sim/fault_engine.h): a
//     churned-out node idles, a babbler transmits on its stuck label, a
//     mute node never transmits, rx-dead receivers get no copies (with
//     TraceStats::suppressed_deliveries exact even under fading), blanked
//     feedback equals SlotResult{} field by field, and every per-kind
//     fault counter delta matches the flags on the resolved actions.
//
// With protocol *taps* installed (see tap()), the checker additionally
// sees the exact SlotResult each node was handed and verifies the
// delivery semantics end to end: a delivery happens iff the listener (or
// failed broadcaster) shares the physical channel with a unique unjammed
// successful broadcaster, the delivered message is the winner's, jammed
// and idle nodes hear nothing, and TraceStats::deliveries equals the
// number of messages actually received.
//
// The checker also folds the action stream (slot, node, mode, channel,
// jammed — deliberately excluding winner identity) into a fingerprint, so
// two executions that should agree on everything but coin flips (the
// plain and backoff-emulating engines driving oblivious traffic) can be
// compared exactly: util/proptest.h's differential property does so.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/network.h"

namespace cogradio {

// FNV-1a fold of (slot, node, mode, channel, jammed, fault flags) over a
// stream of resolved actions: the checker's, or that of a run observed
// without one (the reference leg of util/proptest.h).
class ActionFingerprint {
 public:
  void fold(Slot slot, std::span<const ResolvedAction> acts);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

class InvariantChecker {
 public:
  InvariantChecker();
  ~InvariantChecker();

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  // Wraps `inner` so the checker sees the exact SlotResult the network
  // hands the node, enabling the delivery-level checks. Call once per
  // node, in node-id order, *before* constructing the Network, and pass
  // the returned protocol (which forwards to `inner`) into the network's
  // protocol vector. Tapping is all-or-nothing: attach() rejects a
  // partial tap set. The checker owns the wrappers.
  Protocol* tap(Protocol& inner);

  // Installs the checker as `network`'s slot observer (replacing any
  // existing observer) and snapshots the current stats/activity so delta
  // checks start from here. If taps were created, their count must equal
  // the network's node count.
  void attach(Network& network);

  bool ok() const { return violations_ == 0; }
  std::int64_t violations() const { return violations_; }
  Slot slots_checked() const { return slots_checked_; }

  // First violation in "slot S: <what>" form; empty while ok().
  const std::string& first_violation() const { return first_violation_; }
  // The first few violations, one per line (empty while ok()).
  std::string report() const;

  // FNV-1a fold of (slot, node, mode, channel, jammed, fault flags) for
  // every action checked so far. Winner identity and deliveries are
  // excluded on purpose: oblivious traffic must produce the same
  // fingerprint on the plain and backoff-emulating engines for the same
  // seeds (fault schedules are engine-independent, so the flags fold in).
  std::uint64_t action_fingerprint() const { return action_fp_.value(); }

 private:
  class Tap;

  void check_slot(Slot slot, std::span<const ResolvedAction> acts);
  void fail(Slot slot, const std::string& what);

  Network* net_ = nullptr;
  std::vector<std::unique_ptr<Tap>> taps_;

  std::int64_t violations_ = 0;
  Slot slots_checked_ = 0;
  std::string first_violation_;
  std::vector<std::string> messages_;  // capped detail for report()
  ActionFingerprint action_fp_;

  TraceStats prev_;                         // last slot's stats snapshot
  std::vector<NodeActivity> prev_activity_; // last slot's activity snapshot
  std::int64_t failed_broadcasts_ = 0;      // cumulative broadcasts - successes
};

}  // namespace cogradio
