// Execution statistics collected by the network engine.
#pragma once

#include <array>
#include <cstdint>

#include "sim/types.h"

namespace cogradio {

struct TraceStats {
  Slot slots = 0;                      // slots executed
  std::int64_t broadcasts = 0;         // broadcast attempts (unjammed)
  std::int64_t successes = 0;          // broadcasts that won their channel
  std::int64_t deliveries = 0;         // message receptions by listeners
  std::int64_t collision_events = 0;   // (slot, channel) with >= 2 broadcasters
  std::int64_t jammed_node_slots = 0;  // node-slots cut off by the jammer
  std::int64_t idle_node_slots = 0;    // node-slots spent idle
  std::int64_t total_message_words = 0;  // sum of wire sizes of successes
  std::int64_t max_message_words = 0;    // largest single success

  // Populated only when the network emulates contention resolution with
  // decay backoff (NetworkOptions::emulate_backoff):
  std::int64_t micro_slots = 0;        // total micro-slots spent resolving
  std::int64_t backoff_failures = 0;   // channel-slots that failed to resolve

  // Populated only when a FaultEngine is attached (sim/fault_engine.h).
  // The per-kind counters tally node-slots with that fault active
  // (post-precedence); the remaining three tally the fault's observable
  // effects, which the invariant oracle re-derives per slot.
  std::int64_t fault_node_slots = 0;     // node-slots with any fault active
  std::int64_t churned_node_slots = 0;   // ... churned out (forced idle)
  std::int64_t deaf_node_slots = 0;
  std::int64_t mute_node_slots = 0;
  std::int64_t babble_node_slots = 0;
  std::int64_t feedback_drop_node_slots = 0;
  std::int64_t mute_demotions = 0;         // broadcasts demoted to listens
  std::int64_t feedback_drops = 0;         // SlotResults blanked at delivery
  std::int64_t suppressed_deliveries = 0;  // copies dropped at dead receivers

  // Field-wise equality, for the reference differential tests (the engine
  // and sim/reference_network.h must agree on every counter, bit for bit).
  bool operator==(const TraceStats&) const = default;
};

// Every TraceStats counter, in declaration order. The checkpoint codec,
// `cograd check`'s accounting digest and the supervised outcome file all
// walk this one list.
inline constexpr std::array<std::int64_t TraceStats::*, 20>
    kTraceStatsCounters{&TraceStats::slots,
                        &TraceStats::broadcasts,
                        &TraceStats::successes,
                        &TraceStats::deliveries,
                        &TraceStats::collision_events,
                        &TraceStats::jammed_node_slots,
                        &TraceStats::idle_node_slots,
                        &TraceStats::total_message_words,
                        &TraceStats::max_message_words,
                        &TraceStats::micro_slots,
                        &TraceStats::backoff_failures,
                        &TraceStats::fault_node_slots,
                        &TraceStats::churned_node_slots,
                        &TraceStats::deaf_node_slots,
                        &TraceStats::mute_node_slots,
                        &TraceStats::babble_node_slots,
                        &TraceStats::feedback_drop_node_slots,
                        &TraceStats::mute_demotions,
                        &TraceStats::feedback_drops,
                        &TraceStats::suppressed_deliveries};
static_assert(sizeof(TraceStats) ==
                  kTraceStatsCounters.size() * sizeof(std::int64_t),
              "kTraceStatsCounters must list every TraceStats counter");

// Per-node activity counters — the radio duty-cycle / energy profile
// (transmitting and listening are the expensive radio states; idling is
// ~free). Maintained for every node across a run by both network engines.
struct NodeActivity {
  std::int64_t tx = 0;          // broadcast attempts (unjammed)
  std::int64_t tx_success = 0;  // ... that won their channel (single-hop)
  std::int64_t listen = 0;      // listening slots (unjammed)
  std::int64_t received = 0;    // messages actually received
  std::int64_t idle = 0;        // slots not participating
  std::int64_t jammed = 0;      // slots cut off by the jammer

  // Simple energy model: TX and RX cost 1 unit per slot, idle is free.
  std::int64_t energy() const { return tx + listen; }

  bool operator==(const NodeActivity&) const = default;
};

}  // namespace cogradio
