// Tests for the simulator-level fault engine (sim/fault_engine.h): window
// resolution and precedence, schedule determinism, the audit log, the
// per-kind radio semantics inside Network::step under every collision
// model, crashes and outages as Churn windows at the protocol boundary,
// that the invariant oracle actually polices each fault rule (via the
// testonly mutations), and the paper's robustness claim: the oblivious
// CogCast epidemic tolerates crashes and temporary outages.
#include "sim/fault_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/cogcast.h"
#include "sim/assignment.h"
#include "sim/invariants.h"
#include "sim/network.h"
#include "sim/reference_network.h"
#include "sim/skew.h"
#include "util/proptest.h"

namespace cogradio {
namespace {

using faultflag::kBabble;
using faultflag::kChurnedOut;
using faultflag::kDeaf;
using faultflag::kFeedbackDrop;
using faultflag::kMute;

// --- Engine semantics --------------------------------------------------------

TEST(FaultEngine, WindowsAreHalfOpenAndForeverIsSupported) {
  FaultEngine engine(2, 2, Rng(1));
  engine.add(0, FaultKind::Deaf, 5, 7);
  engine.add(1, FaultKind::Mute, 3);  // forever
  engine.begin_slot(4);
  EXPECT_EQ(engine.flags(0), 0);
  EXPECT_EQ(engine.flags(1), kMute);
  engine.begin_slot(5);
  EXPECT_EQ(engine.flags(0), kDeaf);
  engine.begin_slot(6);
  EXPECT_EQ(engine.flags(0), kDeaf);
  engine.begin_slot(7);
  EXPECT_EQ(engine.flags(0), 0);
  engine.begin_slot(1000);
  EXPECT_EQ(engine.flags(1), kMute);
}

TEST(FaultEngine, ChurnDominatesEveryOtherKind) {
  FaultEngine engine(1, 3, Rng(1));
  engine.add(0, FaultKind::Deaf, 1, 5);
  engine.add(0, FaultKind::Mute, 1, 5);
  engine.add(0, FaultKind::Babble, 1, 5);
  engine.add(0, FaultKind::FeedbackDrop, 1, 5);
  engine.add(0, FaultKind::Churn, 1, 5);
  engine.begin_slot(2);
  EXPECT_EQ(engine.flags(0), kChurnedOut);
  EXPECT_EQ(engine.babble_label(0), kNoChannel);
  // Post-precedence accounting: a network stepping the schedule tallies
  // only Churn.
  IdentityAssignment assignment(1, 3, LabelMode::Global, Rng(1));
  RandomTrafficNode node(3, Rng(4));
  Network net(assignment, {&node});
  net.set_fault_engine(&engine);
  net.step();
  EXPECT_EQ(net.stats().churned_node_slots, 1);
  EXPECT_EQ(net.stats().deaf_node_slots, 0);
  EXPECT_EQ(net.stats().babble_node_slots, 0);
}

TEST(FaultEngine, MuteBeatsBabble) {
  FaultEngine engine(1, 4, Rng(1));
  engine.add(0, FaultKind::Babble, 1, 5);
  engine.add(0, FaultKind::Mute, 1, 5);
  engine.begin_slot(1);
  EXPECT_EQ(engine.flags(0), kMute);
  EXPECT_EQ(engine.babble_label(0), kNoChannel);
  engine.begin_slot(5);  // both windows closed
  EXPECT_EQ(engine.flags(0), 0);
}

TEST(FaultEngine, BabbleLabelIsStuckAcrossTheWindow) {
  FaultEngine engine(1, 4, Rng(9));
  engine.add(0, FaultKind::Babble, 1, 100);
  engine.begin_slot(1);
  const LocalLabel label = engine.babble_label(0);
  ASSERT_NE(label, kNoChannel);
  EXPECT_GE(label, 0);
  EXPECT_LT(label, 4);
  for (Slot s = 2; s < 100; s += 17) {
    engine.begin_slot(s);
    EXPECT_EQ(engine.babble_label(0), label) << "slot " << s;
  }
}

TEST(FaultEngine, ValidatesArguments) {
  EXPECT_THROW(FaultEngine(0, 1, Rng(1)), std::invalid_argument);
  EXPECT_THROW(FaultEngine(1, 0, Rng(1)), std::invalid_argument);
  FaultEngine engine(2, 2, Rng(1));
  EXPECT_THROW(engine.add(2, FaultKind::Deaf, 1), std::invalid_argument);
  EXPECT_THROW(engine.add(-1, FaultKind::Deaf, 1), std::invalid_argument);
  EXPECT_THROW(engine.add(0, FaultKind::Deaf, 0), std::invalid_argument);
}

TEST(FaultEngine, LogRecordsOnsetAndClear) {
  FaultEngine engine(2, 2, Rng(1));
  engine.add(0, FaultKind::Deaf, 2, 4);
  engine.add(1, FaultKind::Churn, 3, 4);
  for (Slot s = 1; s <= 5; ++s) engine.begin_slot(s);
  ASSERT_EQ(engine.log().size(), 4u);
  EXPECT_EQ(engine.log()[0].slot, 2);
  EXPECT_EQ(engine.log()[0].node, 0);
  EXPECT_TRUE(engine.log()[0].onset);
  EXPECT_EQ(engine.log()[1].slot, 3);
  EXPECT_EQ(engine.log()[1].kind, FaultKind::Churn);
  EXPECT_FALSE(engine.log()[2].onset);  // deaf clears at 4
  EXPECT_FALSE(engine.log()[3].onset);  // churn clears at 4
  EXPECT_NE(engine.serialize_log().find("slot=2 node=0 kind=deaf onset"),
            std::string::npos);
  EXPECT_NE(engine.serialize_schedule().find("node=0 kind=deaf from=2 to=4"),
            std::string::npos);
}

TEST(FaultEngine, AddRandomIsDeterministicAndBudgeted) {
  const FaultProfile profile{1, 1, 1, 1, 1, 3, 5};
  FaultEngine a(10, 3, Rng(7));
  FaultEngine b(10, 3, Rng(7));
  a.add_random(profile, 50);
  b.add_random(profile, 50);
  EXPECT_EQ(a.serialize_schedule(), b.serialize_schedule());
  EXPECT_EQ(a.num_windows(), 5 + 3);  // five kind windows + burst of 3
  EXPECT_NE(a.last_burst_end(), kNoSlot);
  EXPECT_EQ(a.last_burst_end(), b.last_burst_end());
}

TEST(FaultEngine, AddRandomTruncatesWhenBudgetExceedsNodes) {
  FaultEngine engine(2, 2, Rng(3));
  engine.add_random(FaultProfile{3, 3, 3, 3, 3, 0, 0}, 20);
  EXPECT_EQ(engine.num_windows(), 2);  // the pool has only two nodes
}

// flagged() is the network's whole view of a slot's faults: it must list
// each node with non-zero flags() exactly once, and no other node, in
// every slot, including those where windows open, overlap and close.
TEST(FaultEngine, FlaggedListsEachFlaggedNodeExactlyOnce) {
  const int n = 40;
  const Slot horizon = 60;
  FaultEngine engine(n, 4, Rng(11));
  engine.add_random(FaultProfile{4, 4, 4, 4, 4, 6, 10}, horizon);
  // A burst over nodes that also hold random windows: one entry each.
  const std::vector<NodeId> burst{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  engine.add_burst(burst, 20, 15);
  std::int64_t listed = 0;
  for (Slot s = 1; s <= horizon + 5; ++s) {
    engine.begin_slot(s);
    std::vector<int> times(static_cast<std::size_t>(n), 0);
    for (const NodeId u : engine.flagged())
      ++times[static_cast<std::size_t>(u)];
    for (NodeId u = 0; u < n; ++u)
      ASSERT_EQ(times[static_cast<std::size_t>(u)], engine.flags(u) != 0)
          << "slot " << s << " node " << u;
    listed += static_cast<std::int64_t>(engine.flagged().size());
  }
  EXPECT_GT(listed, 0);
  // Windows closed inside the run, and past the horizon every one has.
  EXPECT_TRUE(std::any_of(engine.log().begin(), engine.log().end(),
                          [](const FaultEvent& e) { return !e.onset; }));
  EXPECT_TRUE(engine.flagged().empty());
}

TEST(FaultEngine, BurstChurnsExactlyTheGivenNodes) {
  FaultEngine engine(4, 2, Rng(3));
  const std::vector<NodeId> hit{1, 3};
  engine.add_burst(hit, 10, 5);
  EXPECT_EQ(engine.last_burst_end(), 15);
  engine.begin_slot(12);
  EXPECT_EQ(engine.flags(0), 0);
  EXPECT_EQ(engine.flags(1), kChurnedOut);
  EXPECT_EQ(engine.flags(2), 0);
  EXPECT_EQ(engine.flags(3), kChurnedOut);
  // A zero-length burst is a no-op.
  FaultEngine empty(4, 2, Rng(3));
  empty.add_burst(hit, 10, 0);
  EXPECT_EQ(empty.num_windows(), 0);
  EXPECT_EQ(empty.last_burst_end(), kNoSlot);
}

// --- Radio semantics inside Network::step ------------------------------------

// A scripted radio on label 0: one intent per slot, the last repeating.
// It records every call: the slots it was asked about, and each
// SlotResult field by field (the messages heard reduced to their types,
// since the span's storage dies with the slot).
class Script : public Protocol {
 public:
  explicit Script(Mode mode) : Script(std::vector<Mode>{mode}) {}
  explicit Script(std::vector<Mode> modes) : modes_(std::move(modes)) {}

  Action on_slot(Slot slot) override {
    slots_seen.push_back(slot);
    const Mode mode = modes_[std::min(slots_seen.size(), modes_.size()) - 1];
    if (mode == Mode::Broadcast) {
      Message m;
      m.type = MessageType::Data;
      return Action::broadcast(0, m);
    }
    if (mode == Mode::Listen) return Action::listen(0);
    return Action::idle();
  }
  void on_feedback(Slot slot, const SlotResult& r) override {
    feedback_slots.push_back(slot);
    jammed.push_back(r.jammed);
    tx_attempted.push_back(r.tx_attempted);
    tx_success.push_back(r.tx_success);
    std::vector<MessageType> types;
    for (const Message& m : r.received) types.push_back(m.type);
    received.push_back(std::move(types));
  }
  bool done() const override { return false; }

  // How many messages each feedback carried.
  std::vector<std::size_t> heard() const {
    std::vector<std::size_t> counts;
    for (const auto& types : received) counts.push_back(types.size());
    return counts;
  }

  std::vector<Slot> slots_seen, feedback_slots;
  std::vector<bool> jammed, tx_attempted, tx_success;
  std::vector<std::vector<MessageType>> received;

 private:
  std::vector<Mode> modes_;
};

// Two nodes on one shared channel (label == channel), slots 1..slots.
struct Pair {
  Pair(Mode a, Mode b)
      : assignment(2, 1, LabelMode::Global, Rng(1)),
        node_a(a),
        node_b(b),
        engine(2, 1, Rng(2)) {}

  void run(int slots) {
    NetworkOptions opt;
    opt.seed = 99;
    Network net(assignment, {&node_a, &node_b}, opt);
    net.set_fault_engine(&engine);
    for (int s = 0; s < slots; ++s) net.step();
    stats = net.stats();
  }

  IdentityAssignment assignment;
  Script node_a, node_b;
  FaultEngine engine;
  TraceStats stats;
};

TEST(FaultNetwork, ChurnForcesIdleAndBlanksFeedback) {
  Pair rig(Mode::Broadcast, Mode::Listen);
  rig.engine.add(0, FaultKind::Churn, 2, 4);
  rig.run(5);
  // The listener hears the broadcast except while the source is off.
  ASSERT_EQ(rig.node_b.received.size(), 5u);
  EXPECT_EQ(rig.node_b.received[0].size(), 1u);
  EXPECT_TRUE(rig.node_b.received[1].empty());
  EXPECT_TRUE(rig.node_b.received[2].empty());
  EXPECT_EQ(rig.node_b.received[3].size(), 1u);
  // The churned node learns nothing: blank feedback, no tx echo.
  EXPECT_EQ(rig.node_a.tx_attempted,
            (std::vector<bool>{true, false, false, true, true}));
  EXPECT_EQ(rig.stats.churned_node_slots, 2);
  EXPECT_EQ(rig.stats.fault_node_slots, 2);
  EXPECT_EQ(rig.stats.feedback_drops, 2);
}

TEST(FaultNetwork, BabbleContendsWithGarbageAndHearsNothing) {
  // The protocol asks for Idle every slot; the stuck radio broadcasts
  // anyway (c == 1, so the stuck label is the shared channel).
  Pair rig(Mode::Idle, Mode::Listen);
  rig.engine.add(0, FaultKind::Babble, 1, kNoSlot);
  rig.run(4);
  for (int s = 0; s < 4; ++s) {
    ASSERT_EQ(rig.node_b.received[static_cast<std::size_t>(s)].size(), 1u);
    EXPECT_EQ(rig.node_b.received[static_cast<std::size_t>(s)][0],
              MessageType::None);  // garbage, not a real message
  }
  // The babbler itself learns nothing, not even its own transmission.
  EXPECT_EQ(rig.node_a.tx_attempted, (std::vector<bool>{false, false, false,
                                                        false}));
  EXPECT_EQ(rig.stats.babble_node_slots, 4);
}

TEST(FaultNetwork, DeafTransmitterStillDeliversButHearsRealTxEcho) {
  Pair rig(Mode::Broadcast, Mode::Listen);
  rig.engine.add(0, FaultKind::Deaf, 1, kNoSlot);
  rig.run(3);
  for (const auto& got : rig.node_b.received) EXPECT_EQ(got.size(), 1u);
  // Deaf keeps the tx side of its feedback: it knows it transmitted.
  EXPECT_EQ(rig.node_a.tx_attempted, (std::vector<bool>{true, true, true}));
  EXPECT_EQ(rig.node_a.tx_success, (std::vector<bool>{true, true, true}));
  for (const auto& got : rig.node_a.received) EXPECT_TRUE(got.empty());
}

TEST(FaultNetwork, DeafListenerReceivesNothingAndIsCounted) {
  Pair rig(Mode::Broadcast, Mode::Listen);
  rig.engine.add(1, FaultKind::Deaf, 1, kNoSlot);
  rig.run(3);
  for (const auto& got : rig.node_b.received) EXPECT_TRUE(got.empty());
  EXPECT_EQ(rig.stats.suppressed_deliveries, 3);
  EXPECT_EQ(rig.stats.deaf_node_slots, 3);
}

TEST(FaultNetwork, MuteDemotesBroadcastToListenOnTheSameLabel) {
  // Both want to broadcast; node 0 is mute, so node 1 becomes the lone
  // winner and the mute node hears it — rx stays alive.
  Pair rig(Mode::Broadcast, Mode::Broadcast);
  rig.engine.add(0, FaultKind::Mute, 1, kNoSlot);
  rig.run(3);
  for (const auto& got : rig.node_a.received) {
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], MessageType::Data);
  }
  EXPECT_EQ(rig.node_a.tx_attempted, (std::vector<bool>{false, false, false}));
  EXPECT_EQ(rig.node_b.tx_success, (std::vector<bool>{true, true, true}));
  EXPECT_EQ(rig.stats.mute_demotions, 3);
  EXPECT_EQ(rig.stats.mute_node_slots, 3);
}

TEST(FaultNetwork, FeedbackDropActsNormallyButLearnsNothing) {
  Pair rig(Mode::Broadcast, Mode::Listen);
  rig.engine.add(0, FaultKind::FeedbackDrop, 2, 4);
  rig.run(4);
  // Physics is untouched: the listener hears every slot.
  for (const auto& got : rig.node_b.received) EXPECT_EQ(got.size(), 1u);
  // But the faulted slots' feedback is blank (no tx echo).
  EXPECT_EQ(rig.node_a.tx_attempted,
            (std::vector<bool>{true, false, false, true}));
  EXPECT_EQ(rig.stats.feedback_drops, 2);
  EXPECT_EQ(rig.stats.feedback_drop_node_slots, 2);
}

// --- Crash and outage: Churn windows at the protocol boundary ---------------
//
// A crash of node u at slot s is add(u, Churn, s), a window that never
// closes; an outage over [from, to) is add(u, Churn, from, to).

// Jams every node's channel 0 in the listed slots.
class SlotJammer : public Jammer {
 public:
  explicit SlotJammer(std::vector<Slot> slots) : slots_(std::move(slots)) {}
  void begin_slot(Slot slot) override {
    on_ = std::find(slots_.begin(), slots_.end(), slot) != slots_.end();
  }
  bool is_jammed(NodeId, Channel channel) const override {
    return on_ && channel == 0;
  }

 private:
  std::vector<Slot> slots_;
  bool on_ = false;
};

// Runs `protocols` on one shared channel for `slots` slots under `engine`
// and returns each node's resolved mode per slot; `stats`, when set,
// receives the run's TraceStats.
std::vector<std::vector<Mode>> run_on_one_channel(
    std::vector<Protocol*> protocols, FaultEngine& engine, int slots,
    Jammer* jammer = nullptr, TraceStats* stats = nullptr) {
  const int n = static_cast<int>(protocols.size());
  IdentityAssignment assignment(n, 1, LabelMode::Global, Rng(1));
  NetworkOptions opt;
  opt.seed = 99;
  Network net(assignment, std::move(protocols), opt);
  net.set_fault_engine(&engine);
  if (jammer != nullptr) net.set_jammer(jammer);
  std::vector<std::vector<Mode>> modes(static_cast<std::size_t>(n));
  net.set_observer([&](Slot, std::span<const ResolvedAction> acts) {
    for (const ResolvedAction& a : acts)
      modes[static_cast<std::size_t>(a.node)].push_back(a.mode);
  });
  for (int s = 0; s < slots; ++s) net.step();
  if (stats != nullptr) *stats = net.stats();
  return modes;
}

// Node 0 broadcasts in slots 1 and 2 and listens after; node 1 idles in
// slots 1 and 2 and broadcasts after; slot 1 is jammed. Unfaulted, node 0
// is jammed in slot 1, wins alone in slot 2 and hears node 1 in slots 3
// and 4. `node` records what node 0 learns under `engine`.
void run_eventful(Script& node, FaultEngine& engine) {
  Script other({Mode::Idle, Mode::Idle, Mode::Broadcast});
  SlotJammer jammer({1});
  run_on_one_channel({&node, &other}, engine, 4, &jammer);
}

const std::vector<Mode> kEventful{Mode::Broadcast, Mode::Broadcast,
                                  Mode::Listen};

// Expects `node`'s feedback in `slot` to be SlotResult{}, field by field:
// what a powered-off radio learns.
void expect_blank(const Script& node, Slot slot) {
  const SlotResult blank{};
  const auto i = static_cast<std::size_t>(slot - 1);
  EXPECT_EQ(node.jammed[i], blank.jammed) << "slot " << slot;
  EXPECT_EQ(node.tx_attempted[i], blank.tx_attempted) << "slot " << slot;
  EXPECT_EQ(node.tx_success[i], blank.tx_success) << "slot " << slot;
  EXPECT_EQ(node.heard()[i], blank.received.size()) << "slot " << slot;
}

TEST(CrashFault, SilencesFromCrashSlotOn) {
  // Crashed from slot 3 on: the node broadcasts in slots 1 and 2 and is
  // idle ever after, and the listener hears it only before the crash.
  Script crashed(Mode::Broadcast), listener(Mode::Listen);
  FaultEngine engine(2, 1, Rng(2));
  engine.add(0, FaultKind::Churn, 3);
  TraceStats stats;
  const auto modes = run_on_one_channel({&crashed, &listener}, engine, 6,
                                        nullptr, &stats);
  const Mode B = Mode::Broadcast, I = Mode::Idle;
  EXPECT_EQ(modes[0], (std::vector<Mode>{B, B, I, I, I, I}));
  EXPECT_EQ(listener.heard(), (std::vector<std::size_t>{1, 1, 0, 0, 0, 0}));
  EXPECT_EQ(stats.churned_node_slots, 4);
}

TEST(CrashFault, DropsFeedbackAfterCrash) {
  // Crashed from slot 2 on: the node still learns that slot 1 was jammed,
  // and from the crash on it learns SlotResult{} in the slot it would have
  // won and in the slots it would have heard node 1.
  Script crashed(kEventful);
  FaultEngine engine(2, 1, Rng(2));
  engine.add(0, FaultKind::Churn, 2);
  run_eventful(crashed, engine);
  ASSERT_EQ(crashed.feedback_slots, (std::vector<Slot>{1, 2, 3, 4}));
  EXPECT_TRUE(crashed.jammed[0]);
  for (Slot s = 2; s <= 4; ++s) expect_blank(crashed, s);
}

TEST(FaultNetwork, CrashAtSlotOneNeverActs) {
  Script crashed(Mode::Broadcast), listener(Mode::Listen);
  FaultEngine engine(2, 1, Rng(2));
  engine.add(0, FaultKind::Churn, 1);
  TraceStats stats;
  const auto modes = run_on_one_channel({&crashed, &listener}, engine, 8,
                                        nullptr, &stats);
  EXPECT_EQ(modes[0], std::vector<Mode>(8, Mode::Idle));
  EXPECT_EQ(crashed.tx_attempted, std::vector<bool>(8, false));
  EXPECT_EQ(listener.heard(), std::vector<std::size_t>(8, 0));
  EXPECT_EQ(stats.churned_node_slots, 8);
}

TEST(OutageFault, SuppressesOnlyDuringTheWindow) {
  // Out over [3, 5): idle in slots 3 and 4 only, and heard in every other
  // slot.
  Script outage(Mode::Broadcast), listener(Mode::Listen);
  FaultEngine engine(2, 1, Rng(2));
  engine.add(0, FaultKind::Churn, 3, 5);
  TraceStats stats;
  const auto modes = run_on_one_channel({&outage, &listener}, engine, 6,
                                        nullptr, &stats);
  const Mode B = Mode::Broadcast, I = Mode::Idle;
  EXPECT_EQ(modes[0], (std::vector<Mode>{B, B, I, I, B, B}));
  EXPECT_EQ(listener.heard(), (std::vector<std::size_t>{1, 1, 0, 0, 1, 1}));
  EXPECT_EQ(stats.churned_node_slots, 2);
}

TEST(OutageFault, FeedbackDuringOutageIsEmptied) {
  // Out over [1, 2) while node 1 broadcasts: the node hears nothing in
  // slot 1 and hears again from slot 2 on.
  Script node(Mode::Listen), talker(Mode::Broadcast);
  FaultEngine engine(2, 1, Rng(2));
  engine.add(0, FaultKind::Churn, 1, 2);
  run_on_one_channel({&node, &talker}, engine, 3);
  EXPECT_EQ(node.heard(), (std::vector<std::size_t>{0, 1, 1}));
}

TEST(OutageFault, SuppressedSlotFeedbackEqualsPoweredOffRadio) {
  // Out over [1, 4): in the slot it was jammed, the slot it won and the
  // slot it heard node 1, the node learns exactly SlotResult{}; in slot 4
  // the eventful feedback passes through again.
  Script eventful(kEventful), suppressed(kEventful);
  FaultEngine unfaulted(2, 1, Rng(2)), engine(2, 1, Rng(2));
  engine.add(0, FaultKind::Churn, 1, 4);
  run_eventful(eventful, unfaulted);
  run_eventful(suppressed, engine);
  EXPECT_EQ(eventful.jammed, (std::vector<bool>{true, false, false, false}));
  EXPECT_EQ(eventful.tx_success,
            (std::vector<bool>{false, true, false, false}));
  EXPECT_EQ(eventful.heard(), (std::vector<std::size_t>{0, 0, 1, 1}));

  ASSERT_EQ(suppressed.feedback_slots, (std::vector<Slot>{1, 2, 3, 4}));
  for (Slot s = 1; s <= 3; ++s) expect_blank(suppressed, s);
  EXPECT_EQ(suppressed.heard()[3], 1u);
}

TEST(OutageFault, ZeroLengthWindowIsFullyTransparent) {
  // [4, 4) is empty: no slot is silenced, not even slot 4.
  Script node(Mode::Broadcast), listener(Mode::Listen);
  FaultEngine engine(2, 1, Rng(2));
  engine.add(0, FaultKind::Churn, 4, 4);
  TraceStats stats;
  const auto modes = run_on_one_channel({&node, &listener}, engine, 6,
                                        nullptr, &stats);
  EXPECT_EQ(modes[0], std::vector<Mode>(6, Mode::Broadcast));
  EXPECT_EQ(node.tx_success, std::vector<bool>(6, true));
  EXPECT_EQ(listener.heard(), std::vector<std::size_t>(6, 1));
  EXPECT_EQ(stats.churned_node_slots, 0);
  EXPECT_EQ(stats.fault_node_slots, 0);
}

TEST(OutageFault, ComposesWithClockSkew) {
  // The window is in network slots, the skew shifts the inner clock. In
  // network slots 1..2 the skew keeps the node dormant; the outage covers
  // [4, 6); the inner protocol must see local slots 1..4 with blank
  // feedback exactly at local slots 2 and 3.
  Script inner(Mode::Listen), talker(Mode::Broadcast);
  ClockSkew skewed(inner, 2);
  FaultEngine engine(2, 1, Rng(2));
  engine.add(0, FaultKind::Churn, 4, 6);
  run_on_one_channel({&skewed, &talker}, engine, 6);
  EXPECT_EQ(inner.slots_seen, (std::vector<Slot>{1, 2, 3, 4}));
  EXPECT_EQ(inner.heard(), (std::vector<std::size_t>{1, 0, 0, 1}));
}

TEST(FaultNetwork, ChurnedNodeIsStillAskedEverySlot) {
  // The protocol's clock never skips a slot: it is asked for an action and
  // told a result in every slot of an outage and after a crash.
  Script outage(Mode::Listen), crash(Mode::Listen);
  FaultEngine engine(2, 1, Rng(2));
  engine.add(0, FaultKind::Churn, 2, 5);
  engine.add(1, FaultKind::Churn, 3);
  run_on_one_channel({&outage, &crash}, engine, 6);
  const std::vector<Slot> every{1, 2, 3, 4, 5, 6};
  for (const Script* r : {&outage, &crash}) {
    EXPECT_EQ(r->slots_seen, every);
    EXPECT_EQ(r->feedback_slots, every);
  }
}

TEST(FaultNetwork, SettersRejectAnEngineBuiltForAnotherNetwork) {
  // Both engines read flags(i) for every node each slot and index a
  // babbler's label row with its stuck label, so an engine for fewer nodes
  // or more labels than the network's is refused when attached.
  const int n = 64, c = 4;
  SharedCoreAssignment assignment(n, c, 2, LabelMode::LocalRandom, Rng(3));
  std::vector<std::unique_ptr<Protocol>> nodes;
  std::vector<Protocol*> protocols;
  Rng seeder(4);
  for (NodeId u = 0; u < n; ++u) {
    nodes.push_back(std::make_unique<RandomTrafficNode>(
        c, seeder.split(static_cast<std::uint64_t>(u))));
    protocols.push_back(nodes.back().get());
  }
  Network net(assignment, protocols);
  ReferenceNetwork reference(assignment, protocols);
  FaultEngine too_few_nodes(2, 1, Rng(2));
  FaultEngine too_many_labels(n, c + 1, Rng(2));
  FaultEngine fits(n, c, Rng(2));
  fits.add_random(FaultProfile{2, 2, 2, 2, 2, 4, 3}, 8);
  for (FaultEngine* wrong : {&too_few_nodes, &too_many_labels}) {
    EXPECT_THROW(net.set_fault_engine(wrong), std::invalid_argument);
    EXPECT_THROW(reference.set_fault_engine(wrong), std::invalid_argument);
  }
  EXPECT_EQ(net.fault_engine(), nullptr);  // a refused engine is not kept

  // A matching engine still attaches and steps, in both engines alike.
  net.set_fault_engine(&fits);
  for (int s = 0; s < 8; ++s) net.step();
  EXPECT_GT(net.stats().fault_node_slots, 0);
  FaultEngine fits_again(n, c, Rng(2));
  fits_again.add_random(FaultProfile{2, 2, 2, 2, 2, 4, 3}, 8);
  reference.set_fault_engine(&fits_again);
  for (int s = 0; s < 8; ++s) reference.step();
  EXPECT_EQ(reference.stats().fault_node_slots, net.stats().fault_node_slots);
}

// --- Every collision model under a mixed fault schedule ----------------------

TEST(FaultNetwork, InvariantsHoldUnderEveryCollisionModel) {
  const CollisionModel models[] = {CollisionModel::OneWinner,
                                   CollisionModel::AllDelivered,
                                   CollisionModel::CollisionLoss};
  for (const CollisionModel model : models) {
    IdentityAssignment assignment(8, 2, LabelMode::Global, Rng(11));
    InvariantChecker checker;
    std::vector<std::unique_ptr<Protocol>> nodes;
    std::vector<Protocol*> protocols;
    Rng seeder(5);
    for (NodeId u = 0; u < 8; ++u) {
      nodes.push_back(std::make_unique<RandomTrafficNode>(
          2, seeder.split(static_cast<std::uint64_t>(u))));
      protocols.push_back(checker.tap(*nodes.back()));
    }
    FaultEngine engine(8, 2, Rng(21));
    engine.add_random(FaultProfile{1, 1, 1, 1, 1, 3, 8}, 50);
    NetworkOptions opt;
    opt.seed = 99;
    opt.collision = model;
    Network net(assignment, protocols, opt);
    net.set_fault_engine(&engine);
    checker.attach(net);
    for (int s = 0; s < 60; ++s) net.step();
    EXPECT_TRUE(checker.ok())
        << "model " << static_cast<int>(model) << ": "
        << checker.first_violation();
    EXPECT_GT(net.stats().fault_node_slots, 0);
  }
}

TEST(FaultNetwork, SuppressionIsExactEvenUnderFading) {
  // No fade coin is spent on a dead receiver, so suppressed_deliveries
  // stays an exact delta the oracle can re-derive under loss_prob > 0.
  IdentityAssignment assignment(2, 1, LabelMode::Global, Rng(1));
  Script tx(Mode::Broadcast), rx(Mode::Listen);
  InvariantChecker checker;
  std::vector<Protocol*> protocols{checker.tap(tx), checker.tap(rx)};
  FaultEngine engine(2, 1, Rng(2));
  engine.add(1, FaultKind::Deaf, 2, 6);
  NetworkOptions opt;
  opt.seed = 7;
  opt.loss_prob = 0.5;
  Network net(assignment, protocols, opt);
  net.set_fault_engine(&engine);
  checker.attach(net);
  for (int s = 0; s < 8; ++s) net.step();
  EXPECT_TRUE(checker.ok()) << checker.first_violation();
  EXPECT_EQ(net.stats().suppressed_deliveries, 4);
}

// --- The oracle catches every per-kind mutation ------------------------------

// Runs a small faulted rig with `mutation` injected into the network and
// reports whether the invariant oracle flagged it. `mode` is node 0's
// scripted intent (the faulted node); node 1 always broadcasts so there
// is traffic to mis-deliver.
bool oracle_catches(TestonlyFaultMutation mutation, FaultKind kind,
                    Mode mode) {
  IdentityAssignment assignment(2, 1, LabelMode::Global, Rng(1));
  Script faulted(mode), rival(Mode::Broadcast);
  InvariantChecker checker;
  std::vector<Protocol*> protocols{checker.tap(faulted), checker.tap(rival)};
  FaultEngine engine(2, 1, Rng(2));
  engine.add(0, kind, 2, 6);
  NetworkOptions opt;
  opt.seed = 99;
  opt.testonly_fault_mutation = mutation;
  Network net(assignment, protocols, opt);
  net.set_fault_engine(&engine);
  checker.attach(net);
  for (int s = 0; s < 8; ++s) net.step();
  return !checker.ok();
}

TEST(FaultOracle, EachTestonlyMutationIsCaught) {
  EXPECT_TRUE(oracle_catches(TestonlyFaultMutation::ChurnActs,
                             FaultKind::Churn, Mode::Broadcast));
  EXPECT_TRUE(oracle_catches(TestonlyFaultMutation::MuteTransmits,
                             FaultKind::Mute, Mode::Broadcast));
  EXPECT_TRUE(oracle_catches(TestonlyFaultMutation::BabbleIdles,
                             FaultKind::Babble, Mode::Idle));
  EXPECT_TRUE(oracle_catches(TestonlyFaultMutation::KeepDroppedFeedback,
                             FaultKind::FeedbackDrop, Mode::Broadcast));
  EXPECT_TRUE(oracle_catches(TestonlyFaultMutation::DeafHears,
                             FaultKind::Deaf, Mode::Listen));
}

TEST(FaultOracle, UnmutatedRigsAreClean) {
  const FaultKind kinds[] = {FaultKind::Churn, FaultKind::Mute,
                             FaultKind::Babble, FaultKind::FeedbackDrop,
                             FaultKind::Deaf};
  for (const FaultKind kind : kinds)
    EXPECT_FALSE(oracle_catches(TestonlyFaultMutation::None, kind,
                                Mode::Broadcast))
        << to_string(kind);
}

// --- The paper's robustness claim: CogCast over crashes and outages ---------
//
// The oblivious CogCast epidemic tolerates crashes and temporary outages
// (Section 4 discussion). Each fault is a Churn window: a crash never
// closes, an outage or a late wake-up closes at `to`.

Message data_msg() {
  Message m;
  m.type = MessageType::Data;
  return m;
}

// CogCast nodes on a shared-core assignment, node 0 the source, with a
// FaultEngine attached for the caller's windows.
struct CogCastRig {
  CogCastRig(int n, int c, int k, std::uint64_t assign_seed, Rng seeder)
      : assignment(n, c, k, LabelMode::LocalRandom, Rng(assign_seed)),
        engine(n, c, Rng(assign_seed + 1)) {
    for (NodeId u = 0; u < n; ++u)
      nodes.push_back(std::make_unique<CogCastNode>(
          u, c, u == 0, data_msg(),
          seeder.split(static_cast<std::uint64_t>(u))));
  }

  // The network over the nodes, built once the windows are in place.
  Network& network() {
    std::vector<Protocol*> protocols;
    for (const auto& node : nodes) protocols.push_back(node.get());
    net = std::make_unique<Network>(assignment, protocols);
    net->set_fault_engine(&engine);
    return *net;
  }

  SharedCoreAssignment assignment;
  FaultEngine engine;
  std::vector<std::unique_ptr<CogCastNode>> nodes;
  std::unique_ptr<Network> net;
};

struct FaultyRun {
  bool completed = false;
  Slot slots = 0;
};

// Runs CogCast where the last `num_crashes` node ids (never the source)
// crash at `crash_slot`. A crashed node can never be informed, so the run
// stops once every SURVIVING node is, or at the slot cap.
FaultyRun run_with_crashes(int n, int c, int k, int num_crashes,
                           Slot crash_slot, std::uint64_t seed) {
  CogCastRig rig(n, c, k, seed, Rng(seed * 31 + 1));
  for (NodeId u = n - num_crashes; u < n; ++u)
    rig.engine.add(u, FaultKind::Churn, crash_slot);
  Network& net = rig.network();
  const auto survivors_informed = [&] {
    return std::all_of(rig.nodes.begin(), rig.nodes.end() - num_crashes,
                       [](const auto& node) { return node->informed(); });
  };
  while (net.now() < 100'000 && !survivors_informed()) net.step();
  FaultyRun out;
  out.slots = net.now();
  out.completed = survivors_informed();
  return out;
}

TEST(CogCastRobustness, SurvivorsGetInformedDespiteCrashes) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    // A third of the nodes crash early, while the epidemic is spreading.
    const auto out = run_with_crashes(30, 8, 2, 10, /*crash_slot=*/5, seed);
    EXPECT_TRUE(out.completed) << "seed " << seed;
  }
}

TEST(CogCastRobustness, ToleratesTemporaryOutages) {
  // Every node except the source goes deaf for a window mid-broadcast;
  // because every informed node keeps broadcasting forever, the epidemic
  // resumes when they come back.
  const int n = 16, c = 6, k = 2;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    CogCastRig rig(n, c, k, seed, Rng(seed + 77));
    for (NodeId u = 1; u < n; ++u)
      rig.engine.add(u, FaultKind::Churn, 3, 3 + static_cast<Slot>(u));
    rig.network().run(100'000);
    for (const auto& node : rig.nodes)
      EXPECT_TRUE(node->informed()) << "seed " << seed;
  }
}

TEST(CogCastRobustness, StaggeredActivationStillCompletes) {
  // The paper assumes simultaneous activation; in practice nodes wake up
  // at different times. Model wake-up as an initial outage [1, w_u): the
  // oblivious epidemic needs no synchronized start beyond a common slot
  // clock — it completes once the last sleeper is awake.
  const int n = 18, c = 6, k = 2;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    CogCastRig rig(n, c, k, seed, Rng(seed + 31));
    Rng wake_rng(seed + 77);
    Slot last_wake = 1;
    for (NodeId u = 1; u < n; ++u) {
      const Slot wake = 1 + static_cast<Slot>(wake_rng.below(40));
      last_wake = std::max(last_wake, wake);
      rig.engine.add(u, FaultKind::Churn, 1, wake);
    }
    Network& net = rig.network();
    net.run(100'000);
    for (const auto& node : rig.nodes)
      EXPECT_TRUE(node->informed()) << "seed " << seed;
    EXPECT_GE(net.now(), last_wake - 1);
  }
}

TEST(CogCastRobustness, CrashedSourceBeforeAnyBroadcastBlocksEveryone) {
  // Sanity inverse: if the source crashes at slot 1 nobody can ever learn
  // the message — the run must hit the cap with zero informed nodes.
  const int n = 8;
  CogCastRig rig(n, 6, 2, 3, Rng(4));
  rig.engine.add(0, FaultKind::Churn, 1);
  rig.network().run(2000);
  for (NodeId u = 1; u < n; ++u)
    EXPECT_FALSE(rig.nodes[static_cast<std::size_t>(u)]->informed());
}

}  // namespace
}  // namespace cogradio
