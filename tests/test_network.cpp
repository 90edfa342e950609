// Integration tests for the network engine's collision-model semantics
// (Section 2). Scripted protocols pin nodes to fixed channels/roles so each
// delivery rule can be checked in isolation. The statistical checks of the
// model's coins, and the differentials that steer a run by its feedback,
// run on both Network and the reference engine: a bias the two shared
// would pass every differential.
#include "sim/network.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/cogcast.h"
#include "sim/assignment.h"
#include "sim/reference_network.h"

namespace cogradio {
namespace {

// A protocol following a fixed per-slot script, recording all feedback.
class ScriptedNode : public Protocol {
 public:
  explicit ScriptedNode(std::vector<Action> script) : script_(std::move(script)) {}

  Action on_slot(Slot slot) override {
    const auto idx = static_cast<std::size_t>(slot - 1);
    return idx < script_.size() ? script_[idx] : Action::idle();
  }

  void on_feedback(Slot, const SlotResult& result) override {
    Feedback f;
    f.jammed = result.jammed;
    f.tx_attempted = result.tx_attempted;
    f.tx_success = result.tx_success;
    f.received.assign(result.received.begin(), result.received.end());
    feedback_.push_back(std::move(f));
  }

  bool done() const override {
    return feedback_.size() >= script_.size();
  }

  struct Feedback {
    bool jammed = false;
    bool tx_attempted = false;
    bool tx_success = false;
    std::vector<Message> received;
  };
  std::vector<Feedback> feedback_;

 private:
  std::vector<Action> script_;
};

Message data_msg(std::int64_t a) {
  Message m;
  m.type = MessageType::Data;
  m.a = a;
  return m;
}

template <typename Engine>
struct EngineRig {
  // All nodes share channels 0..c-1 with identity labels, so local label ==
  // physical channel and scripts are easy to read.
  EngineRig(int n, int c, std::vector<std::vector<Action>> scripts,
            NetworkOptions options = {})
      : assignment(n, c, LabelMode::Global, Rng(1)) {
    for (auto& s : scripts) nodes.push_back(std::make_unique<ScriptedNode>(std::move(s)));
    std::vector<Protocol*> protocols;
    for (auto& node : nodes) protocols.push_back(node.get());
    network.emplace(assignment, std::move(protocols), options);
  }

  ScriptedNode& node(int i) { return *nodes[static_cast<std::size_t>(i)]; }

  IdentityAssignment assignment;
  std::vector<std::unique_ptr<ScriptedNode>> nodes;
  std::optional<Engine> network;
};

using Rig = EngineRig<Network>;

TEST(Network, SoleBroadcasterAlwaysSucceeds) {
  Rig rig(2, 2,
          {{Action::broadcast(0, data_msg(7))}, {Action::listen(0)}});
  rig.network->step();
  EXPECT_TRUE(rig.node(0).feedback_[0].tx_attempted);
  EXPECT_TRUE(rig.node(0).feedback_[0].tx_success);
  ASSERT_EQ(rig.node(1).feedback_[0].received.size(), 1u);
  EXPECT_EQ(rig.node(1).feedback_[0].received[0].a, 7);
  EXPECT_EQ(rig.node(1).feedback_[0].received[0].sender, 0);
}

TEST(Network, ListenersOnOtherChannelsHearNothing) {
  Rig rig(2, 2,
          {{Action::broadcast(0, data_msg(7))}, {Action::listen(1)}});
  rig.network->step();
  EXPECT_TRUE(rig.node(1).feedback_[0].received.empty());
}

TEST(Network, OneWinnerExactlyOneSucceeds) {
  Rig rig(4, 2,
          {{Action::broadcast(0, data_msg(1))},
           {Action::broadcast(0, data_msg(2))},
           {Action::broadcast(0, data_msg(3))},
           {Action::listen(0)}});
  rig.network->step();
  int winners = 0;
  std::int64_t winner_payload = -1;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(rig.node(i).feedback_[0].tx_attempted);
    if (rig.node(i).feedback_[0].tx_success) {
      ++winners;
      winner_payload = static_cast<std::int64_t>(i) + 1;
    }
  }
  EXPECT_EQ(winners, 1);
  ASSERT_EQ(rig.node(3).feedback_[0].received.size(), 1u);
  EXPECT_EQ(rig.node(3).feedback_[0].received[0].a, winner_payload);
  EXPECT_EQ(rig.network->stats().collision_events, 1);
}

TEST(Network, FailedBroadcastersReceiveTheWinningMessage) {
  // Section 2: "failed ones receive the message that was sent."
  Rig rig(2, 1,
          {{Action::broadcast(0, data_msg(1))},
           {Action::broadcast(0, data_msg(2))}});
  rig.network->step();
  const auto& f0 = rig.node(0).feedback_[0];
  const auto& f1 = rig.node(1).feedback_[0];
  ASSERT_NE(f0.tx_success, f1.tx_success);  // exactly one winner
  const auto& loser = f0.tx_success ? f1 : f0;
  const auto& winner = f0.tx_success ? f0 : f1;
  const std::int64_t winner_payload = f0.tx_success ? 1 : 2;
  ASSERT_EQ(loser.received.size(), 1u);
  EXPECT_EQ(loser.received[0].a, winner_payload);
  EXPECT_TRUE(winner.received.empty());
}

// `contenders` broadcasters contend once per seed over 3000 seeds, the
// winner drawn by the uniform coin or by emulated decay backoff; each
// contender's wins must lie within 5 sigma of an equal share.
template <typename Engine>
void expect_uniform_winner(int contenders, bool backoff) {
  SCOPED_TRACE(std::to_string(contenders) +
               (backoff ? " contenders, backoff" : " contenders, coin"));
  constexpr int kTrials = 3000;
  std::vector<int> wins(static_cast<std::size_t>(contenders), 0);
  for (int trial = 0; trial < kTrials; ++trial) {
    NetworkOptions opt;
    opt.seed = static_cast<std::uint64_t>(trial) + 1;
    opt.emulate_backoff = backoff;
    std::vector<std::vector<Action>> scripts;
    for (int i = 0; i < contenders; ++i)
      scripts.push_back({Action::broadcast(0, data_msg(i))});
    EngineRig<Engine> rig(contenders, 1, std::move(scripts), opt);
    rig.network->step();
    for (int i = 0; i < contenders; ++i)
      if (rig.node(i).feedback_[0].tx_success) ++wins[static_cast<std::size_t>(i)];
  }
  const double share = 1.0 / contenders;
  const double sigma = std::sqrt(kTrials * share * (1.0 - share));
  for (const int w : wins) EXPECT_NEAR(w, kTrials * share, 5.0 * sigma);
}

template <typename Engine>
void expect_uniform_winners() {
  for (const int contenders : {3, 8})
    for (const bool backoff : {false, true})
      expect_uniform_winner<Engine>(contenders, backoff);
}

TEST(Network, WinnerIsRoughlyUniform) { expect_uniform_winners<Network>(); }

TEST(ReferenceNetwork, WinnerIsRoughlyUniform) {
  expect_uniform_winners<ReferenceNetwork>();
}

// Fading loses each copy independently with probability loss_prob. Two
// broadcasters and seven listeners share one channel for 4000 slots of one
// fixed-seed run, so 32000 copies are sent: seven to the listeners and one
// to the failed broadcaster each slot. The measured loss rate must lie
// within 5 sigma of loss_prob.
template <typename Engine>
void expect_loss_rate(double loss_prob) {
  SCOPED_TRACE(loss_prob);
  const int n = 9, slots = 4000;
  std::vector<std::vector<Action>> scripts;
  for (int i = 0; i < n; ++i)
    scripts.emplace_back(slots, i < 2 ? Action::broadcast(0, data_msg(i))
                                      : Action::listen(0));
  NetworkOptions opt;
  opt.seed = 29;
  opt.loss_prob = loss_prob;
  EngineRig<Engine> rig(n, 1, std::move(scripts), opt);
  for (int s = 0; s < slots; ++s) rig.network->step();
  std::int64_t delivered = 0;
  for (int i = 0; i < n; ++i)
    for (const ScriptedNode::Feedback& f : rig.node(i).feedback_)
      delivered += static_cast<std::int64_t>(f.received.size());
  EXPECT_EQ(rig.network->stats().deliveries, delivered);
  const double sent = static_cast<double>(slots) * (n - 1);
  const double loss = 1.0 - static_cast<double>(delivered) / sent;
  const double sigma = std::sqrt(loss_prob * (1.0 - loss_prob) / sent);
  EXPECT_NEAR(loss, loss_prob, 5.0 * sigma);
}

TEST(Network, FadingLosesCopiesAtLossProb) {
  for (const double p : {0.125, 0.5}) expect_loss_rate<Network>(p);
}

TEST(ReferenceNetwork, FadingLosesCopiesAtLossProb) {
  for (const double p : {0.125, 0.5}) expect_loss_rate<ReferenceNetwork>(p);
}

TEST(Network, IdleNodesGetEmptyFeedback) {
  Rig rig(2, 1, {{Action::idle()}, {Action::idle()}});
  rig.network->step();
  EXPECT_FALSE(rig.node(0).feedback_[0].tx_attempted);
  EXPECT_TRUE(rig.node(0).feedback_[0].received.empty());
  EXPECT_EQ(rig.network->stats().idle_node_slots, 2);
}

TEST(Network, AllDeliveredModelDeliversEverything) {
  NetworkOptions opt;
  opt.collision = CollisionModel::AllDelivered;
  Rig rig(3, 1,
          {{Action::broadcast(0, data_msg(1))},
           {Action::broadcast(0, data_msg(2))},
           {Action::listen(0)}},
          opt);
  rig.network->step();
  EXPECT_TRUE(rig.node(0).feedback_[0].tx_success);
  EXPECT_TRUE(rig.node(1).feedback_[0].tx_success);
  ASSERT_EQ(rig.node(2).feedback_[0].received.size(), 2u);
}

TEST(Network, CollisionLossDestroysConcurrentBroadcasts) {
  NetworkOptions opt;
  opt.collision = CollisionModel::CollisionLoss;
  Rig rig(3, 1,
          {{Action::broadcast(0, data_msg(1))},
           {Action::broadcast(0, data_msg(2))},
           {Action::listen(0)}},
          opt);
  rig.network->step();
  EXPECT_FALSE(rig.node(0).feedback_[0].tx_success);
  EXPECT_FALSE(rig.node(1).feedback_[0].tx_success);
  EXPECT_TRUE(rig.node(2).feedback_[0].received.empty());
}

TEST(Network, CollisionLossSoleBroadcastDelivers) {
  NetworkOptions opt;
  opt.collision = CollisionModel::CollisionLoss;
  Rig rig(2, 1, {{Action::broadcast(0, data_msg(9))}, {Action::listen(0)}},
          opt);
  rig.network->step();
  EXPECT_TRUE(rig.node(0).feedback_[0].tx_success);
  ASSERT_EQ(rig.node(1).feedback_[0].received.size(), 1u);
}

TEST(Network, ChannelsAreIndependent) {
  Rig rig(4, 2,
          {{Action::broadcast(0, data_msg(1))},
           {Action::listen(0)},
           {Action::broadcast(1, data_msg(2))},
           {Action::listen(1)}});
  rig.network->step();
  EXPECT_EQ(rig.node(1).feedback_[0].received[0].a, 1);
  EXPECT_EQ(rig.node(3).feedback_[0].received[0].a, 2);
  EXPECT_EQ(rig.network->stats().collision_events, 0);
  EXPECT_EQ(rig.network->stats().successes, 2);
  EXPECT_EQ(rig.network->stats().deliveries, 2);
}

TEST(Network, RunStopsWhenAllDone) {
  // Scripts of different lengths; run() should stop at the longest.
  Rig rig(2, 1,
          {{Action::listen(0), Action::listen(0)},
           {Action::listen(0), Action::listen(0), Action::listen(0)}});
  const Slot end = rig.network->run(100);
  EXPECT_EQ(end, 3);
  EXPECT_TRUE(rig.network->all_done());
}

TEST(Network, RunHonorsSlotCap) {
  Rig rig(1, 1, {std::vector<Action>(50, Action::listen(0))});
  EXPECT_EQ(rig.network->run(10), 10);
  EXPECT_FALSE(rig.network->all_done());
}

TEST(Network, ObserverSeesResolvedActions) {
  Rig rig(2, 2,
          {{Action::broadcast(1, data_msg(1))}, {Action::listen(1)}});
  std::vector<ResolvedAction> seen;
  rig.network->set_observer([&](Slot, std::span<const ResolvedAction> acts) {
    seen.assign(acts.begin(), acts.end());
  });
  rig.network->step();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].mode, Mode::Broadcast);
  EXPECT_EQ(seen[0].channel, 1);
  EXPECT_TRUE(seen[0].tx_success);
  EXPECT_EQ(seen[1].mode, Mode::Listen);
}

TEST(Network, SenderFieldIsStampedByNetwork) {
  // Even if the protocol forges msg.sender, the network overwrites it.
  Message forged = data_msg(1);
  forged.sender = 77;
  Rig rig(2, 1, {{Action::broadcast(0, forged)}, {Action::listen(0)}});
  rig.network->step();
  EXPECT_EQ(rig.node(1).feedback_[0].received[0].sender, 0);
}

TEST(Network, RejectsBadConstruction) {
  IdentityAssignment a(2, 2, LabelMode::Global, Rng(1));
  ScriptedNode n1({}), n2({}), n3({});
  EXPECT_THROW(Network(a, {}), std::invalid_argument);
  EXPECT_THROW(Network(a, {&n1}), std::invalid_argument);
  EXPECT_THROW(Network(a, {&n1, &n2, &n3}), std::invalid_argument);
  EXPECT_THROW(Network(a, {&n1, nullptr}), std::invalid_argument);
}

TEST(Network, FadingDropsDeliveriesIndependently) {
  // With loss_prob = 1 nothing is ever delivered; with 0.5 roughly half
  // the copies arrive; tx_success is unaffected either way.
  int delivered_half = 0;
  constexpr int kTrials = 2000;
  for (int t = 0; t < kTrials; ++t) {
    NetworkOptions opt;
    opt.seed = static_cast<std::uint64_t>(t) + 1;
    opt.loss_prob = 0.5;
    Rig rig(2, 1, {{Action::broadcast(0, data_msg(1))}, {Action::listen(0)}},
            opt);
    rig.network->step();
    EXPECT_TRUE(rig.node(0).feedback_[0].tx_success);
    if (!rig.node(1).feedback_[0].received.empty()) ++delivered_half;
  }
  EXPECT_NEAR(delivered_half, kTrials / 2, kTrials / 8);

  NetworkOptions total_loss;
  total_loss.loss_prob = 1.0;
  Rig rig(2, 1, {{Action::broadcast(0, data_msg(1))}, {Action::listen(0)}},
          total_loss);
  rig.network->step();
  EXPECT_TRUE(rig.node(0).feedback_[0].tx_success);
  EXPECT_TRUE(rig.node(1).feedback_[0].received.empty());
}

// Reference differential through run() with a protocol that reacts to
// feedback: a CogCast node that hears the message changes what it does
// next, so any SlotResult the engine builds differently from the
// reference (a lost delivery, a wrong tx flag, a stale rx view) changes
// the run. Under every collision model the two engines must agree on the
// stopping slot, the observer stream, TraceStats, per-node activity, and
// each node's informed slot and parent.
TEST(Network, CogCastRunBitIdenticalAcrossLayouts) {
  struct RunTrace {
    std::vector<ResolvedAction> actions;
    TraceStats stats;
    std::vector<NodeActivity> activity;
    std::vector<Slot> informed_slot;
    std::vector<NodeId> parent;
    Slot done_at = 0;
  };
  const auto run_once = [](auto engine, CollisionModel model) {
    using Engine = typename decltype(engine)::type;
    const int n = 48, c = 8, k = 2;
    SharedCoreAssignment assignment(n, c, k, LabelMode::LocalRandom, Rng(21));
    Message payload;
    payload.type = MessageType::Data;
    payload.a = 7;
    Rng seeder(22);
    std::vector<std::unique_ptr<CogCastNode>> nodes;
    std::vector<Protocol*> protocols;
    for (NodeId u = 0; u < n; ++u) {
      nodes.push_back(std::make_unique<CogCastNode>(
          u, c, u == 0, payload,
          seeder.split(static_cast<std::uint64_t>(u))));
      protocols.push_back(nodes.back().get());
    }
    NetworkOptions opt;
    opt.collision = model;
    opt.seed = 23;
    Engine net(assignment, protocols, opt);
    RunTrace trace;
    net.set_observer([&](Slot, std::span<const ResolvedAction> actions) {
      trace.actions.insert(trace.actions.end(), actions.begin(),
                           actions.end());
    });
    trace.done_at = net.run(5000);
    trace.stats = net.stats();
    for (NodeId u = 0; u < n; ++u) trace.activity.push_back(net.activity(u));
    for (const auto& node : nodes) {
      trace.informed_slot.push_back(node->informed_slot());
      trace.parent.push_back(node->parent());
    }
    return trace;
  };

  for (const CollisionModel model :
       {CollisionModel::OneWinner, CollisionModel::AllDelivered,
        CollisionModel::CollisionLoss}) {
    SCOPED_TRACE(static_cast<int>(model));
    const RunTrace net = run_once(std::type_identity<Network>{}, model);
    const RunTrace ref =
        run_once(std::type_identity<ReferenceNetwork>{}, model);

    EXPECT_EQ(net.done_at, ref.done_at);
    EXPECT_EQ(net.stats, ref.stats);
    EXPECT_EQ(net.activity, ref.activity);
    EXPECT_EQ(net.informed_slot, ref.informed_slot);
    EXPECT_EQ(net.parent, ref.parent);
    ASSERT_EQ(net.actions.size(), ref.actions.size());
    for (std::size_t i = 0; i < net.actions.size(); ++i)
      ASSERT_EQ(net.actions[i], ref.actions[i]) << "action " << i;
    // The broadcast spread beyond the source, so feedback steered the run.
    EXPECT_GT(net.stats.deliveries, 0);
  }
}

// Offers random traffic and appends its id to a log every node shares,
// once per on_feedback call.
class FeedbackLogNode : public Protocol {
 public:
  FeedbackLogNode(NodeId id, int c, Rng rng, std::vector<NodeId>* log)
      : id_(id), c_(c), rng_(rng), log_(log) {}

  Action on_slot(Slot) override {
    const auto label = static_cast<LocalLabel>(
        rng_.below(static_cast<std::uint64_t>(c_)));
    return rng_.chance(0.5) ? Action::broadcast(label, data_msg(id_))
                            : Action::listen(label);
  }
  void on_feedback(Slot, const SlotResult&) override { log_->push_back(id_); }
  bool done() const override { return false; }

 private:
  NodeId id_;
  int c_;
  Rng rng_;
  std::vector<NodeId>* log_;
};

// The feedback-order contract (DETERMINISM.md): every slot calls
// on_feedback once per node in ascending node order, under every
// collision model and on both engines — AllDelivered listeners included.
TEST(Network, FeedbackRunsInAscendingNodeOrder) {
  const int n = 24, c = 4, k = 2;
  std::vector<NodeId> ascending;
  for (NodeId u = 0; u < n; ++u) ascending.push_back(u);
  const auto check = [&](auto engine, CollisionModel model) {
    using Engine = typename decltype(engine)::type;
    SharedCoreAssignment assignment(n, c, k, LabelMode::LocalRandom, Rng(61));
    std::vector<NodeId> log;
    Rng seeder(62);
    std::vector<std::unique_ptr<FeedbackLogNode>> nodes;
    std::vector<Protocol*> protocols;
    for (NodeId u = 0; u < n; ++u) {
      nodes.push_back(std::make_unique<FeedbackLogNode>(
          u, c, seeder.split(static_cast<std::uint64_t>(u)), &log));
      protocols.push_back(nodes.back().get());
    }
    NetworkOptions opt;
    opt.collision = model;
    opt.seed = 63;
    Engine net(assignment, protocols, opt);
    for (Slot slot = 1; slot <= 16; ++slot) {
      log.clear();
      net.step();
      ASSERT_EQ(log, ascending) << "slot " << slot;
    }
    EXPECT_GT(net.stats().deliveries, 0);
  };
  for (const CollisionModel model :
       {CollisionModel::OneWinner, CollisionModel::AllDelivered,
        CollisionModel::CollisionLoss}) {
    SCOPED_TRACE(::testing::Message() << "model " << static_cast<int>(model));
    {
      SCOPED_TRACE("network");
      check(std::type_identity<Network>{}, model);
    }
    {
      SCOPED_TRACE("reference");
      check(std::type_identity<ReferenceNetwork>{}, model);
    }
  }
}

// Records every observe() handoff and jams one fixed (node, channel) pair.
class RecordingJammer : public Jammer {
 public:
  RecordingJammer(NodeId jam_node, Channel jam_channel)
      : jam_node_(jam_node), jam_channel_(jam_channel) {}

  void begin_slot(Slot) override {}
  bool is_jammed(NodeId node, Channel channel) const override {
    return node == jam_node_ && channel == jam_channel_;
  }
  void observe(Slot, std::span<const Channel> node_channels) override {
    observed_.emplace_back(node_channels.begin(), node_channels.end());
  }

  std::vector<std::vector<Channel>> observed_;  // per slot

 private:
  NodeId jam_node_;
  Channel jam_channel_;
};

// The engine skips its per-slot used_channel_ fill entirely when no
// jammer is attached; with one attached, it and the reference must hand
// observe() the exact physical channel per node (kNoChannel when idle) and
// apply jam cutoffs identically.
TEST(Network, JammerObserveHandoffIdenticalAcrossLayouts) {
  struct JamRun {
    std::vector<std::vector<Channel>> observed;
    std::vector<ScriptedNode::Feedback> fb0, fb1, fb2;
    TraceStats stats;
  };
  const auto run_once = [](auto engine) {
    using Engine = typename decltype(engine)::type;
    NetworkOptions opt;
    opt.seed = 47;
    EngineRig<Engine> rig(3, 3,
            {{Action::broadcast(0, data_msg(1)), Action::listen(1)},
             {Action::listen(0), Action::idle()},
             {Action::idle(), Action::broadcast(1, data_msg(2))}},
            opt);
    RecordingJammer jammer(/*jam_node=*/1, /*jam_channel=*/0);
    rig.network->set_jammer(&jammer);
    rig.network->step();
    rig.network->step();
    return JamRun{jammer.observed_, rig.node(0).feedback_,
                  rig.node(1).feedback_, rig.node(2).feedback_,
                  rig.network->stats()};
  };

  const JamRun net = run_once(std::type_identity<Network>{});
  const JamRun ref = run_once(std::type_identity<ReferenceNetwork>{});

  // Content check (both engines): observe() sees physical channels, with
  // kNoChannel for idle nodes, and the jammed listener is cut off.
  for (const JamRun* run : {&net, &ref}) {
    ASSERT_EQ(run->observed.size(), 2u);
    EXPECT_EQ(run->observed[0], (std::vector<Channel>{0, 0, kNoChannel}));
    EXPECT_EQ(run->observed[1], (std::vector<Channel>{1, kNoChannel, 1}));
    EXPECT_TRUE(run->fb0[0].tx_success);  // sole broadcaster, listener jammed
    EXPECT_TRUE(run->fb1[0].jammed);
    EXPECT_TRUE(run->fb1[0].received.empty());
    ASSERT_EQ(run->fb0[1].received.size(), 1u);  // slot 2: node 2 -> node 0
    EXPECT_EQ(run->fb0[1].received[0].a, 2);
    EXPECT_EQ(run->stats.jammed_node_slots, 1);
  }

  // Reference differential: the jammer-attached path must be bit-identical.
  EXPECT_EQ(net.observed, ref.observed);
  EXPECT_EQ(net.stats, ref.stats);
  for (std::size_t s = 0; s < 2; ++s) {
    for (const auto& pair :
         {std::pair{&net.fb0, &ref.fb0}, std::pair{&net.fb1, &ref.fb1},
          std::pair{&net.fb2, &ref.fb2}}) {
      const ScriptedNode::Feedback& a = (*pair.first)[s];
      const ScriptedNode::Feedback& b = (*pair.second)[s];
      EXPECT_EQ(a.jammed, b.jammed) << "slot " << s;
      EXPECT_EQ(a.tx_attempted, b.tx_attempted) << "slot " << s;
      EXPECT_EQ(a.tx_success, b.tx_success) << "slot " << s;
      ASSERT_EQ(a.received.size(), b.received.size()) << "slot " << s;
      for (std::size_t m = 0; m < a.received.size(); ++m) {
        EXPECT_EQ(a.received[m].a, b.received[m].a);
        EXPECT_EQ(a.received[m].sender, b.received[m].sender);
      }
    }
  }
}

// Steady-state step() must not disturb semantics when scratch buffers are
// reused across slots: a long run through the same network object matches a
// fresh network replayed to the same slot.
TEST(Network, ScratchReuseMatchesFreshReplay) {
  const auto run_to = [](Slot slots) {
    const int n = 24, c = 6, k = 2;
    SharedCoreAssignment assignment(n, c, k, LabelMode::LocalRandom, Rng(31));
    Message payload;
    payload.type = MessageType::Data;
    Rng seeder(32);
    std::vector<std::unique_ptr<CogCastNode>> nodes;
    std::vector<Protocol*> protocols;
    for (NodeId u = 0; u < n; ++u) {
      nodes.push_back(std::make_unique<CogCastNode>(
          u, c, u == 0, payload,
          seeder.split(static_cast<std::uint64_t>(u))));
      protocols.push_back(nodes.back().get());
    }
    NetworkOptions opt;
    opt.seed = 33;
    Network net(assignment, protocols, opt);
    for (Slot s = 0; s < slots; ++s) net.step();
    TraceStats stats = net.stats();
    return stats;
  };
  const TraceStats full = run_to(200);
  const TraceStats replay = run_to(200);
  EXPECT_EQ(full.broadcasts, replay.broadcasts);
  EXPECT_EQ(full.successes, replay.successes);
  EXPECT_EQ(full.deliveries, replay.deliveries);
  EXPECT_EQ(full.collision_events, replay.collision_events);
}

TEST(Network, DeterministicGivenSeed) {
  auto run_once = [](std::uint64_t seed) {
    NetworkOptions opt;
    opt.seed = seed;
    Rig rig(3, 1,
            {{Action::broadcast(0, data_msg(1))},
             {Action::broadcast(0, data_msg(2))},
             {Action::listen(0)}},
            opt);
    rig.network->step();
    return rig.node(2).feedback_[0].received[0].a;
  };
  EXPECT_EQ(run_once(5), run_once(5));
}

}  // namespace
}  // namespace cogradio
