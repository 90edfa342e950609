// Tests for execution recording and deterministic replay (sim/recorder.h).
#include "sim/recorder.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/cogcast.h"
#include "core/cogcomp.h"
#include "core/consensus.h"
#include "core/gossip.h"
#include "core/multihop_cast.h"
#include "core/multihop_converge.h"
#include "core/runtime.h"
#include "core/verified_broadcast.h"
#include "sim/assignment.h"
#include "sim/topology.h"

namespace cogradio {
namespace {

Message data_msg() {
  Message m;
  m.type = MessageType::Data;
  return m;
}

void run_cogcast_recorded(ExecutionRecorder& rec, std::uint64_t seed) {
  SharedCoreAssignment assignment(10, 6, 2, LabelMode::LocalRandom, Rng(3));
  Rng seeder(seed);
  std::vector<std::unique_ptr<CogCastNode>> nodes;
  std::vector<Protocol*> protocols;
  for (NodeId u = 0; u < 10; ++u) {
    nodes.push_back(std::make_unique<CogCastNode>(
        u, 6, u == 0, data_msg(), seeder.split(static_cast<std::uint64_t>(u))));
    protocols.push_back(nodes.back().get());
  }
  NetworkOptions opt;
  opt.seed = seed + 7;
  Network net(assignment, protocols, opt);
  rec.attach(net);
  net.run(10'000);
}

TEST(Recorder, CapturesParticipatingNodes) {
  ExecutionRecorder rec;
  run_cogcast_recorded(rec, 1);
  ASSERT_FALSE(rec.log().empty());
  for (const auto& a : rec.log()) {
    EXPECT_NE(a.mode, Mode::Idle);
    EXPECT_GE(a.node, 0);
    EXPECT_LT(a.node, 10);
    EXPECT_GE(a.channel, 0);
  }
}

TEST(Recorder, SameSeedIdenticalLog) {
  EXPECT_TRUE(verify_replay([](ExecutionRecorder& rec) {
    run_cogcast_recorded(rec, 42);
  }));
}

TEST(Recorder, DifferentSeedsDiverge) {
  ExecutionRecorder a, b;
  run_cogcast_recorded(a, 1);
  run_cogcast_recorded(b, 2);
  EXPECT_NE(ExecutionRecorder::first_divergence(a.log(), b.log()), -1);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Recorder, FingerprintStableForEqualLogs) {
  ExecutionRecorder a, b;
  run_cogcast_recorded(a, 9);
  run_cogcast_recorded(b, 9);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(Recorder, SerializePinsTheTextFormat) {
  // `cograd record` prints this format; pin it byte for byte on a short
  // fixed log. The idle node is skipped (record_idle is off).
  ExecutionRecorder rec;
  const std::vector<ResolvedAction> slot3{
      {0, Mode::Broadcast, 5, false, true},
      {1, Mode::Listen, 5, false, false},
      {2, Mode::Idle, kNoChannel, false, false}};
  const std::vector<ResolvedAction> slot4{{12, Mode::Listen, 0, true, false}};
  rec.record(3, slot3);
  rec.record(4, slot4);
  EXPECT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.serialize(),
            "3 0 B 5 0 1\n"
            "3 1 L 5 0 0\n"
            "4 12 L 0 1 0\n");
}

TEST(Recorder, FirstDivergencePinpointsTheSlot) {
  std::vector<RecordedAction> a{{1, 0, Mode::Listen, 2, false, false},
                                {2, 0, Mode::Broadcast, 1, false, true}};
  auto b = a;
  EXPECT_EQ(ExecutionRecorder::first_divergence(a, b), -1);
  b[1].channel = 3;
  EXPECT_EQ(ExecutionRecorder::first_divergence(a, b), 1);
  b.pop_back();
  EXPECT_EQ(ExecutionRecorder::first_divergence(a, b), 1);
}

TEST(Recorder, CogCompReplaysDeterministically) {
  EXPECT_TRUE(verify_replay([](ExecutionRecorder& rec) {
    SharedCoreAssignment assignment(12, 6, 2, LabelMode::LocalRandom, Rng(8));
    const CogCompParams params{12, 6, 2, 4.0};
    Rng seeder(11);
    std::vector<std::unique_ptr<CogCompNode>> nodes;
    std::vector<Protocol*> protocols;
    const auto values = make_values(12, 4);
    for (NodeId u = 0; u < 12; ++u) {
      nodes.push_back(std::make_unique<CogCompNode>(
          u, params, u == 0, values[static_cast<std::size_t>(u)],
          Aggregator(AggOp::Sum), seeder.split(static_cast<std::uint64_t>(u))));
      protocols.push_back(nodes.back().get());
    }
    NetworkOptions opt;
    opt.seed = 21;
    Network net(assignment, protocols, opt);
    rec.attach(net);
    net.run(params.max_slots());
  }));
}

// Determinism coverage for every remaining protocol in the repository:
// each workload below builds its network from explicit seeds only, so two
// executions must produce identical action logs.

TEST(Recorder, GossipReplaysDeterministically) {
  EXPECT_TRUE(verify_replay([](ExecutionRecorder& rec) {
    SharedCoreAssignment assignment(10, 5, 2, LabelMode::LocalRandom, Rng(6));
    Rng seeder(13);
    std::vector<std::unique_ptr<GossipNode>> nodes;
    std::vector<Protocol*> protocols;
    for (NodeId u = 0; u < 10; ++u) {
      nodes.push_back(std::make_unique<GossipNode>(
          u, 5, 10, static_cast<Value>(u) + 1,
          seeder.split(static_cast<std::uint64_t>(u))));
      protocols.push_back(nodes.back().get());
    }
    NetworkOptions opt;
    opt.seed = 29;
    Network net(assignment, protocols, opt);
    rec.attach(net);
    net.run(20'000);
  }));
}

TEST(Recorder, VerifiedBroadcastReplaysDeterministically) {
  EXPECT_TRUE(verify_replay([](ExecutionRecorder& rec) {
    const VerifiedBroadcastParams params{10, 5, 2, 4.0};
    SharedCoreAssignment assignment(10, 5, 2, LabelMode::LocalRandom, Rng(7));
    Rng seeder(17);
    std::vector<std::unique_ptr<VerifiedBroadcastNode>> nodes;
    std::vector<Protocol*> protocols;
    for (NodeId u = 0; u < 10; ++u) {
      nodes.push_back(std::make_unique<VerifiedBroadcastNode>(
          u, params, u == 0, data_msg(),
          seeder.split(static_cast<std::uint64_t>(u))));
      protocols.push_back(nodes.back().get());
    }
    NetworkOptions opt;
    opt.seed = 31;
    Network net(assignment, protocols, opt);
    rec.attach(net);
    net.run(params.max_slots());
  }));
}

TEST(Recorder, ConsensusReplaysDeterministically) {
  EXPECT_TRUE(verify_replay([](ExecutionRecorder& rec) {
    const ConsensusParams params{10, 5, 2, 4.0};
    SharedCoreAssignment assignment(10, 5, 2, LabelMode::LocalRandom, Rng(9));
    const auto proposals = make_values(10, 3, 0, 99);
    Rng seeder(23);
    std::vector<std::unique_ptr<CogConsensusNode>> nodes;
    std::vector<Protocol*> protocols;
    for (NodeId u = 0; u < 10; ++u) {
      nodes.push_back(std::make_unique<CogConsensusNode>(
          u, params, u == 0, proposals[static_cast<std::size_t>(u)],
          min_consensus(), seeder.split(static_cast<std::uint64_t>(u))));
      protocols.push_back(nodes.back().get());
    }
    NetworkOptions opt;
    opt.seed = 37;
    Network net(assignment, protocols, opt);
    rec.attach(net);
    net.run(params.max_slots());
  }));
}

TEST(Recorder, MultihopCastReplaysDeterministically) {
  EXPECT_TRUE(verify_replay([](ExecutionRecorder& rec) {
    const Topology topo = Topology::ring(12);
    SharedCoreAssignment assignment(12, 4, 2, LabelMode::LocalRandom, Rng(5));
    const int levels =
        MultihopCastNode::suggested_decay_levels(topo.max_degree());
    Rng seeder(19);
    std::vector<std::unique_ptr<MultihopCastNode>> nodes;
    std::vector<Protocol*> protocols;
    for (NodeId u = 0; u < 12; ++u) {
      nodes.push_back(std::make_unique<MultihopCastNode>(
          u, 4, u == 0, data_msg(), levels,
          seeder.split(static_cast<std::uint64_t>(u))));
      protocols.push_back(nodes.back().get());
    }
    MultihopNetwork net(assignment, topo, protocols);
    rec.attach(net);
    net.run(5'000);
  }));
}

TEST(Recorder, MultihopConvergeReplaysDeterministically) {
  EXPECT_TRUE(verify_replay([](ExecutionRecorder& rec) {
    const Topology topo = Topology::ring(10);
    SharedCoreAssignment assignment(10, 4, 2, LabelMode::LocalRandom, Rng(3));
    MultihopConvergeParams params;
    params.n = 10;
    params.c = 4;
    params.max_depth = 9;
    params.decay_levels =
        MultihopCastNode::suggested_decay_levels(topo.max_degree());
    const double lg = std::log2(10.0);
    params.flood_slots = static_cast<Slot>(
        8.0 * (topo.diameter() + 1) * params.decay_levels * lg);
    params.epoch_steps = static_cast<Slot>(8.0 * params.decay_levels * lg);
    Rng seeder(27);
    std::vector<std::unique_ptr<MultihopConvergeNode>> nodes;
    std::vector<Protocol*> protocols;
    for (NodeId u = 0; u < 10; ++u) {
      nodes.push_back(std::make_unique<MultihopConvergeNode>(
          u, params, u == 0, static_cast<Value>(u) * 2 + 1,
          Aggregator(AggOp::Sum), seeder.split(static_cast<std::uint64_t>(u))));
      protocols.push_back(nodes.back().get());
    }
    MultihopNetwork net(assignment, topo, protocols);
    rec.attach(net);
    net.run(params.max_slots());
  }));
}

TEST(Recorder, IdleRecordingOptIn) {
  ExecutionRecorder with_idle;
  SharedCoreAssignment assignment(4, 4, 2, LabelMode::LocalRandom, Rng(2));
  CogCastNode source(0, 4, true, data_msg(), Rng(3), /*horizon=*/2);
  CogCastNode sink1(1, 4, false, data_msg(), Rng(4), 2);
  CogCastNode sink2(2, 4, false, data_msg(), Rng(5), 2);
  CogCastNode sink3(3, 4, false, data_msg(), Rng(6), 2);
  Network net(assignment, {&source, &sink1, &sink2, &sink3});
  with_idle.attach(net, /*record_idle=*/true);
  for (int i = 0; i < 4; ++i) net.step();  // past the horizon -> idle slots
  int idles = 0;
  for (const auto& a : with_idle.log())
    if (a.mode == Mode::Idle) ++idles;
  EXPECT_GT(idles, 0);
}

}  // namespace
}  // namespace cogradio
