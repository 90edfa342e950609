// Tests for verified broadcast (core/verified_broadcast.h): the CogComp
// certificate over CogCast's outcome.
#include "core/verified_broadcast.h"

#include <gtest/gtest.h>

#include <memory>

#include "sim/assignment.h"
#include "sim/fault_engine.h"
#include "sim/network.h"

namespace cogradio {
namespace {

Message data_msg() {
  Message m;
  m.type = MessageType::Data;
  m.a = 7;
  return m;
}

struct Run {
  std::vector<std::unique_ptr<VerifiedBroadcastNode>> nodes;
  Slot slots = 0;
  bool all_done = false;
};

Run run_verified(int n, int c, int k, std::uint64_t seed,
                 int nodes_missing_broadcast = 0) {
  Run run;
  const VerifiedBroadcastParams params{n, c, k, 4.0};
  SharedCoreAssignment assignment(n, c, k, LabelMode::LocalRandom, Rng(seed));
  Rng seeder(seed * 11 + 1);
  std::vector<Protocol*> protocols;
  FaultEngine faults(n, c, Rng(seed));
  for (NodeId u = 0; u < n; ++u) {
    run.nodes.push_back(std::make_unique<VerifiedBroadcastNode>(
        u, params, u == 0, data_msg(),
        seeder.split(static_cast<std::uint64_t>(u))));
    protocols.push_back(run.nodes.back().get());
    // Sabotage: the last `nodes_missing_broadcast` nodes sleep through the
    // entire broadcast phase, then rejoin for the verification round.
    if (u >= n - nodes_missing_broadcast)
      faults.add(u, FaultKind::Churn, 1, params.broadcast_end() + 1);
  }
  NetworkOptions opt;
  opt.seed = seed + 3;
  Network network(assignment, protocols, opt);
  network.set_fault_engine(&faults);
  run.slots = network.run(params.max_slots());
  run.all_done = network.all_done();
  return run;
}

TEST(VerifiedBroadcast, CertifiesACompleteBroadcast) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto run = run_verified(16, 6, 2, seed);
    ASSERT_TRUE(run.all_done) << "seed " << seed;
    EXPECT_TRUE(run.nodes[0]->verified()) << "seed " << seed;
    EXPECT_EQ(run.nodes[0]->certified_informed(), 16);
    for (const auto& node : run.nodes) EXPECT_TRUE(node->informed());
  }
}

TEST(VerifiedBroadcast, CountsMissedNodesExactly) {
  // Three nodes sleep through the broadcast; the certificate must say
  // exactly n-3 and verification must fail.
  const int n = 16, missing = 3;
  const auto run = run_verified(n, 6, 2, 5, missing);
  ASSERT_TRUE(run.all_done);
  EXPECT_FALSE(run.nodes[0]->verified());
  EXPECT_EQ(run.nodes[0]->certified_informed(), n - missing);
}

TEST(VerifiedBroadcast, StaysWithinTheFixedBudget) {
  const VerifiedBroadcastParams params{20, 8, 2, 4.0};
  const auto run = run_verified(20, 8, 2, 9);
  ASSERT_TRUE(run.all_done);
  EXPECT_LE(run.slots, params.max_slots());
  EXPECT_GT(run.slots, params.broadcast_end());
}

TEST(VerifiedBroadcast, PayloadSurvivesTheComposition) {
  const auto run = run_verified(10, 6, 3, 13);
  ASSERT_TRUE(run.all_done);
  for (const auto& node : run.nodes) EXPECT_EQ(node->payload().a, 7);
}

TEST(VerifiedBroadcast, NonSourceNodesReportNothing) {
  const auto run = run_verified(8, 6, 2, 17);
  ASSERT_TRUE(run.all_done);
  EXPECT_FALSE(run.nodes[3]->verified());
  EXPECT_EQ(run.nodes[3]->certified_informed(), 0);
}

}  // namespace
}  // namespace cogradio
