// Engine fuzzing: oblivious random traffic hammers the network for many
// slots while sim/invariants.h's InvariantChecker — attached as the slot
// observer, with every protocol tapped — cross-checks the collision model
// externally: winner uniqueness, delivery semantics, jamming opacity, and
// the TraceStats/NodeActivity accounting identities (docs/MODEL.md,
// "Checked invariants"). The checker replaces this file's original
// hand-rolled oracle; the coverage here is a superset (all three collision
// models, backoff emulation, and fading are exercised).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "harness/proptest.h"
#include "sim/assignment.h"
#include "sim/invariants.h"
#include "sim/jamming.h"
#include "sim/network.h"

namespace cogradio {
namespace {

void fuzz_run(int n, int c, int k, std::uint64_t seed, Jammer* jammer,
              int slots, NetworkOptions opt = {}) {
  SharedCoreAssignment assignment(n, c, k, LabelMode::LocalRandom, Rng(seed));
  Rng seeder(seed + 1);
  std::vector<std::unique_ptr<RandomTrafficNode>> nodes;
  std::vector<Protocol*> protocols;
  InvariantChecker checker;
  for (NodeId u = 0; u < n; ++u) {
    nodes.push_back(std::make_unique<RandomTrafficNode>(
        c, seeder.split(static_cast<std::uint64_t>(u))));
    protocols.push_back(checker.tap(*nodes.back()));
  }
  opt.seed = seed + 2;
  Network net(assignment, protocols, opt);
  if (jammer != nullptr) net.set_jammer(jammer);
  checker.attach(net);

  for (int s = 0; s < slots; ++s) net.step();

  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_EQ(checker.slots_checked(), slots);
}

TEST(NetworkFuzz, InvariantsHoldOverRandomTraffic) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed)
    fuzz_run(12, 5, 2, seed, nullptr, 400);
}

TEST(NetworkFuzz, InvariantsHoldWithBigGroups) {
  // Few channels, many nodes: heavy contention every slot.
  fuzz_run(40, 2, 1, 77, nullptr, 300);
}

TEST(NetworkFuzz, InvariantsHoldUnderJamming) {
  RandomJammer jammer(12, 10, 3, Rng(9));
  fuzz_run(12, 5, 2, 123, &jammer, 400);
}

TEST(NetworkFuzz, SingleNodeNeverReceives) {
  fuzz_run(1, 4, 2, 5, nullptr, 200);
}

TEST(NetworkFuzz, InvariantsHoldUnderBackoffEmulation) {
  NetworkOptions opt;
  opt.emulate_backoff = true;
  opt.backoff = backoff_params_for(12);
  fuzz_run(12, 5, 2, 31, nullptr, 400, opt);
}

TEST(NetworkFuzz, InvariantsHoldUnderBackoffWithJamming) {
  NetworkOptions opt;
  opt.emulate_backoff = true;
  opt.backoff = backoff_params_for(16);
  RandomJammer jammer(16, 10, 2, Rng(4));
  fuzz_run(16, 5, 2, 57, &jammer, 300, opt);
}

TEST(NetworkFuzz, InvariantsHoldOnAllDeliveredModel) {
  NetworkOptions opt;
  opt.collision = CollisionModel::AllDelivered;
  fuzz_run(14, 4, 2, 19, nullptr, 400, opt);
}

TEST(NetworkFuzz, InvariantsHoldOnCollisionLossModel) {
  NetworkOptions opt;
  opt.collision = CollisionModel::CollisionLoss;
  fuzz_run(14, 4, 2, 23, nullptr, 400, opt);
}

TEST(NetworkFuzz, InvariantsHoldUnderFading) {
  NetworkOptions opt;
  opt.loss_prob = 0.25;
  fuzz_run(12, 5, 2, 41, nullptr, 400, opt);
}

}  // namespace
}  // namespace cogradio
