// Tests for the slot-level invariant oracle (sim/invariants.h): clean
// executions must pass on every collision model, and — the mutation smoke
// test — a deliberately mis-wired engine (two winners on one channel, via
// NetworkOptions::testonly_duplicate_winner) must be caught. The latter is
// what makes the oracle trustworthy: it proves the checks are live, not
// vacuously green.
#include "sim/invariants.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/cogcast.h"
#include "harness/proptest.h"
#include "sim/assignment.h"
#include "sim/jamming.h"

namespace cogradio {
namespace {

struct FuzzRig {
  std::unique_ptr<SharedCoreAssignment> assignment;
  std::vector<std::unique_ptr<RandomTrafficNode>> nodes;
  std::vector<Protocol*> protocols;
  InvariantChecker checker;

  FuzzRig(int n, int c, int k, std::uint64_t seed, bool tapped = true) {
    assignment = std::make_unique<SharedCoreAssignment>(
        n, c, k, LabelMode::LocalRandom, Rng(seed));
    Rng seeder(seed + 1);
    for (NodeId u = 0; u < n; ++u) {
      nodes.push_back(std::make_unique<RandomTrafficNode>(
          c, seeder.split(static_cast<std::uint64_t>(u))));
      protocols.push_back(tapped ? checker.tap(*nodes.back())
                                 : nodes.back().get());
    }
  }
};

TEST(InvariantChecker, CleanRunPassesEveryModel) {
  for (int variant = 0; variant < 4; ++variant) {
    FuzzRig rig(14, 4, 2, 100 + static_cast<std::uint64_t>(variant));
    NetworkOptions opt;
    opt.seed = 900 + static_cast<std::uint64_t>(variant);
    if (variant == 1) {
      opt.emulate_backoff = true;
      opt.backoff = backoff_params_for(14);
    } else if (variant == 2) {
      opt.collision = CollisionModel::AllDelivered;
    } else if (variant == 3) {
      opt.collision = CollisionModel::CollisionLoss;
    }
    Network net(*rig.assignment, rig.protocols, opt);
    rig.checker.attach(net);
    for (int s = 0; s < 300; ++s) net.step();
    EXPECT_TRUE(rig.checker.ok())
        << "variant " << variant << ": " << rig.checker.report();
    EXPECT_EQ(rig.checker.slots_checked(), 300);
    EXPECT_EQ(rig.checker.violations(), 0);
    EXPECT_TRUE(rig.checker.first_violation().empty());
  }
}

TEST(InvariantChecker, CleanRunPassesWithJammingAndFading) {
  FuzzRig rig(12, 5, 2, 7);
  NetworkOptions opt;
  opt.seed = 11;
  opt.loss_prob = 0.3;
  Network net(*rig.assignment, rig.protocols, opt);
  RandomJammer jammer(12, rig.assignment->total_channels(), 2, Rng(5));
  net.set_jammer(&jammer);
  rig.checker.attach(net);
  for (int s = 0; s < 300; ++s) net.step();
  EXPECT_TRUE(rig.checker.ok()) << rig.checker.report();
}

TEST(InvariantChecker, WorksUntappedOnRealProtocols) {
  // Without taps the structural + accounting checks still run (delivery
  // semantics need the taps); a real protocol run must pass them.
  SharedCoreAssignment assignment(10, 6, 2, LabelMode::LocalRandom, Rng(3));
  Message payload;
  payload.type = MessageType::Data;
  Rng seeder(5);
  std::vector<std::unique_ptr<CogCastNode>> nodes;
  std::vector<Protocol*> protocols;
  for (NodeId u = 0; u < 10; ++u) {
    nodes.push_back(std::make_unique<CogCastNode>(
        u, 6, u == 0, payload, seeder.split(static_cast<std::uint64_t>(u))));
    protocols.push_back(nodes.back().get());
  }
  Network net(assignment, protocols);
  InvariantChecker checker;
  checker.attach(net);
  net.run(10'000);
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(checker.slots_checked(), 0);
}

TEST(InvariantChecker, MutationSmokeCatchesDuplicateWinner) {
  // One channel, many always-broadcasting-ish nodes: contention every few
  // slots, so the mis-wiring fires quickly.
  FuzzRig rig(10, 1, 1, 42);
  NetworkOptions opt;
  opt.seed = 77;
  opt.testonly_duplicate_winner = true;
  Network net(*rig.assignment, rig.protocols, opt);
  rig.checker.attach(net);
  for (int s = 0; s < 100; ++s) net.step();
  ASSERT_FALSE(rig.checker.ok())
      << "mutation not detected: the oracle is vacuous";
  EXPECT_GT(rig.checker.violations(), 0);
  // The primary symptom must be the model violation itself.
  EXPECT_NE(rig.checker.first_violation().find("winner"), std::string::npos)
      << rig.checker.first_violation();
  EXPECT_NE(rig.checker.report().find("slot "), std::string::npos);
}

TEST(InvariantChecker, MutationCaughtWithoutTapsToo) {
  FuzzRig rig(10, 1, 1, 43, /*tapped=*/false);
  NetworkOptions opt;
  opt.seed = 78;
  opt.testonly_duplicate_winner = true;
  Network net(*rig.assignment, rig.protocols, opt);
  rig.checker.attach(net);
  for (int s = 0; s < 100; ++s) net.step();
  EXPECT_FALSE(rig.checker.ok());
}

TEST(InvariantChecker, FingerprintMatchesAcrossEngines) {
  // Oblivious traffic: identical action streams on the plain and
  // backoff-emulating engines for the same seeds (winner coins differ,
  // but the fingerprint excludes them by design).
  std::uint64_t fp[2] = {0, 0};
  for (int engine = 0; engine < 2; ++engine) {
    FuzzRig rig(12, 4, 2, 55);
    NetworkOptions opt;
    opt.seed = 66;
    if (engine == 1) {
      opt.emulate_backoff = true;
      opt.backoff = backoff_params_for(12);
    }
    Network net(*rig.assignment, rig.protocols, opt);
    rig.checker.attach(net);
    for (int s = 0; s < 200; ++s) net.step();
    ASSERT_TRUE(rig.checker.ok()) << rig.checker.report();
    fp[engine] = rig.checker.action_fingerprint();
  }
  EXPECT_EQ(fp[0], fp[1]);
}

TEST(InvariantChecker, PartialTapSetIsRejected) {
  FuzzRig rig(4, 2, 1, 3, /*tapped=*/false);
  // Tap only half the nodes: attach must refuse the partial set.
  rig.protocols[0] = rig.checker.tap(*rig.nodes[0]);
  rig.protocols[1] = rig.checker.tap(*rig.nodes[1]);
  Network net(*rig.assignment, rig.protocols);
  EXPECT_THROW(rig.checker.attach(net), std::invalid_argument);
}

}  // namespace
}  // namespace cogradio
