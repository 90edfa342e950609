// Tests for the runtime helpers (core/runtime.h).
#include "core/runtime.h"

#include <gtest/gtest.h>

#include "sim/assignment.h"

namespace cogradio {
namespace {

TEST(ValidTree, AcceptsAProperTree) {
  // Tree: 0 (source, slot 0) -> children 1 (slot 1) and 2 (slot 2);
  //       2 -> child 3 (slot 3).
  const std::vector<Slot> informed{0, 1, 2, 3};
  const std::vector<NodeId> parent{kNoNode, 0, 0, 2};
  EXPECT_TRUE(valid_distribution_tree(0, informed, parent));
}

TEST(ValidTree, RejectsUninformedNode) {
  const std::vector<Slot> informed{0, kNoSlot};
  const std::vector<NodeId> parent{kNoNode, 0};
  EXPECT_FALSE(valid_distribution_tree(0, informed, parent));
}

TEST(ValidTree, RejectsParentInformedLater) {
  const std::vector<Slot> informed{0, 5, 3};
  const std::vector<NodeId> parent{kNoNode, 2, 1};  // 2's parent informed at 5 > 3
  EXPECT_FALSE(valid_distribution_tree(0, informed, parent));
}

TEST(ValidTree, RejectsSelfParentCycle) {
  const std::vector<Slot> informed{0, 2, 2};
  const std::vector<NodeId> parent{kNoNode, 2, 1};
  EXPECT_FALSE(valid_distribution_tree(0, informed, parent));
}

TEST(ValidTree, RejectsBadSourceState) {
  const std::vector<Slot> informed{1, 2};
  const std::vector<NodeId> parent{kNoNode, 0};
  EXPECT_FALSE(valid_distribution_tree(0, informed, parent));
  const std::vector<Slot> informed2{0, 2};
  const std::vector<NodeId> parent2{1, 0};
  EXPECT_FALSE(valid_distribution_tree(0, informed2, parent2));
}

TEST(ValidTree, RejectsOutOfRangeParent) {
  const std::vector<Slot> informed{0, 1};
  const std::vector<NodeId> parent{kNoNode, 9};
  EXPECT_FALSE(valid_distribution_tree(0, informed, parent));
}

TEST(MakeValues, DeterministicAndInRange) {
  const auto a = make_values(100, 42, -5, 5);
  const auto b = make_values(100, 42, -5, 5);
  EXPECT_EQ(a, b);
  for (Value v : a) {
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  const auto c = make_values(100, 43, -5, 5);
  EXPECT_NE(a, c);
}

TEST(RunCogCast, ReproducibleGivenSeed) {
  auto once = [](std::uint64_t seed) {
    SharedCoreAssignment assignment(16, 6, 2, LabelMode::LocalRandom, Rng(5));
    CogCastRunConfig config;
    config.params = {16, 6, 2};
    config.seed = seed;
    return run_cogcast(assignment, config).slots;
  };
  EXPECT_EQ(once(9), once(9));
}

TEST(RunCogComp, ReproducibleGivenSeed) {
  auto once = [](std::uint64_t seed) {
    SharedCoreAssignment assignment(12, 6, 2, LabelMode::LocalRandom, Rng(5));
    CogCompRunConfig config;
    config.params = {12, 6, 2};
    config.seed = seed;
    const auto values = make_values(12, 1);
    return run_cogcomp(assignment, values, config).slots;
  };
  EXPECT_EQ(once(3), once(3));
}

TEST(RunCogComp, PhaseBreakdownSumsToTotal) {
  SharedCoreAssignment assignment(20, 6, 2, LabelMode::LocalRandom, Rng(6));
  CogCompRunConfig config;
  config.params = {20, 6, 2};
  const auto values = make_values(20, 2);
  const auto out = run_cogcomp(assignment, values, config);
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.phase3_end + out.phase4_slots, out.slots);
  EXPECT_EQ(out.phase2_end - out.phase1_end, 20);  // phase 2 is n slots
}

}  // namespace
}  // namespace cogradio
