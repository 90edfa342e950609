// Unit + property tests for the channel-assignment generators: every
// generator must uphold the model invariants of Section 2 — exactly c
// distinct channels per node, pairwise overlap >= k (every slot, for
// dynamic assignments), and labels forming a bijection onto the set.
#include "sim/assignment.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "util/rng.h"

namespace cogradio {
namespace {

void expect_model_invariants(const ChannelAssignment& a) {
  const int n = a.num_nodes();
  const int c = a.channels_per_node();
  for (NodeId u = 0; u < n; ++u) {
    const auto set = a.channel_set(u);
    ASSERT_EQ(static_cast<int>(set.size()), c);
    std::set<Channel> unique(set.begin(), set.end());
    EXPECT_EQ(static_cast<int>(unique.size()), c) << "duplicate channels, node " << u;
    for (Channel ch : set) {
      EXPECT_GE(ch, 0);
      EXPECT_LT(ch, a.total_channels());
    }
  }
  EXPECT_GE(a.min_overlap_actual(), a.min_overlap());
}

using PatternParam = std::tuple<std::string, int, int, int>;  // pattern,n,c,k

class StaticPatternInvariants : public ::testing::TestWithParam<PatternParam> {};

TEST_P(StaticPatternInvariants, HoldsUnderBothLabelModes) {
  const auto& [pattern, n, c, k] = GetParam();
  for (LabelMode mode : {LabelMode::Global, LabelMode::LocalRandom}) {
    auto a = make_assignment(pattern, n, c, k, mode, Rng(7 + n + c + k));
    EXPECT_EQ(a->num_nodes(), n);
    EXPECT_EQ(a->channels_per_node(), c);
    EXPECT_EQ(a->min_overlap(), k);
    expect_model_invariants(*a);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StaticPatternInvariants,
    ::testing::Combine(::testing::Values("shared-core", "partitioned",
                                         "pigeonhole"),
                       ::testing::Values(2, 5, 16), ::testing::Values(4, 8),
                       ::testing::Values(1, 2, 4)),
    [](const auto& info) {
      std::string p = std::get<0>(info.param);
      for (auto& ch : p)
        if (ch == '-') ch = '_';
      return p + "_n" + std::to_string(std::get<1>(info.param)) + "_c" +
             std::to_string(std::get<2>(info.param)) + "_k" +
             std::to_string(std::get<3>(info.param));
    });

TEST(SharedCore, ExactCoreSharedByAll) {
  SharedCoreAssignment a(8, 6, 3, LabelMode::Global, Rng(1));
  // The k core channels must be in every node's set: intersect all sets.
  auto common = a.channel_set(0);
  for (NodeId u = 1; u < 8; ++u) {
    const auto set = a.channel_set(u);
    std::vector<Channel> next;
    std::set_intersection(common.begin(), common.end(), set.begin(), set.end(),
                          std::back_inserter(next));
    common = next;
  }
  EXPECT_GE(static_cast<int>(common.size()), 3);
}

TEST(SharedCore, CustomTotalChannels) {
  SharedCoreAssignment a(4, 6, 2, LabelMode::Global, Rng(2), 50);
  EXPECT_EQ(a.total_channels(), 50);
  expect_model_invariants(a);
}

TEST(SharedCore, LowCorePinsSharedChannels) {
  SharedCoreAssignment a(6, 5, 2, LabelMode::Global, Rng(9), 20,
                         /*low_core=*/true);
  expect_model_invariants(a);
  for (NodeId u = 0; u < 6; ++u) {
    // Global labels sort ascending, so labels 0..k-1 are the pinned core.
    EXPECT_EQ(a.global_channel(u, 0), 0);
    EXPECT_EQ(a.global_channel(u, 1), 1);
    EXPECT_GE(a.global_channel(u, 2), 2);
  }
}

TEST(SharedCore, RejectsTooSmallUniverse) {
  EXPECT_THROW(SharedCoreAssignment(4, 6, 2, LabelMode::Global, Rng(2), 5),
               std::invalid_argument);
}

TEST(Partitioned, Theorem16Shape) {
  const int n = 6, c = 5, k = 2;
  PartitionedAssignment a(n, c, k, LabelMode::Global, Rng(3));
  EXPECT_EQ(a.total_channels(), k + n * (c - k));
  // Pairwise overlap is *exactly* k in this construction.
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) EXPECT_EQ(a.overlap(u, v), k);
}

TEST(Partitioned, PrivateBlocksAreDisjoint) {
  const int n = 5, c = 4, k = 1;
  PartitionedAssignment a(n, c, k, LabelMode::Global, Rng(4));
  // Every channel is used by exactly one node (private) or all (core).
  std::map<Channel, int> usage;
  for (NodeId u = 0; u < n; ++u)
    for (Channel ch : a.channel_set(u)) ++usage[ch];
  for (const auto& [ch, cnt] : usage) EXPECT_TRUE(cnt == 1 || cnt == n)
      << "channel " << ch << " used by " << cnt;
}

TEST(Pigeonhole, UniverseIsTwoCMinusK) {
  PigeonholeAssignment a(10, 8, 3, LabelMode::LocalRandom, Rng(5));
  EXPECT_EQ(a.total_channels(), 2 * 8 - 3);
  expect_model_invariants(a);
}

TEST(Pigeonhole, OverlapsActuallyVary) {
  // With random c-subsets the pairwise overlaps should not be all equal
  // (that is the point of this generator vs the partitioned one).
  PigeonholeAssignment a(12, 8, 2, LabelMode::Global, Rng(6));
  std::set<int> overlaps;
  for (NodeId u = 0; u < 12; ++u)
    for (NodeId v = u + 1; v < 12; ++v) overlaps.insert(a.overlap(u, v));
  EXPECT_GT(overlaps.size(), 1u);
}

TEST(Identity, AllNodesIdenticalSets) {
  IdentityAssignment a(4, 5, LabelMode::Global, Rng(7));
  EXPECT_EQ(a.min_overlap(), 5);
  EXPECT_EQ(a.total_channels(), 5);
  for (NodeId u = 0; u < 4; ++u)
    for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(a.overlap(u, v), 5);
}

TEST(Labels, GlobalModeIsAscending) {
  IdentityAssignment a(3, 6, LabelMode::Global, Rng(8));
  for (NodeId u = 0; u < 3; ++u)
    for (LocalLabel l = 0; l < 6; ++l) EXPECT_EQ(a.global_channel(u, l), l);
}

TEST(Labels, LocalRandomModeIsPermutation) {
  IdentityAssignment a(20, 8, LabelMode::LocalRandom, Rng(9));
  bool any_shuffled = false;
  for (NodeId u = 0; u < 20; ++u) {
    std::set<Channel> seen;
    for (LocalLabel l = 0; l < 8; ++l) {
      const Channel ch = a.global_channel(u, l);
      seen.insert(ch);
      if (ch != l) any_shuffled = true;
    }
    EXPECT_EQ(seen.size(), 8u);
  }
  EXPECT_TRUE(any_shuffled);  // 20 identity permutations is impossible odds
}

TEST(Dynamic, ReDrawsEachSlotButKeepsInvariants) {
  auto a = DynamicAssignment::shared_core(6, 5, 2, Rng(10));
  EXPECT_TRUE(a->is_dynamic());
  auto snapshot = a->channel_set(0);
  bool changed = false;
  for (Slot t = 1; t <= 20; ++t) {
    a->begin_slot(t);
    expect_model_invariants(*a);
    if (a->channel_set(0) != snapshot) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(Dynamic, SameSlotSameMapping) {
  auto a = DynamicAssignment::pigeonhole(4, 6, 2, Rng(11));
  a->begin_slot(5);
  const auto before = a->channel_set(2);
  a->begin_slot(5);
  EXPECT_EQ(a->channel_set(2), before);
}

TEST(Adversary, InvariantsAndDodging) {
  // Predictor: every node will pick label (slot % c).
  const int n = 5, c = 4, k = 2;
  AdaptiveAdversaryAssignment a(
      n, c, k, [c](NodeId, Slot slot) { return static_cast<LocalLabel>(slot % c); },
      Rng(12));
  for (Slot t = 1; t <= 30; ++t) {
    a.begin_slot(t);
    expect_model_invariants(a);
    for (NodeId u = 0; u < n; ++u) {
      const Channel dodged = a.global_channel(u, static_cast<LocalLabel>(t % c));
      // Predicted labels must land on private channels (>= k in the fixed
      // layout), where no other node can hear.
      EXPECT_GE(dodged, k);
    }
  }
}

TEST(Adversary, RequiresRoomToDodge) {
  EXPECT_THROW(AdaptiveAdversaryAssignment(3, 4, 4, nullptr, Rng(13)),
               std::invalid_argument);
}

// --- Golden label tables ---------------------------------------------------
//
// Each generator's full label table at one small fixed shape (n=4, c=5,
// k=2) and seed, pinned entry for entry, so that a change to how tables
// are stored cannot move any generator's RNG draws unnoticed. Each check
// also holds table() and global_channel to each other.

constexpr int kGoldenN = 4, kGoldenC = 5, kGoldenK = 2;
constexpr std::uint64_t kGoldenSeed = 2015;

// `want` lists node 0's c channels by label, then node 1's, and so on.
void expect_table(const ChannelAssignment& a, const std::vector<Channel>& want) {
  const int c = a.channels_per_node();
  const std::span<const Channel> table = a.table();
  ASSERT_EQ(table.size(), want.size());
  ASSERT_EQ(want.size(), static_cast<std::size_t>(a.num_nodes()) * c);
  for (NodeId u = 0; u < a.num_nodes(); ++u)
    for (LocalLabel l = 0; l < c; ++l) {
      const auto at = static_cast<std::size_t>(u * c + l);
      EXPECT_EQ(table[at], want[at]) << "node " << u << " label " << l;
      EXPECT_EQ(a.global_channel(u, l), want[at]) << "node " << u << " label " << l;
    }
}

struct GoldenTable {
  const char* name;
  std::vector<Channel> table;
};

TEST(GoldenTable, StaticPatternsInBothLabelModes) {
  const GoldenTable golden[] = {
      {"shared-core/global",
       {2, 4, 6, 7, 8,
        1, 2, 5, 6, 8,
        0, 2, 5, 6, 8,
        5, 6, 7, 8, 9}},
      {"partitioned/global",
       {1, 5, 9, 11, 13,
        0, 6, 8, 9, 11,
        2, 3, 4, 9, 11,
        7, 9, 10, 11, 12}},
      {"pigeonhole/global",
       {1, 4, 5, 6, 7,
        1, 2, 3, 5, 6,
        1, 2, 5, 6, 7,
        0, 1, 5, 6, 7}},
      {"identity/global",
       {0, 1, 2, 3, 4,
        0, 1, 2, 3, 4,
        0, 1, 2, 3, 4,
        0, 1, 2, 3, 4}},
      {"shared-core/local",
       {8, 4, 7, 2, 6,
        6, 1, 5, 2, 8,
        0, 6, 8, 5, 2,
        5, 9, 7, 6, 8}},
      {"partitioned/local",
       {5, 11, 1, 9, 13,
        0, 8, 6, 11, 9,
        3, 9, 4, 11, 2,
        7, 10, 9, 12, 11}},
      {"pigeonhole/local",
       {5, 4, 6, 1, 7,
        2, 1, 6, 5, 3,
        7, 1, 2, 5, 6,
        5, 1, 0, 7, 6}},
      {"identity/local",
       {1, 0, 3, 2, 4,
        4, 3, 0, 1, 2,
        4, 1, 0, 2, 3,
        2, 0, 1, 4, 3}},
  };
  for (const GoldenTable& g : golden) {
    SCOPED_TRACE(g.name);
    const std::string name = g.name;
    const auto slash = name.find('/');
    const LabelMode mode = name.substr(slash + 1) == "global"
                               ? LabelMode::Global
                               : LabelMode::LocalRandom;
    const auto a = make_assignment(name.substr(0, slash), kGoldenN, kGoldenC,
                                   kGoldenK, mode, Rng(kGoldenSeed));
    expect_table(*a, g.table);
  }
}

TEST(GoldenTable, DynamicPatternsAtSlots0To2) {
  const GoldenTable golden[] = {
      {"dynamic-shared-core@0",
       {9, 6, 1, 5, 0,
        6, 0, 5, 2, 3,
        6, 0, 5, 9, 3,
        6, 0, 1, 5, 4}},
      {"dynamic-shared-core@1",
       {2, 9, 1, 0, 8,
        2, 1, 6, 4, 7,
        1, 9, 3, 2, 8,
        0, 9, 2, 1, 6}},
      {"dynamic-shared-core@2",
       {1, 9, 8, 5, 6,
        7, 9, 0, 8, 1,
        0, 1, 7, 6, 8,
        1, 2, 7, 5, 8}},
      {"dynamic-pigeonhole@0",
       {2, 7, 5, 0, 4,
        1, 4, 5, 2, 7,
        5, 1, 4, 0, 3,
        2, 3, 5, 0, 4}},
      {"dynamic-pigeonhole@1",
       {3, 0, 2, 1, 7,
        5, 2, 4, 7, 6,
        0, 1, 5, 7, 6,
        4, 6, 1, 2, 7}},
      {"dynamic-pigeonhole@2",
       {7, 1, 5, 6, 0,
        0, 1, 7, 2, 6,
        2, 4, 0, 6, 5,
        3, 4, 7, 2, 1}},
  };
  for (const GoldenTable& g : golden) {
    SCOPED_TRACE(g.name);
    const std::string name = g.name;
    const auto at = name.find('@');
    const auto a = make_assignment(name.substr(0, at), kGoldenN, kGoldenC,
                                   kGoldenK, LabelMode::LocalRandom,
                                   Rng(kGoldenSeed));
    a->begin_slot(std::stoi(name.substr(at + 1)));
    expect_table(*a, g.table);
  }
}

TEST(GoldenTable, AdversaryAtSlots1And2) {
  AdaptiveAdversaryAssignment a(
      kGoldenN, kGoldenC, kGoldenK,
      [](NodeId u, Slot slot) {
        return static_cast<LocalLabel>((u + slot) % kGoldenC);
      },
      Rng(kGoldenSeed));
  // The constructor draws slot 1.
  expect_table(a, {1, 3, 0, 2, 4,
                   0, 6, 7, 1, 5,
                   8, 1, 0, 10, 9,
                   12, 0, 1, 13, 11});
  a.begin_slot(2);
  expect_table(a, {1, 3, 4, 2, 0,
                   0, 1, 6, 5, 7,
                   1, 0, 8, 9, 10,
                   13, 0, 1, 11, 12});
}

// --- Golden table digests --------------------------------------------------
//
// Wider shapes than the tables above, pinned as FNV-1a 64 digests of the
// whole table (each channel id as four little-endian bytes, node-major).
// make_labeling orders a row by bitmap when its channels span a few 64-bit
// words and by comparison sort otherwise (sim/labels.h), so these shapes
// cover both sides of that choice draw for draw.

std::uint64_t table_digest(std::span<const Channel> table) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Channel ch : table) {
    const auto v = static_cast<std::uint32_t>(ch);
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

void expect_digest(const ChannelAssignment& a, std::uint64_t want) {
  EXPECT_EQ(a.table().size(), static_cast<std::size_t>(a.num_nodes()) *
                                  static_cast<std::size_t>(a.channels_per_node()));
  const std::uint64_t got = table_digest(a.table());
  EXPECT_EQ(got, want) << std::hex << "digest 0x" << got;
}

TEST(GoldenTable, WideStaticPatternsInBothLabelModes) {
  for (const LabelMode mode : {LabelMode::Global, LabelMode::LocalRandom}) {
    const bool global = mode == LabelMode::Global;
    SCOPED_TRACE(global ? "global" : "local");
    // paper_sweep's partitioned n = 48, c = 96 shape, C = 4514: the sort.
    expect_digest(PartitionedAssignment(48, 96, 2, mode, Rng(kGoldenSeed)),
                  global ? 0xa51c2c02dec18909ULL : 0xe140b72be8fcb4b5ULL);
    // Partitioned n = 32, c = 8, C = 194: a bitmap of four words.
    expect_digest(PartitionedAssignment(32, 8, 2, mode, Rng(kGoldenSeed)),
                  global ? 0x3416c476d0780ebcULL : 0x1dfe3f00668b41fcULL);
    // Shared core over C = 4096, far beyond 2c: the sort.
    expect_digest(
        SharedCoreAssignment(64, 8, 2, mode, Rng(kGoldenSeed), 4096),
        global ? 0xe248ccb916b7f063ULL : 0xc4679a57774d4187ULL);
  }
}

// A dynamic assignment redraws one table in place each slot; entering
// slot 1 again after slot 2 must reproduce slot 1 exactly.
TEST(GoldenTable, DynamicPatternsAtSlots1Then2Then1) {
  struct Golden {
    const char* pattern;
    std::uint64_t slot1, slot2;
  };
  const Golden golden[] = {
      {"dynamic-shared-core", 0xb04df4cf01d2e0dbULL, 0x9cf65e6bee4320daULL},
      {"dynamic-pigeonhole", 0xf91e82740190180fULL, 0x388fbd818db3b6e5ULL},
  };
  for (const Golden& g : golden) {
    SCOPED_TRACE(g.pattern);
    const auto a = make_assignment(g.pattern, 64, 16, 4,
                                   LabelMode::LocalRandom, Rng(kGoldenSeed));
    for (const Slot slot : {1, 2, 1}) {
      SCOPED_TRACE(slot);
      a->begin_slot(slot);
      expect_digest(*a, slot == 1 ? g.slot1 : g.slot2);
    }
  }
}

TEST(Factory, UnknownPatternThrows) {
  EXPECT_THROW(make_assignment("nope", 4, 4, 2, LabelMode::Global, Rng(14)),
               std::invalid_argument);
}

TEST(Factory, DynamicNamesWork) {
  auto a = make_assignment("dynamic-shared-core", 4, 4, 2,
                           LabelMode::LocalRandom, Rng(15));
  EXPECT_TRUE(a->is_dynamic());
  auto b = make_assignment("dynamic-pigeonhole", 4, 4, 2,
                           LabelMode::LocalRandom, Rng(16));
  EXPECT_TRUE(b->is_dynamic());
}

TEST(Assignment, ParameterValidation) {
  EXPECT_THROW(IdentityAssignment(0, 4, LabelMode::Global, Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(SharedCoreAssignment(4, 0, 1, LabelMode::Global, Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(SharedCoreAssignment(4, 4, 0, LabelMode::Global, Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(SharedCoreAssignment(4, 4, 5, LabelMode::Global, Rng(1)),
               std::invalid_argument);
}

// Shapes every key of a serve job admits, whose channel space
// C = k + n(c-k) = 2,999,800,002 leaves the channel id range: each
// generator must reject them as a channel-space error, before building
// its permutation or its n*c table.
TEST(Assignment, RejectsChannelSpaceOverflow) {
  const auto expect_overflow = [](auto&& build, const char* who) {
    try {
      build();
      FAIL() << who << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string(who) +
                                           ": channel space C = 2999800002"),
                std::string::npos)
          << e.what();
    }
  };
  expect_overflow(
      [] {
        PartitionedAssignment(100'000, 30'000, 2, LabelMode::Global, Rng(1));
      },
      "partitioned");
  expect_overflow(
      [] { AdaptiveAdversaryAssignment(100'000, 30'000, 2, nullptr, Rng(1)); },
      "adversary");
}

TEST(StaticPatternNames, StableList) {
  const auto& names = static_pattern_names();
  ASSERT_EQ(names.size(), 3u);
  for (const auto& name : names) {
    auto a = make_assignment(name, 4, 5, 2, LabelMode::Global, Rng(17));
    expect_model_invariants(*a);
  }
}

}  // namespace
}  // namespace cogradio
