// Tests for the primary-user spectrum model (sim/spectrum.h).
#include "sim/spectrum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/runtime.h"

namespace cogradio {
namespace {

SpectrumParams params(int band, double up = 0.1, double down = 0.3) {
  SpectrumParams p;
  p.band = band;
  p.p_free_to_busy = up;
  p.p_busy_to_free = down;
  return p;
}

TEST(Spectrum, ModelInvariantsHoldEverySlot) {
  MarkovSpectrumAssignment a(8, 6, 2, params(10), Rng(1));
  EXPECT_TRUE(a.is_dynamic());
  for (Slot t = 1; t <= 40; ++t) {
    a.begin_slot(t);
    for (NodeId u = 0; u < 8; ++u) {
      const auto set = a.channel_set(u);
      ASSERT_EQ(set.size(), 6u);
      std::set<Channel> unique(set.begin(), set.end());
      EXPECT_EQ(unique.size(), 6u);
      // The k reserved channels are always present.
      EXPECT_TRUE(unique.contains(0));
      EXPECT_TRUE(unique.contains(1));
    }
    EXPECT_GE(a.min_overlap_actual(), 2);
  }
}

TEST(Spectrum, BusyFractionTracksStationaryDistribution) {
  MarkovSpectrumAssignment a(16, 6, 2, params(12, 0.2, 0.2), Rng(2));
  // pi_busy = 0.2 / 0.4 = 0.5; average over many slots should be close.
  double sum = 0.0;
  const int slots = 400;
  for (Slot t = 1; t <= slots; ++t) {
    a.begin_slot(t);
    sum += a.busy_fraction();
  }
  EXPECT_NEAR(sum / slots, a.stationary_busy(), 0.08);
  EXPECT_DOUBLE_EQ(a.stationary_busy(), 0.5);
}

TEST(Spectrum, AvailabilityIsTemporallyCorrelated) {
  // With slow dynamics (small transition probabilities), consecutive
  // slots' channel sets should share most non-reserved channels — unlike
  // an i.i.d. redraw.
  MarkovSpectrumAssignment a(4, 8, 2, params(16, 0.01, 0.02), Rng(3));
  a.begin_slot(1);
  auto prev = a.channel_set(0);
  int shared_total = 0, slots = 0;
  for (Slot t = 2; t <= 30; ++t) {
    a.begin_slot(t);
    const auto cur = a.channel_set(0);
    std::vector<Channel> common;
    std::set_intersection(prev.begin(), prev.end(), cur.begin(), cur.end(),
                          std::back_inserter(common));
    shared_total += static_cast<int>(common.size());
    ++slots;
    prev = cur;
  }
  // 8 channels per slot; with near-static primaries expect >6 shared on
  // average (free set barely changes; only label shuffling varies).
  EXPECT_GT(static_cast<double>(shared_total) / slots, 6.0);
}

TEST(Spectrum, FallbackKicksInUnderHeavyLoad) {
  // Saturated band: nearly everything busy, so most non-reserved picks
  // are mispredicted holes.
  MarkovSpectrumAssignment a(4, 8, 2, params(7, 0.9, 0.05), Rng(4));
  a.begin_slot(50);  // let the chain settle into heavy load
  double fallback = 0;
  for (NodeId u = 0; u < 4; ++u) fallback += a.fallback_fraction(u);
  EXPECT_GT(fallback / 4, 0.3);
}

TEST(Spectrum, ReEnteringSameSlotIsStable) {
  MarkovSpectrumAssignment a(4, 6, 2, params(8), Rng(5));
  a.begin_slot(7);
  const auto before = a.channel_set(2);
  a.begin_slot(7);
  EXPECT_EQ(a.channel_set(2), before);
}

// The Markov model's full label table at a fixed small shape and seed,
// pinned entry for entry at a few slots (slot 0 is the constructor's
// build; slots 3 and 4 are skipped, so slot 5 advances the chain three
// times), with table() and global_channel held to each other.
TEST(Spectrum, GoldenLabelTables) {
  const int n = 4, c = 5, k = 2;
  SpectrumParams spectrum = params(6, 0.3, 0.3);
  MarkovSpectrumAssignment a(n, c, k, spectrum, Rng(2015));
  const struct {
    Slot slot;
    std::vector<Channel> table;  // node 0's labels, then node 1's, ...
  } golden[] = {
      {0,
       {1, 2, 0, 4, 3,
        0, 5, 9, 10, 1,
        9, 13, 1, 0, 11,
        16, 0, 13, 11, 1}},
      {1,
       {0, 3, 1, 2, 6,
        0, 9, 1, 6, 10,
        9, 1, 11, 13, 0,
        13, 1, 16, 11, 0}},
      {2,
       {0, 7, 2, 4, 1,
        9, 0, 1, 10, 7,
        10, 0, 1, 13, 9,
        16, 0, 1, 13, 11}},
      {5,
       {1, 5, 2, 4, 0,
        5, 1, 7, 6, 0,
        11, 0, 13, 8, 1,
        11, 14, 13, 0, 1}},
  };
  for (const auto& g : golden) {
    SCOPED_TRACE("slot " + std::to_string(g.slot));
    a.begin_slot(g.slot);
    const std::span<const Channel> table = a.table();
    ASSERT_EQ(table.size(), g.table.size());
    for (NodeId u = 0; u < n; ++u)
      for (LocalLabel l = 0; l < c; ++l) {
        const auto at = static_cast<std::size_t>(u * c + l);
        EXPECT_EQ(table[at], g.table[at]) << "node " << u << " label " << l;
        EXPECT_EQ(a.global_channel(u, l), g.table[at])
            << "node " << u << " label " << l;
      }
  }
}

TEST(Spectrum, ParameterValidation) {
  EXPECT_THROW(MarkovSpectrumAssignment(4, 8, 2, params(3), Rng(1)),
               std::invalid_argument);  // band < c - k
  EXPECT_THROW(MarkovSpectrumAssignment(4, 8, 2, params(8, -0.1, 0.5), Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(MarkovSpectrumAssignment(4, 8, 2, params(8, 0.1, 0.0), Rng(1)),
               std::invalid_argument);
}

// C = k + stride(n-1) + band leaves the channel id range (stride = 30000,
// n = 100000): rejected as a channel-space error before any table exists.
TEST(Spectrum, RejectsChannelSpaceOverflow) {
  try {
    MarkovSpectrumAssignment a(100'000, 8, 2, params(60'000), Rng(1));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spectrum: channel space C = "),
              std::string::npos)
        << e.what();
  }
}

TEST(Spectrum, CogCastCompletesUnderPrimaryUserDynamics) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const int n = 20, c = 8, k = 2;
    MarkovSpectrumAssignment assignment(n, c, k, params(12, 0.15, 0.25),
                                        Rng(seed));
    CogCastRunConfig config;
    config.params = {n, c, k, 4.0};
    config.seed = seed + 100;
    const auto out = run_cogcast(assignment, config);
    EXPECT_TRUE(out.completed) << "seed " << seed;
    EXPECT_TRUE(valid_distribution_tree(0, out.informed_slot, out.parent));
  }
}

TEST(Spectrum, CogCastCompletesEvenWhenBandSaturated) {
  // Heavy primary-user load leaves mostly the k reserved channels usable;
  // CogCast still completes (the k-overlap invariant never breaks), just
  // at the k-governed rate.
  const int n = 16, c = 8, k = 2;
  MarkovSpectrumAssignment assignment(n, c, k, params(12, 0.9, 0.05), Rng(6));
  CogCastRunConfig config;
  config.params = {n, c, k, 6.0};
  config.seed = 7;
  config.max_slots = 50 * config.params.horizon();
  const auto out = run_cogcast(assignment, config);
  EXPECT_TRUE(out.completed);
}

}  // namespace
}  // namespace cogradio
