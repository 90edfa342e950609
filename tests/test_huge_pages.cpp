// Tests for the huge-page allocator (util/huge_pages.h). Whether the kernel
// grants huge pages depends on the host's THP setting, so nothing here
// asserts that it did: only the placement (2 MiB boundaries), the contents
// and the std::allocator fallback below the threshold.
#include "util/huge_pages.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "sim/assignment.h"
#include "util/rng.h"

namespace cogradio {
namespace {

bool huge_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kHugePageBytes == 0;
}

TEST(HugePageAllocator, LargeRequestIsHugeAlignedAndRoundTrips) {
  HugePageAllocator<std::int32_t> alloc;
  // Not a whole number of 4 KB pages, so the rounding is exercised.
  const std::size_t count = kHugePageBytes / sizeof(std::int32_t) * 3 + 777;
  std::int32_t* p = alloc.allocate(count);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(huge_aligned(p));
  for (std::size_t i = 0; i < count; ++i)
    p[i] = static_cast<std::int32_t>(i * 7);
  for (std::size_t i = 0; i < count; ++i)
    ASSERT_EQ(p[i], static_cast<std::int32_t>(i * 7)) << "at " << i;
  alloc.deallocate(p, count);
}

TEST(HugePageAllocator, SmallRequestStillWorks) {
  HugePageAllocator<std::uint64_t> alloc;
  const std::size_t count = 1000;
  std::uint64_t* p = alloc.allocate(count);
  ASSERT_NE(p, nullptr);
  for (std::size_t i = 0; i < count; ++i) p[i] = ~i;
  for (std::size_t i = 0; i < count; ++i) ASSERT_EQ(p[i], ~i);
  alloc.deallocate(p, count);
}

TEST(HugePageAllocator, RejectsAnOverflowingCount) {
  HugePageAllocator<std::uint64_t> alloc;
  EXPECT_THROW((void)alloc.allocate(std::size_t{1} << 62),
               std::bad_array_new_length);
}

TEST(HugePageAllocator, VectorGrowsAcrossTheThreshold) {
  HugePageVector<std::int32_t> v;
  const std::size_t below = kHugePageBytes / sizeof(std::int32_t) / 2;
  v.reserve(below);
  for (std::size_t i = 0; i < below; ++i)
    v.push_back(static_cast<std::int32_t>(i));
  const std::size_t above = kHugePageBytes / sizeof(std::int32_t) * 2 + 5;
  v.reserve(above);
  EXPECT_TRUE(huge_aligned(v.data()));
  while (v.size() < above + 3) v.push_back(static_cast<std::int32_t>(v.size()));
  ASSERT_EQ(v.size(), above + 3);
  std::vector<std::int32_t> expected(v.size());
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_TRUE(std::equal(v.begin(), v.end(), expected.begin()));
}

TEST(HugePageAllocator, LargeAssignmentLendsAHugeAlignedTable) {
  constexpr int kNodes = 1 << 17;
  constexpr int kChannels = 16;
  SharedCoreAssignment assignment(kNodes, kChannels, 4, LabelMode::LocalRandom,
                                  Rng(3));
  const std::span<const Channel> table = assignment.table();
  ASSERT_EQ(table.size(), std::size_t{kNodes} * kChannels);
  EXPECT_TRUE(huge_aligned(table.data()));
  EXPECT_EQ(table[5 * kChannels + 3], assignment.global_channel(5, 3));
}

}  // namespace
}  // namespace cogradio
