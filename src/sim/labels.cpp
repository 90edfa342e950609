#include "sim/labels.h"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace cogradio {

namespace {

// Widest channel span ordered by bitmap, in 64-bit words. Rows over a
// small channel space (shared-core at C = 2c, pigeonhole, identity) fit
// it; rows scattered over a wide one (partitioned, C = k + n(c-k)) do not.
constexpr int kBitmapWords = 4;

// Puts `row` in ascending order through a bitmap of its span and returns
// true, when the span fits kBitmapWords words and the channels are
// distinct; otherwise leaves `row` as it is and returns false.
bool order_by_bitmap(std::span<Channel> row) {
  if (row.empty()) return true;
  const auto [lo, hi] = std::minmax_element(row.begin(), row.end());
  const Channel base = *lo;
  const std::int64_t span = std::int64_t{*hi} - base;
  if (span >= 64 * kBitmapWords) return false;
  const auto words = static_cast<int>(span / 64) + 1;
  std::uint64_t bits[kBitmapWords] = {};
  for (const Channel ch : row) {
    const auto at = static_cast<std::uint32_t>(ch - base);
    bits[at / 64] |= std::uint64_t{1} << (at % 64);
  }
  // A repeated channel sets one bit twice; such a row goes to the sort.
  std::size_t count = 0;
  for (int w = 0; w < words; ++w) count += std::popcount(bits[w]);
  if (count != row.size()) return false;
  auto out = row.begin();
  for (int w = 0; w < words; ++w)
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1)
      *out++ = base + 64 * w + std::countr_zero(word);
  return true;
}

}  // namespace

void make_labeling(std::span<Channel> row, LabelMode mode, Rng& rng) {
  if (!order_by_bitmap(row)) std::sort(row.begin(), row.end());
  if (mode == LabelMode::LocalRandom) rng.shuffle(row);
}

}  // namespace cogradio
