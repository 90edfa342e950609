#include "util/rng.h"

#include <cassert>
#include <numeric>

namespace cogradio {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept : state_{} {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // All-zero state is a fixed point of xoshiro; splitmix64 cannot emit four
  // consecutive zeros, so no further guard is required, but assert anyway.
  assert(state_[0] | state_[1] | state_[2] | state_[3]);
}

std::int64_t Rng::between(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range [lo, hi]; return raw bits then.
  if (span == 0) return static_cast<std::int64_t>((*this)());
  return lo + static_cast<std::int64_t>(below(span));
}

Rng Rng::split(std::uint64_t stream) noexcept {
  // Mix the parent's next output with the stream id through splitmix64 so
  // that different streams land in unrelated regions of the state space.
  std::uint64_t s = (*this)() ^ (stream * 0xda942042e4dd58b5ULL);
  return Rng{splitmix64(s)};
}

std::vector<std::int32_t> Rng::sample_without_replacement(
    std::int32_t universe, std::int32_t count) {
  std::vector<std::int32_t> out;
  sample_without_replacement(universe, count, out);
  return out;
}

void Rng::sample_without_replacement(std::int32_t universe, std::int32_t count,
                                     std::vector<std::int32_t>& out) {
  assert(count >= 0 && count <= universe);
  out.resize(static_cast<std::size_t>(universe));
  std::iota(out.begin(), out.end(), 0);
  // Partial Fisher-Yates: after `count` swaps, the prefix is the sample.
  for (std::int32_t i = 0; i < count; ++i) {
    const auto j =
        i + static_cast<std::int32_t>(below(static_cast<std::uint64_t>(universe - i)));
    std::swap(out[static_cast<std::size_t>(i)], out[static_cast<std::size_t>(j)]);
  }
  out.resize(static_cast<std::size_t>(count));
}

}  // namespace cogradio
