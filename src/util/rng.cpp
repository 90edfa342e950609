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

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int s) noexcept {
  return (x << s) | (x >> (64 - s));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept : state_{} {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // All-zero state is a fixed point of xoshiro; splitmix64 cannot emit four
  // consecutive zeros, so no further guard is required, but assert anyway.
  assert(state_[0] | state_[1] | state_[2] | state_[3]);
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  assert(bound > 0);
  // Lemire's nearly-divisionless bounded generation.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::between(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range [lo, hi]; return raw bits then.
  if (span == 0) return static_cast<std::int64_t>((*this)());
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform() noexcept {
  // 53 random bits scaled into [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
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
