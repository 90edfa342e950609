// Deterministic, seedable pseudo-random number generation for simulations.
//
// Every randomized component in this repository draws from cogradio::Rng so
// that a (seed, parameters) pair fully determines an execution.  The engine
// is xoshiro256** (Blackman & Vigna), seeded via splitmix64, which is fast,
// has a 256-bit state, and passes BigCrush — more than adequate for
// Monte-Carlo protocol simulation.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

namespace cogradio {

// splitmix64 step: used for seeding and for cheap stateless hashing of
// (seed, stream) pairs into independent generator states.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

// xoshiro256** engine with std::uniform_random_bit_generator conformance,
// so it can also drive <random> distributions when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  // Seeds the four 64-bit state words by iterating splitmix64 on `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  // The four per-draw calls below are defined inline: the engine's winner
  // and fade coins and the protocols' label picks call them once per
  // active node-slot, and the build has no link-time optimization to
  // inline them across translation units.

  // Raw 64 random bits.
  result_type operator()() noexcept {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). Precondition: bound > 0.
  // Uses Lemire's multiply-shift rejection method (no modulo bias).
  std::uint64_t below(std::uint64_t bound) noexcept {
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

  // Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept;

  // Uniform double in [0, 1).
  double uniform() noexcept {
    // 53 random bits scaled into [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  // Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  // Derives an independent child generator; children with distinct `stream`
  // values are statistically independent of each other and of the parent.
  Rng split(std::uint64_t stream) noexcept;

  // In-place Fisher-Yates shuffle of a vector or a span.
  template <typename Range>
  void shuffle(Range&& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // Samples `count` distinct values from [0, universe) via partial
  // Fisher-Yates on an index vector. Precondition: count <= universe.
  std::vector<std::int32_t> sample_without_replacement(std::int32_t universe,
                                                       std::int32_t count);
  // The same draws into a buffer the caller owns: `out` ends holding the
  // sample and keeps its capacity, so reusing it allocates only once.
  void sample_without_replacement(std::int32_t universe, std::int32_t count,
                                  std::vector<std::int32_t>& out);

  // The raw 4x64-bit engine state, for the checkpoint/restore layer
  // (sim/checkpoint.h). `restore` expects a state captured by `save`; the
  // all-zero state is a xoshiro fixed point and is never produced by
  // seeding, so it is rejected by assertion as checkpoint corruption.
  std::array<std::uint64_t, 4> save() const noexcept { return state_; }
  void restore(const std::array<std::uint64_t, 4>& state) noexcept {
    assert(state[0] | state[1] | state[2] | state[3]);
    state_ = state;
  }

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace cogradio
