// The SoA engine's per-slot active scan (sim/network.cpp): list the nodes
// whose mode is not Idle, in ascending order.
//
// With no fault engine nothing but the client can make a node act, so the
// scan reads only the mode bytes. Two kernels, one result:
//   scan_active_words  eight nodes per 64-bit word, dropping to per-node
//                      work only where a word holds a non-idle byte;
//                      portable, and the tail of the block kernel;
//   scan_active        on SSE2 targets (every x86-64 build), 64 nodes per
//                      block: four 16-byte compares and movemasks build one
//                      64-bit active mask whose set bits are appended in
//                      order; the word kernel covers the last < 64 nodes.
//                      Elsewhere it is the word kernel.
// A mostly-idle fleet costs n/64 block tests per slot instead of n/8 word
// tests.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "sim/protocol.h"

namespace cogradio {

static_assert(sizeof(Mode) == 1);

// Appends i for every mode[i] != Idle with i >= from, ascending.
inline void scan_active_words(std::span<const Mode> mode, std::size_t from,
                              std::vector<std::int32_t>& active) {
  static_assert(static_cast<unsigned char>(Mode::Idle) == 2);
  static_assert(std::endian::native == std::endian::little);
  constexpr std::uint64_t kAllIdle = 0x0202020202020202ULL;
  constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(mode.data());
  const std::size_t n = mode.size();
  std::size_t i = from;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes + i, 8);
    const std::uint64_t diff = word ^ kAllIdle;
    if (diff == 0) continue;
    // The high bit of each byte that differs from Idle, one per node.
    for (std::uint64_t hits = (((diff & kLow7) + kLow7) | diff) & ~kLow7;
         hits != 0; hits &= hits - 1)
      active.push_back(static_cast<std::int32_t>(
          i + static_cast<std::size_t>(std::countr_zero(hits)) / 8));
  }
  for (; i < n; ++i)
    if (mode[i] != Mode::Idle) active.push_back(static_cast<std::int32_t>(i));
}

// Appends i for every mode[i] != Idle, ascending.
inline void scan_active(std::span<const Mode> mode,
                        std::vector<std::int32_t>& active) {
  std::size_t i = 0;
#if defined(__SSE2__)
  const auto* bytes = reinterpret_cast<const char*>(mode.data());
  const __m128i idle = _mm_set1_epi8(static_cast<char>(Mode::Idle));
  auto idle_bits = [&](std::size_t at) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + at));
    return static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(v, idle))));
  };
  for (; i + 64 <= mode.size(); i += 64) {
    const std::uint64_t idle_mask = idle_bits(i) | idle_bits(i + 16) << 16 |
                                    idle_bits(i + 32) << 32 |
                                    idle_bits(i + 48) << 48;
    for (std::uint64_t busy = ~idle_mask; busy != 0; busy &= busy - 1)
      active.push_back(static_cast<std::int32_t>(
          i + static_cast<std::size_t>(std::countr_zero(busy))));
  }
#endif
  scan_active_words(mode, i, active);
}

}  // namespace cogradio
