// Per-channel node bitmaps for the SoA slot engine (sim/network.cpp).
//
// Two parallel rows of ceil(n/64) words per physical channel — the nodes
// tuned to the channel this slot and the subset of them broadcasting —
// plus one bitmap of touched channels. Channel resolution then runs as
// word scans: std::popcount counts contenders, std::countr_zero
// enumerates node ids in ascending order (the same stable order the
// counting-sort grouping produces), and selecting the winner's index is a
// prefix-popcount walk. Rows are kept all-zero between slots: the
// resolution loop zeroes each row as it consumes the channel, so only
// touched rows are ever written or cleared.
//
// Memory and per-slot scan cost are C * ceil(n/64) words per row in the
// worst case; affordable() gates the layout so assignments with huge
// channel spaces (e.g. the partitioned family, where C grows with n*c)
// fall back to counting-sort grouping instead of walking megabytes of
// mostly-empty rows every slot.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/types.h"

namespace cogradio {

class ChannelBitmaps {
 public:
  static std::int64_t words_per_row(int num_nodes) {
    return (static_cast<std::int64_t>(num_nodes) + 63) / 64;
  }

  // True when the dense rows are cheap enough to scan and clear every
  // slot: total words across channels bounded by O(max(4096, n)), so the
  // bitmap pass never dominates the O(n) collect pass.
  static bool affordable(int total_channels, int num_nodes) {
    return static_cast<std::int64_t>(total_channels) *
               words_per_row(num_nodes) <=
           std::max<std::int64_t>(4096, num_nodes);
  }

  void resize(int total_channels, int num_nodes) {
    words_ = static_cast<std::size_t>(words_per_row(num_nodes));
    tuned_.assign(static_cast<std::size_t>(total_channels) * words_, 0);
    bcast_.assign(tuned_.size(), 0);
    touched_.assign((static_cast<std::size_t>(total_channels) + 63) / 64, 0);
  }

  std::size_t words() const { return words_; }

  // Marks `node` as tuned to (and optionally broadcasting on) `ch`.
  void add(Channel ch, int node, bool broadcasting) {
    const std::size_t row = static_cast<std::size_t>(ch) * words_ +
                            (static_cast<std::size_t>(node) >> 6);
    const std::uint64_t bit = std::uint64_t{1}
                              << (static_cast<unsigned>(node) & 63u);
    tuned_[row] |= bit;
    bcast_[row] |= broadcasting ? bit : 0;  // branch-free: traffic is random
    touched_[static_cast<std::size_t>(ch) >> 6] |=
        std::uint64_t{1} << (static_cast<unsigned>(ch) & 63u);
  }

  std::uint64_t* tuned_row(Channel ch) {
    return tuned_.data() + static_cast<std::size_t>(ch) * words_;
  }
  std::uint64_t* bcast_row(Channel ch) {
    return bcast_.data() + static_cast<std::size_t>(ch) * words_;
  }

  // Invokes fn(ch) for every touched channel in ascending channel order,
  // clearing the touched bitmap as it goes. fn must leave the channel's
  // rows zeroed (the resolver walks every row word anyway), preserving
  // the rows-are-zero-between-slots invariant.
  template <typename Fn>
  void consume_touched(Fn&& fn) {
    for (std::size_t tw = 0; tw < touched_.size(); ++tw) {
      std::uint64_t word = touched_[tw];
      touched_[tw] = 0;
      while (word != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        fn(static_cast<Channel>(tw * 64 + bit));
      }
    }
  }

 private:
  std::size_t words_ = 0;
  std::vector<std::uint64_t> tuned_;  // C rows of words_ words
  std::vector<std::uint64_t> bcast_;  // subset of tuned_: broadcasters
  std::vector<std::uint64_t> touched_;  // one bit per channel
};

}  // namespace cogradio
