// Local channel labels (Section 2 of the paper).
//
// Each node names its c physical channels with local labels 0..c-1. In the
// *local label* model these names are arbitrary per node — node u's label i
// and node v's label i may denote different physical channels. In the
// *global label* model all nodes agree: label order follows ascending
// physical channel id. The assignment generators compose a channel-set
// choice with a per-node labeling produced here.
#pragma once

#include <span>

#include "sim/types.h"
#include "util/rng.h"

namespace cogradio {

enum class LabelMode : std::uint8_t {
  Global,       // label i = i-th smallest physical channel in the node's set
  LocalRandom,  // labels are an independent random permutation per node
};

// Turns one node's channel set, in place, into its label row: afterwards
// row[label] is the physical channel behind `label` according to `mode`.
// The set is sorted first so the Global mode is deterministic regardless
// of generation order (through a bitmap when its channels span a few
// 64-bit words, by comparison sort otherwise: the order is the same);
// LocalRandom then draws one shuffle of the row.
void make_labeling(std::span<Channel> row, LabelMode mode, Rng& rng);

}  // namespace cogradio
