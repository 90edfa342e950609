#include "sim/labels.h"

#include <algorithm>

namespace cogradio {

void make_labeling(std::span<Channel> row, LabelMode mode, Rng& rng) {
  std::sort(row.begin(), row.end());
  if (mode == LabelMode::LocalRandom) rng.shuffle(row);
}

}  // namespace cogradio
