// Tests for the SoA engine's active scan (sim/active_scan.h): the block
// kernel (SSE2 on x86-64) and the portable word kernel it falls back to
// must both list exactly the non-idle nodes, ascending, at every size
// around their block and word boundaries and at every density. Running
// the word kernel on its own keeps the non-SSE2 path tested on x86 too.
#include "sim/active_scan.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace cogradio {
namespace {

// The byte-by-byte definition both kernels must match.
std::vector<std::int32_t> reference_scan(const std::vector<Mode>& mode) {
  std::vector<std::int32_t> out;
  for (std::size_t i = 0; i < mode.size(); ++i)
    if (mode[i] != Mode::Idle) out.push_back(static_cast<std::int32_t>(i));
  return out;
}

enum class Density { AllIdle, DutyResidue, Half, AllActive };

std::string density_name(Density d) {
  switch (d) {
    case Density::AllIdle: return "all-idle";
    case Density::DutyResidue: return "duty-residue";
    case Density::Half: return "half";
    case Density::AllActive: return "all-active";
  }
  return "?";
}

// An action array of n nodes: the active ones alternate Broadcast and
// Listen, as a coin picks.
std::vector<Mode> make_modes(std::size_t n, Density density, Rng& rng) {
  std::vector<Mode> mode(n, Mode::Idle);
  for (std::size_t i = 0; i < n; ++i) {
    bool active = false;
    switch (density) {
      case Density::AllIdle: break;
      // duty_fleet's duty cycle: one residue class of period 100 is awake.
      case Density::DutyResidue: active = i % 100 == 37; break;
      case Density::Half: active = rng.chance(0.5); break;
      case Density::AllActive: active = true; break;
    }
    if (active) mode[i] = rng.chance(0.5) ? Mode::Broadcast : Mode::Listen;
  }
  return mode;
}

TEST(ActiveScan, BothKernelsMatchTheByteReference) {
  const std::size_t sizes[] = {1, 7, 8, 63, 64, 65, 127, 1000, (1u << 14) + 13};
  const Density densities[] = {Density::AllIdle, Density::DutyResidue,
                               Density::Half, Density::AllActive};
  Rng rng(17);
  for (const std::size_t n : sizes) {
    for (const Density density : densities) {
      SCOPED_TRACE("n=" + std::to_string(n) + " " + density_name(density));
      const std::vector<Mode> mode = make_modes(n, density, rng);
      const std::vector<std::int32_t> expected = reference_scan(mode);

      std::vector<std::int32_t> block;
      scan_active(mode, block);
      EXPECT_EQ(block, expected);

      std::vector<std::int32_t> words;
      scan_active_words(mode, 0, words);
      EXPECT_EQ(words, expected);
    }
  }
}

}  // namespace
}  // namespace cogradio
