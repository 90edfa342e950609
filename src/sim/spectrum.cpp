#include "sim/spectrum.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace cogradio {

namespace {
int total_channels_for(int n, int k, const SpectrumParams& spectrum) {
  // Channels 0..k-1 are reserved; node u's hardware band is the contiguous
  // range [k + u*stride, k + u*stride + band) with stride = band/2, so
  // neighbouring bands overlap (realistic) but the universe stays linear
  // in n.
  const int stride = std::max(1, spectrum.band / 2);
  return checked_total_channels(std::int64_t{k} +
                                    std::int64_t{stride} * (n - std::int64_t{1}) +
                                    spectrum.band,
                                "spectrum");
}
}  // namespace

MarkovSpectrumAssignment::MarkovSpectrumAssignment(int n, int c, int k,
                                                   SpectrumParams spectrum,
                                                   Rng rng)
    : TableAssignment(n, c, k, total_channels_for(n, k, spectrum)),
      spectrum_(spectrum),
      rng_(rng),
      fallbacks_(static_cast<std::size_t>(n), 0) {
  if (spectrum.band < c - k)
    throw std::invalid_argument("spectrum: band must be >= c - k");
  if (spectrum.p_free_to_busy < 0 || spectrum.p_free_to_busy > 1 ||
      spectrum.p_busy_to_free <= 0 || spectrum.p_busy_to_free > 1)
    throw std::invalid_argument("spectrum: bad Markov probabilities");
  // Start each primary user from the stationary distribution.
  const double pi_busy = stationary_busy();
  busy_.resize(static_cast<std::size_t>(total_channels_ - k_));
  for (auto&& state : busy_) state = rng_.chance(pi_busy);
  // No channel is kept from before the first build: kNoChannel < k.
  table_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(c),
                kNoChannel);
  keep_.reserve(static_cast<std::size_t>(c - k));
  free_picks_.reserve(static_cast<std::size_t>(spectrum.band));
  busy_picks_.reserve(static_cast<std::size_t>(spectrum.band));
  rebuild_tables();
}

double MarkovSpectrumAssignment::stationary_busy() const {
  const double up = spectrum_.p_free_to_busy;
  const double down = spectrum_.p_busy_to_free;
  return up + down > 0 ? up / (up + down) : 0.0;
}

double MarkovSpectrumAssignment::busy_fraction() const {
  if (busy_.empty()) return 0.0;
  const auto busy_count =
      std::count(busy_.begin(), busy_.end(), true);
  return static_cast<double>(busy_count) / static_cast<double>(busy_.size());
}

double MarkovSpectrumAssignment::fallback_fraction(NodeId node) const {
  assert(node >= 0 && node < n_);
  return c_ - k_ > 0 ? static_cast<double>(
                           fallbacks_[static_cast<std::size_t>(node)]) /
                           (c_ - k_)
                     : 0.0;
}

void MarkovSpectrumAssignment::begin_slot(Slot slot) {
  // Advance each primary user once per elapsed slot (slots are visited in
  // order by the network; re-entry into the same slot is a no-op).
  if (slot <= last_slot_) return;
  for (; last_slot_ < slot; ++last_slot_) {
    for (std::size_t ch = 0; ch < busy_.size(); ++ch) {
      const bool is_busy = busy_[ch];
      if (is_busy) {
        if (rng_.chance(spectrum_.p_busy_to_free)) busy_[ch] = false;
      } else if (rng_.chance(spectrum_.p_free_to_busy)) {
        busy_[ch] = true;
      }
    }
  }
  rebuild_tables();
}

void MarkovSpectrumAssignment::rebuild_tables() {
  const int stride = std::max(1, spectrum_.band / 2);
  for (NodeId u = 0; u < n_; ++u) {
    keep_.clear();
    free_picks_.clear();
    busy_picks_.clear();
    const std::span<Channel> row = this->row(u);

    // Secondary users are sticky: keep previously selected channels while
    // their primary stays away (this is what gives availability its
    // temporal correlation at the protocol level).
    for (Channel ch : row)
      if (ch >= k_ && !busy_[static_cast<std::size_t>(ch - k_)] &&
          static_cast<int>(keep_.size()) < c_ - k_)
        keep_.push_back(ch);

    const Channel band_base = k_ + u * stride;
    for (int j = 0; j < spectrum_.band; ++j) {
      const Channel ch = band_base + j;
      if (std::find(keep_.begin(), keep_.end(), ch) != keep_.end()) continue;
      (busy_[static_cast<std::size_t>(ch - k_)] ? busy_picks_ : free_picks_)
          .push_back(ch);
    }
    // Fill vacancies preferring free channels; shuffle within each class
    // so the refilled subset is not positionally biased.
    rng_.shuffle(free_picks_);
    rng_.shuffle(busy_picks_);

    auto out = row.begin();
    for (Channel ch = 0; ch < k_; ++ch) *out++ = ch;  // reserved
    out = std::copy(keep_.begin(), keep_.end(), out);
    int fallback = 0;
    for (int j = static_cast<int>(keep_.size()); j < c_ - k_; ++j) {
      const auto idx = static_cast<std::size_t>(j) - keep_.size();
      if (idx < free_picks_.size()) {
        *out++ = free_picks_[idx];
      } else {
        *out++ = busy_picks_[idx - free_picks_.size()];
        ++fallback;
      }
    }
    fallbacks_[static_cast<std::size_t>(u)] = fallback;
    rng_.shuffle(row);  // local labels are arbitrary (Section 2)
  }
}

}  // namespace cogradio
