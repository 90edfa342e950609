#include "sim/assignment.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace cogradio {

ChannelAssignment::ChannelAssignment(int n, int c, int k, int total_channels)
    : n_(n), c_(c), k_(k), total_channels_(total_channels) {
  if (n < 1) throw std::invalid_argument("assignment: need n >= 1");
  if (c < 1) throw std::invalid_argument("assignment: need c >= 1");
  if (k < 1 || k > c) throw std::invalid_argument("assignment: need 1 <= k <= c");
  if (total_channels < c)
    throw std::invalid_argument("assignment: need C >= c");
}

std::vector<Channel> ChannelAssignment::channel_set(NodeId node) const {
  std::vector<Channel> set(static_cast<std::size_t>(c_));
  for (LocalLabel l = 0; l < c_; ++l)
    set[static_cast<std::size_t>(l)] = global_channel(node, l);
  std::sort(set.begin(), set.end());
  return set;
}

int ChannelAssignment::overlap(NodeId u, NodeId v) const {
  const auto su = channel_set(u);
  const auto sv = channel_set(v);
  std::vector<Channel> common;
  std::set_intersection(su.begin(), su.end(), sv.begin(), sv.end(),
                        std::back_inserter(common));
  return static_cast<int>(common.size());
}

int ChannelAssignment::min_overlap_actual() const {
  int best = c_;
  for (NodeId u = 0; u < n_; ++u)
    for (NodeId v = u + 1; v < n_; ++v) best = std::min(best, overlap(u, v));
  return best;
}

int checked_total_channels(std::int64_t total, const char* who) {
  if (total > std::numeric_limits<Channel>::max())
    throw std::invalid_argument(
        std::string(who) + ": channel space C = " + std::to_string(total) +
        " exceeds the channel id range (max " +
        std::to_string(std::numeric_limits<Channel>::max()) + ")");
  // A negative C comes only from a shape the base constructor rejects.
  return static_cast<int>(total);
}

namespace {

// C = k + n(c-k): the Partitioned layout's universe, in 64 bits.
std::int64_t partitioned_universe(int n, int c, int k) {
  return std::int64_t{k} + std::int64_t{n} * (std::int64_t{c} - k);
}

// Applies make_labeling to every c-entry row of `table` in node order:
// the same sort and shuffle draws as labeling each node's set on its own.
void label_rows(std::span<Channel> table, int c, LabelMode mode, Rng& rng) {
  for (std::size_t at = 0; at < table.size(); at += static_cast<std::size_t>(c))
    make_labeling(table.subspan(at, static_cast<std::size_t>(c)), mode, rng);
}

// The table draws below write every row of the n*c `table` they are
// handed, drawing from `rng` exactly as building each node's raw set in
// turn and then labeling every row does. `sample` and `rest` are buffers
// they reuse: once grown to the shape, a draw allocates nothing.

// SharedCore: k core channels (0..k-1 when `low_core`, else drawn from
// all C), then each node's c-k tail drawn from the other C-k channels.
void draw_shared_core(std::span<Channel> table, int c, int k,
                      int total_channels, bool low_core, LabelMode labels,
                      Rng& rng, std::vector<std::int32_t>& sample,
                      std::vector<Channel>& rest) {
  // Row 0's first k entries hold the core until the rows are labeled.
  const std::span<Channel> core = table.first(static_cast<std::size_t>(k));
  if (low_core) {
    std::iota(core.begin(), core.end(), Channel{0});
  } else {
    rng.sample_without_replacement(total_channels, k, sample);
    std::copy(sample.begin(), sample.end(), core.begin());
  }
  rest.resize(static_cast<std::size_t>(total_channels));
  std::iota(rest.begin(), rest.end(), Channel{0});
  for (const Channel ch : core) rest[static_cast<std::size_t>(ch)] = kNoChannel;
  std::erase(rest, kNoChannel);
  const auto width = static_cast<std::size_t>(c);
  for (std::size_t at = 0; at < table.size(); at += width) {
    if (at > 0) std::copy(core.begin(), core.end(), table.begin() + at);
    rng.sample_without_replacement(static_cast<std::int32_t>(rest.size()),
                                   c - k, sample);
    for (std::size_t j = 0; j < sample.size(); ++j)
      table[at + core.size() + j] = rest[static_cast<std::size_t>(sample[j])];
  }
  label_rows(table, c, labels, rng);
}

// Pigeonhole: each node's c channels drawn from all C.
void draw_pigeonhole(std::span<Channel> table, int c, int total_channels,
                     LabelMode labels, Rng& rng,
                     std::vector<std::int32_t>& sample) {
  for (std::size_t at = 0; at < table.size(); at += static_cast<std::size_t>(c)) {
    rng.sample_without_replacement(total_channels, c, sample);
    std::copy(sample.begin(), sample.end(), table.begin() + at);
  }
  label_rows(table, c, labels, rng);
}

}  // namespace

TableAssignment::TableAssignment(int n, int c, int k, int total_channels)
    : ChannelAssignment(n, c, k, total_channels) {
  table_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(c));
}

Channel TableAssignment::global_channel(NodeId node, LocalLabel label) const {
  assert(node >= 0 && node < n_);
  assert(label >= 0 && label < c_);
  return table_[static_cast<std::size_t>(node) * static_cast<std::size_t>(c_) +
                static_cast<std::size_t>(label)];
}

std::span<Channel> TableAssignment::row(NodeId node) {
  assert(node >= 0 && node < n_);
  return std::span<Channel>(table_).subspan(
      static_cast<std::size_t>(node) * static_cast<std::size_t>(c_),
      static_cast<std::size_t>(c_));
}

SharedCoreAssignment::SharedCoreAssignment(int n, int c, int k,
                                           LabelMode labels, Rng rng,
                                           int total_channels, bool low_core)
    : TableAssignment(n, c, k,
                      total_channels == 0
                          ? checked_total_channels(2 * std::int64_t{c},
                                                   "shared-core")
                          : total_channels) {
  if (total_channels_ < c) throw std::invalid_argument("shared-core: C < c");
  std::vector<std::int32_t> sample;
  std::vector<Channel> rest;
  draw_shared_core(table_, c, k, total_channels_, low_core, labels, rng,
                   sample, rest);
}

PartitionedAssignment::PartitionedAssignment(int n, int c, int k,
                                             LabelMode labels, Rng rng)
    : TableAssignment(n, c, k,
                      checked_total_channels(partitioned_universe(n, c, k),
                                             "partitioned")) {
  // Random global permutation of all C channels; the first k become the
  // shared core, the remainder is cut into n private blocks of size c-k.
  std::vector<Channel> perm(static_cast<std::size_t>(total_channels_));
  for (Channel ch = 0; ch < total_channels_; ++ch)
    perm[static_cast<std::size_t>(ch)] = ch;
  rng.shuffle(perm);

  const auto core_end = perm.begin() + k;
  for (NodeId u = 0; u < n; ++u) {
    const auto tail = std::copy(perm.begin(), core_end, row(u).begin());
    const auto block = core_end + static_cast<std::ptrdiff_t>(u) * (c - k);
    std::copy(block, block + (c - k), tail);
  }
  label_rows(table_, c, labels, rng);
}

PigeonholeAssignment::PigeonholeAssignment(int n, int c, int k,
                                           LabelMode labels, Rng rng)
    : TableAssignment(n, c, k,
                      checked_total_channels(2 * std::int64_t{c} - k,
                                             "pigeonhole")) {
  std::vector<std::int32_t> sample;
  draw_pigeonhole(table_, c, total_channels_, labels, rng, sample);
}

IdentityAssignment::IdentityAssignment(int n, int c, LabelMode labels, Rng rng)
    : TableAssignment(n, c, /*k=*/c, /*total_channels=*/c) {
  for (NodeId u = 0; u < n; ++u) {
    const std::span<Channel> channels = row(u);
    std::iota(channels.begin(), channels.end(), Channel{0});
  }
  label_rows(table_, c, labels, rng);
}

DynamicAssignment::DynamicAssignment(int n, int c, int k, Pattern pattern,
                                     Rng rng)
    : TableAssignment(
          n, c, k,
          pattern == Pattern::SharedCore
              ? checked_total_channels(2 * std::int64_t{c}, "shared-core")
              : checked_total_channels(2 * std::int64_t{c} - k, "pigeonhole")),
      pattern_(pattern),
      seed_(rng()) {
  begin_slot(0);
}

void DynamicAssignment::begin_slot(Slot slot) {
  // Derive the slot's stream statelessly so that re-entering a slot (e.g.
  // for inspection or replay) reproduces the same assignment.
  std::uint64_t s = seed_ ^ (static_cast<std::uint64_t>(slot) * 0x9E3779B97F4A7C15ULL);
  Rng rng(splitmix64(s));
  if (pattern_ == Pattern::SharedCore)
    draw_shared_core(table_, c_, k_, total_channels_, /*low_core=*/false,
                     LabelMode::LocalRandom, rng, sample_, rest_);
  else
    draw_pigeonhole(table_, c_, total_channels_, LabelMode::LocalRandom, rng,
                    sample_);
}

std::unique_ptr<DynamicAssignment> DynamicAssignment::shared_core(int n, int c,
                                                                  int k,
                                                                  Rng rng) {
  return std::make_unique<DynamicAssignment>(n, c, k, Pattern::SharedCore, rng);
}

std::unique_ptr<DynamicAssignment> DynamicAssignment::pigeonhole(int n, int c,
                                                                 int k,
                                                                 Rng rng) {
  return std::make_unique<DynamicAssignment>(n, c, k, Pattern::Pigeonhole, rng);
}

AdaptiveAdversaryAssignment::AdaptiveAdversaryAssignment(int n, int c, int k,
                                                         Predictor predictor,
                                                         Rng rng)
    : TableAssignment(n, c, k,
                      checked_total_channels(partitioned_universe(n, c, k),
                                             "adversary")),
      predictor_(std::move(predictor)),
      rng_(rng) {
  if (k >= c)
    throw std::invalid_argument(
        "adversary: needs k < c (with k = c there is nowhere to dodge to)");
  begin_slot(1);
}

void AdaptiveAdversaryAssignment::begin_slot(Slot slot) {
  // Physical layout is fixed: channels 0..k-1 are the shared core; node u's
  // private block is [k + u(c-k), k + (u+1)(c-k)). Only the labeling moves.
  for (NodeId u = 0; u < n_; ++u) {
    const std::span<Channel> channels = row(u);
    for (Channel ch = 0; ch < k_; ++ch)
      channels[static_cast<std::size_t>(ch)] = ch;
    const Channel priv_base = k_ + u * (c_ - k_);
    for (Channel j = 0; j < c_ - k_; ++j)
      channels[static_cast<std::size_t>(k_ + j)] = priv_base + j;
    rng_.shuffle(channels);

    const LocalLabel predicted = predictor_ ? predictor_(u, slot) : kNoChannel;
    if (predicted >= 0 && predicted < c_) {
      // Ensure the predicted label maps into the private block: find some
      // private channel and swap it into position `predicted`.
      auto it = std::find_if(channels.begin(), channels.end(),
                             [&](Channel ch) { return ch >= k_; });
      assert(it != channels.end());  // c > k guarantees a private channel
      std::swap(channels[static_cast<std::size_t>(predicted)], *it);
    }
  }
}

std::unique_ptr<ChannelAssignment> make_assignment(const std::string& pattern,
                                                   int n, int c, int k,
                                                   LabelMode labels, Rng rng) {
  if (pattern == "shared-core")
    return std::make_unique<SharedCoreAssignment>(n, c, k, labels, rng);
  if (pattern == "partitioned")
    return std::make_unique<PartitionedAssignment>(n, c, k, labels, rng);
  if (pattern == "pigeonhole")
    return std::make_unique<PigeonholeAssignment>(n, c, k, labels, rng);
  if (pattern == "identity")
    return std::make_unique<IdentityAssignment>(n, c, labels, rng);
  if (pattern == "dynamic-shared-core")
    return DynamicAssignment::shared_core(n, c, k, rng);
  if (pattern == "dynamic-pigeonhole")
    return DynamicAssignment::pigeonhole(n, c, k, rng);
  throw std::invalid_argument("unknown assignment pattern: " + pattern);
}

const std::vector<std::string>& static_pattern_names() {
  static const std::vector<std::string> names{"shared-core", "partitioned",
                                              "pigeonhole"};
  return names;
}

}  // namespace cogradio
