#include "sim/assignment.h"

#include <algorithm>
#include <cassert>
#include <limits>
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

}  // namespace

TableAssignment::TableAssignment(int n, int c, int k, int total_channels)
    : ChannelAssignment(n, c, k, total_channels) {
  table_.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(c));
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

void TableAssignment::label_rows(LabelMode mode, Rng& rng) {
  for (NodeId u = 0; u < n_; ++u) make_labeling(row(u), mode, rng);
}

SharedCoreAssignment::SharedCoreAssignment(int n, int c, int k,
                                           LabelMode labels, Rng rng,
                                           int total_channels, bool low_core)
    : TableAssignment(n, c, k,
                      total_channels == 0
                          ? checked_total_channels(2 * std::int64_t{c},
                                                   "shared-core")
                          : total_channels) {
  const int big_c = total_channels_;
  if (big_c < c) throw std::invalid_argument("shared-core: C < c");
  // Choose the k core channels, then per-node tails from the complement.
  std::vector<Channel> core;
  if (low_core) {
    for (Channel ch = 0; ch < k; ++ch) core.push_back(ch);
  } else {
    core = rng.sample_without_replacement(big_c, k);
  }
  std::vector<Channel> rest;
  {
    std::vector<bool> in_core(static_cast<std::size_t>(big_c), false);
    for (Channel ch : core) in_core[static_cast<std::size_t>(ch)] = true;
    for (Channel ch = 0; ch < big_c; ++ch)
      if (!in_core[static_cast<std::size_t>(ch)]) rest.push_back(ch);
  }
  // Every node's raw set first, then every node's labeling: the draw order
  // of building all sets before labeling any.
  for (NodeId u = 0; u < n; ++u) {
    table_.insert(table_.end(), core.begin(), core.end());
    const auto tail = rng.sample_without_replacement(
        static_cast<std::int32_t>(rest.size()), c - k);
    for (auto idx : tail) table_.push_back(rest[static_cast<std::size_t>(idx)]);
  }
  label_rows(labels, rng);
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
    table_.insert(table_.end(), perm.begin(), core_end);
    const auto block = core_end + static_cast<std::ptrdiff_t>(u) * (c - k);
    table_.insert(table_.end(), block, block + (c - k));
  }
  label_rows(labels, rng);
}

PigeonholeAssignment::PigeonholeAssignment(int n, int c, int k,
                                           LabelMode labels, Rng rng)
    : TableAssignment(n, c, k,
                      checked_total_channels(2 * std::int64_t{c} - k,
                                             "pigeonhole")) {
  for (NodeId u = 0; u < n; ++u) {
    const auto set = rng.sample_without_replacement(total_channels_, c);
    table_.insert(table_.end(), set.begin(), set.end());
  }
  label_rows(labels, rng);
}

IdentityAssignment::IdentityAssignment(int n, int c, LabelMode labels, Rng rng)
    : TableAssignment(n, c, /*k=*/c, /*total_channels=*/c) {
  for (NodeId u = 0; u < n; ++u)
    for (Channel ch = 0; ch < c; ++ch) table_.push_back(ch);
  label_rows(labels, rng);
}

DynamicAssignment::DynamicAssignment(int n, int c, int k, int total_channels,
                                     Factory factory, Rng rng)
    : ChannelAssignment(n, c, k, total_channels),
      factory_(std::move(factory)),
      seed_(rng()) {
  begin_slot(0);
}

void DynamicAssignment::begin_slot(Slot slot) {
  // Derive the slot's stream statelessly so that re-entering a slot (e.g.
  // for inspection or replay) reproduces the same assignment.
  std::uint64_t s = seed_ ^ (static_cast<std::uint64_t>(slot) * 0x9E3779B97F4A7C15ULL);
  current_ = factory_(Rng(splitmix64(s)));
}

Channel DynamicAssignment::global_channel(NodeId node, LocalLabel label) const {
  return current_->global_channel(node, label);
}

std::unique_ptr<DynamicAssignment> DynamicAssignment::shared_core(int n, int c,
                                                                  int k,
                                                                  Rng rng) {
  auto factory = [n, c, k](Rng slot_rng) {
    return std::make_unique<SharedCoreAssignment>(n, c, k,
                                                  LabelMode::LocalRandom,
                                                  slot_rng);
  };
  return std::make_unique<DynamicAssignment>(
      n, c, k, checked_total_channels(2 * std::int64_t{c}, "shared-core"),
      std::move(factory), rng);
}

std::unique_ptr<DynamicAssignment> DynamicAssignment::pigeonhole(int n, int c,
                                                                 int k,
                                                                 Rng rng) {
  auto factory = [n, c, k](Rng slot_rng) {
    return std::make_unique<PigeonholeAssignment>(n, c, k,
                                                  LabelMode::LocalRandom,
                                                  slot_rng);
  };
  return std::make_unique<DynamicAssignment>(
      n, c, k, checked_total_channels(2 * std::int64_t{c} - k, "pigeonhole"),
      std::move(factory), rng);
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
  table_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(c));
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
