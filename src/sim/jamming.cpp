#include "sim/jamming.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/checkpoint.h"

namespace cogradio {

namespace {

// Node `node`'s `width` entries of a node-major flat array.
template <typename Flat>
auto node_row(Flat& flat, NodeId node, int width) {
  return std::span(flat).subspan(
      static_cast<std::size_t>(node) * static_cast<std::size_t>(width),
      static_cast<std::size_t>(width));
}

}  // namespace

BudgetedJammer::BudgetedJammer(int num_nodes, int num_channels, int budget)
    : num_nodes_(num_nodes), num_channels_(num_channels), budget_(budget) {
  if (num_nodes < 1 || num_channels < 1)
    throw std::invalid_argument("jammer: need nodes >= 1 and channels >= 1");
  if (budget < 0 || budget >= num_channels)
    throw std::invalid_argument("jammer: need 0 <= budget < channels");
  jams_.resize(static_cast<std::size_t>(num_nodes) *
               static_cast<std::size_t>(budget));
  jam_count_.resize(static_cast<std::size_t>(num_nodes));
}

bool BudgetedJammer::is_jammed(NodeId node, Channel channel) const {
  const std::span<const Channel> set = jam_set(node);
  return std::find(set.begin(), set.end(), channel) != set.end();
}

std::span<const Channel> BudgetedJammer::jam_set(NodeId node) const {
  assert(node >= 0 && node < num_nodes_);
  return node_row(jams_, node, budget_)
      .first(static_cast<std::size_t>(jam_count_[static_cast<std::size_t>(node)]));
}

void BudgetedJammer::clear_jams() {
  std::fill(jam_count_.begin(), jam_count_.end(), 0);
}

void BudgetedJammer::jam(NodeId node, Channel channel) {
  int& count = jam_count_[static_cast<std::size_t>(node)];
  assert(count < budget_);
  if (count >= budget_) return;
  node_row(jams_, node, budget_)[static_cast<std::size_t>(count++)] = channel;
}

RandomJammer::RandomJammer(int num_nodes, int num_channels, int budget,
                           Rng rng)
    : BudgetedJammer(num_nodes, num_channels, budget), rng_(rng) {}

void RandomJammer::begin_slot(Slot /*slot*/) {
  clear_jams();
  for (NodeId u = 0; u < num_nodes_; ++u) {
    rng_.sample_without_replacement(num_channels_, budget_, draw_);
    for (Channel ch : draw_) jam(u, ch);
  }
}

void RandomJammer::save_state(CheckpointWriter& w) const {
  w.section("rjam");
  w.rng(rng_);
}

void RandomJammer::restore_state(CheckpointReader& r) {
  r.section("rjam");
  r.rng(rng_);
}

SweepJammer::SweepJammer(int num_nodes, int num_channels, int budget)
    : BudgetedJammer(num_nodes, num_channels, budget) {}

void SweepJammer::begin_slot(Slot slot) {
  clear_jams();
  const auto base = static_cast<Channel>((slot - 1) % num_channels_);
  for (NodeId u = 0; u < num_nodes_; ++u)
    for (int j = 0; j < budget_; ++j)
      jam(u, static_cast<Channel>((base + j) % num_channels_));
}

ReactiveJammer::ReactiveJammer(int num_nodes, int num_channels, int budget)
    : BudgetedJammer(num_nodes, num_channels, budget),
      history_(static_cast<std::size_t>(num_nodes) *
               static_cast<std::size_t>(budget)),
      history_len_(static_cast<std::size_t>(num_nodes)) {}

std::span<const Channel> ReactiveJammer::history(NodeId node) const {
  return node_row(history_, node, budget_)
      .first(static_cast<std::size_t>(
          history_len_[static_cast<std::size_t>(node)]));
}

void ReactiveJammer::begin_slot(Slot /*slot*/) {
  clear_jams();
  for (NodeId u = 0; u < num_nodes_; ++u)
    for (const Channel ch : history(u)) jam(u, ch);
}

void ReactiveJammer::observe(Slot /*slot*/,
                             std::span<const Channel> node_channels) {
  if (budget_ == 0) return;  // nothing is remembered
  for (NodeId u = 0; u < num_nodes_ &&
                     static_cast<std::size_t>(u) < node_channels.size();
       ++u) {
    const Channel ch = node_channels[static_cast<std::size_t>(u)];
    if (ch == kNoChannel) continue;
    // Keep the most recent `budget` *distinct* channels, newest first: a
    // repeat moves to the front; a new channel enters there, pushing the
    // oldest out of a full row.
    const std::span<Channel> row = node_row(history_, u, budget_);
    int& len = history_len_[static_cast<std::size_t>(u)];
    auto at = std::find(row.begin(), row.begin() + len, ch) - row.begin();
    if (at == len) {
      if (len < budget_) ++len;
      at = len - 1;
    }
    std::copy_backward(row.begin(), row.begin() + at, row.begin() + at + 1);
    row[0] = ch;
  }
}

void ReactiveJammer::save_state(CheckpointWriter& w) const {
  w.section("xjam");
  w.u64(history_len_.size());
  for (NodeId u = 0; u < num_nodes_; ++u) {
    const std::span<const Channel> h = history(u);
    w.u64(h.size());
    for (const Channel ch : h) w.i64(ch);
  }
}

void ReactiveJammer::restore_state(CheckpointReader& r) {
  r.section("xjam");
  const std::size_t nodes = r.length(8);
  if (nodes != history_len_.size())
    throw CheckpointError(
        "checkpoint rejected: reactive jammer tracks " +
        std::to_string(history_len_.size()) + " nodes, snapshot holds " +
        std::to_string(nodes));
  for (NodeId u = 0; u < num_nodes_; ++u) {
    const auto reject = [u](const std::string& why) {
      return CheckpointError(
          "checkpoint rejected: reactive jammer history of node " +
          std::to_string(u) + " " + why);
    };
    const std::span<Channel> row = node_row(history_, u, budget_);
    const std::size_t len = r.length(8);
    if (len > row.size())
      throw reject("holds " + std::to_string(len) + " channels, budget " +
                   std::to_string(budget_));
    for (std::size_t i = 0; i < len; ++i) {
      const std::int64_t ch = r.i64();
      if (ch < 0 || ch >= num_channels_)
        throw reject("holds channel " + std::to_string(ch) + " outside [0, " +
                     std::to_string(num_channels_) + ")");
      const auto seen = row.first(i);
      if (std::find(seen.begin(), seen.end(), ch) != seen.end())
        throw reject("repeats channel " + std::to_string(ch));
      row[i] = static_cast<Channel>(ch);
    }
    history_len_[static_cast<std::size_t>(u)] = static_cast<int>(len);
  }
}

}  // namespace cogradio
