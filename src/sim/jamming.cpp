#include "sim/jamming.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/checkpoint.h"

namespace cogradio {

BudgetedJammer::BudgetedJammer(int num_nodes, int num_channels, int budget)
    : num_nodes_(num_nodes),
      num_channels_(num_channels),
      budget_(budget),
      jam_sets_(static_cast<std::size_t>(num_nodes)) {
  if (num_nodes < 1 || num_channels < 1)
    throw std::invalid_argument("jammer: need nodes >= 1 and channels >= 1");
  if (budget < 0 || budget >= num_channels)
    throw std::invalid_argument("jammer: need 0 <= budget < channels");
}

bool BudgetedJammer::is_jammed(NodeId node, Channel channel) const {
  assert(node >= 0 && node < num_nodes_);
  const auto& set = jam_sets_[static_cast<std::size_t>(node)];
  return std::find(set.begin(), set.end(), channel) != set.end();
}

const std::vector<Channel>& BudgetedJammer::jam_set(NodeId node) const {
  assert(node >= 0 && node < num_nodes_);
  return jam_sets_[static_cast<std::size_t>(node)];
}

void BudgetedJammer::clear_jams() {
  for (auto& set : jam_sets_) set.clear();
}

void BudgetedJammer::jam(NodeId node, Channel channel) {
  auto& set = jam_sets_[static_cast<std::size_t>(node)];
  assert(static_cast<int>(set.size()) < budget_);
  if (static_cast<int>(set.size()) >= budget_) return;
  set.push_back(channel);
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
      history_(static_cast<std::size_t>(num_nodes)) {}

void ReactiveJammer::begin_slot(Slot /*slot*/) {
  clear_jams();
  for (NodeId u = 0; u < num_nodes_; ++u)
    for (Channel ch : history_[static_cast<std::size_t>(u)]) jam(u, ch);
}

void ReactiveJammer::observe(Slot /*slot*/,
                             std::span<const Channel> node_channels) {
  for (NodeId u = 0; u < num_nodes_ &&
                     static_cast<std::size_t>(u) < node_channels.size();
       ++u) {
    const Channel ch = node_channels[static_cast<std::size_t>(u)];
    if (ch == kNoChannel) continue;
    auto& h = history_[static_cast<std::size_t>(u)];
    // Keep the most recent `budget` *distinct* channels, newest first.
    if (auto it = std::find(h.begin(), h.end(), ch); it != h.end()) h.erase(it);
    h.push_front(ch);
    while (static_cast<int>(h.size()) > budget_) h.pop_back();
  }
}

void ReactiveJammer::save_state(CheckpointWriter& w) const {
  w.section("xjam");
  w.u64(history_.size());
  for (const auto& h : history_) {
    w.u64(h.size());
    for (const Channel ch : h) w.i64(ch);
  }
}

void ReactiveJammer::restore_state(CheckpointReader& r) {
  r.section("xjam");
  const std::size_t nodes = r.length(8);
  if (nodes != history_.size())
    throw CheckpointError(
        "checkpoint rejected: reactive jammer tracks " +
        std::to_string(history_.size()) + " nodes, snapshot holds " +
        std::to_string(nodes));
  for (auto& h : history_) {
    h.clear();
    const std::size_t len = r.length(8);
    for (std::size_t i = 0; i < len; ++i)
      h.push_back(static_cast<Channel>(r.i64()));
  }
}

}  // namespace cogradio
