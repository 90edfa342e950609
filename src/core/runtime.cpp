#include "core/runtime.h"

#include <algorithm>
#include <stdexcept>

#include "baselines/hopping_together.h"
#include "baselines/rendezvous_aggregation.h"
#include "baselines/rendezvous_broadcast.h"
#include "sim/reference_network.h"

namespace cogradio {

template <typename Engine>
Assembly<CogCastNode, Engine> assemble_cogcast(ChannelAssignment& assignment,
                                               const CogCastRunConfig& config) {
  const CogCastParams& p = config.params;
  if (assignment.num_nodes() != p.n ||
      assignment.channels_per_node() != p.c)
    throw std::invalid_argument("run_cogcast: assignment/params mismatch");
  if (config.source < 0 || config.source >= p.n)
    throw std::invalid_argument("run_cogcast: bad source");

  Message payload;
  payload.type = MessageType::Data;
  payload.a = 42;  // arbitrary content; only arrival is measured

  const Slot horizon = config.bounded ? p.horizon() : 0;
  auto run = assemble<CogCastNode, Engine>(
      assignment, Rng(config.seed), config.net, [&](NodeId u, Rng rng) {
        const bool is_source =
            u == config.source ||
            std::find(config.extra_sources.begin(),
                      config.extra_sources.end(),
                      u) != config.extra_sources.end();
        return std::make_unique<CogCastNode>(u, p.c, is_source, payload, rng,
                                             horizon);
      });
  if (config.jammer != nullptr) run.network->set_jammer(config.jammer);
  if (config.fault_engine != nullptr)
    run.network->set_fault_engine(config.fault_engine);
  return run;
}

template Assembly<CogCastNode, Network> assemble_cogcast<Network>(
    ChannelAssignment&, const CogCastRunConfig&);

namespace {

// run_cogcast on Network or on the reference engine.
template <typename Engine>
BroadcastOutcome run_cogcast_on(ChannelAssignment& assignment,
                                const CogCastRunConfig& config) {
  const auto run = assemble_cogcast<Engine>(assignment, config);
  const Slot cap =
      config.max_slots > 0 ? config.max_slots : 8 * config.params.horizon();
  run.network->run(cap);

  BroadcastOutcome out;
  out.slots = run.network->now();
  out.stats = run.network->stats();
  out.completed = true;
  out.informed_slot.reserve(run.nodes.size());
  out.parent.reserve(run.nodes.size());
  for (const auto& node : run.nodes) {
    out.completed = out.completed && node->informed();
    out.informed_slot.push_back(node->informed_slot());
    out.parent.push_back(node->parent());
  }
  return out;
}

}  // namespace

BroadcastOutcome run_cogcast(ChannelAssignment& assignment,
                             const CogCastRunConfig& config) {
  return run_cogcast_on<Network>(assignment, config);
}

BroadcastOutcome run_cogcast_reference(ChannelAssignment& assignment,
                                       const CogCastRunConfig& config) {
  return run_cogcast_on<ReferenceNetwork>(assignment, config);
}

bool valid_distribution_tree(NodeId source, std::span<const Slot> informed_slot,
                             std::span<const NodeId> parent) {
  const auto n = informed_slot.size();
  if (parent.size() != n) return false;
  if (source < 0 || static_cast<std::size_t>(source) >= n) return false;
  if (informed_slot[static_cast<std::size_t>(source)] != 0) return false;
  if (parent[static_cast<std::size_t>(source)] != kNoNode) return false;
  for (std::size_t u = 0; u < n; ++u) {
    if (static_cast<NodeId>(u) == source) continue;
    const Slot s = informed_slot[u];
    const NodeId pa = parent[u];
    if (s == kNoSlot || s <= 0) return false;
    if (pa < 0 || static_cast<std::size_t>(pa) >= n) return false;
    // The informer must itself have been informed strictly earlier; this
    // also rules out cycles, so reachability of the root follows.
    if (informed_slot[static_cast<std::size_t>(pa)] >= s) return false;
  }
  return true;
}

Assembly<CogCompNode> assemble_cogcomp(ChannelAssignment& assignment,
                                       std::span<const Value> values,
                                       const CogCompRunConfig& config) {
  const CogCompParams& p = config.params;
  if (assignment.num_nodes() != p.n ||
      assignment.channels_per_node() != p.c)
    throw std::invalid_argument("run_cogcomp: assignment/params mismatch");
  if (static_cast<int>(values.size()) != p.n)
    throw std::invalid_argument("run_cogcomp: need one value per node");
  if (config.source < 0 || config.source >= p.n)
    throw std::invalid_argument("run_cogcomp: bad source");

  const Aggregator aggregator(config.op);
  auto run = assemble<CogCompNode>(
      assignment, Rng(config.seed), config.net, [&](NodeId u, Rng rng) {
        return std::make_unique<CogCompNode>(
            u, p, u == config.source, values[static_cast<std::size_t>(u)],
            aggregator, rng);
      });
  if (config.fault_engine != nullptr)
    run.network->set_fault_engine(config.fault_engine);
  return run;
}

AggregationOutcome run_cogcomp(ChannelAssignment& assignment,
                               std::span<const Value> values,
                               const CogCompRunConfig& config) {
  const CogCompParams& p = config.params;
  const auto run = assemble_cogcomp(assignment, values, config);
  const Slot cap = config.max_slots > 0 ? config.max_slots : p.max_slots();
  run.network->run(cap);

  const Aggregator aggregator(config.op);
  const CogCompNode& source =
      *run.nodes[static_cast<std::size_t>(config.source)];
  AggregationOutcome out;
  out.slots = run.network->now();
  out.phase1_end = p.phase1_end();
  out.phase2_end = p.phase2_end();
  out.phase3_end = p.phase3_end();
  out.phase4_slots = std::max<Slot>(0, out.slots - p.phase3_end());
  out.stats = run.network->stats();
  out.completed = source.complete() && run.network->all_done();
  out.result = aggregator.result(source.accumulated());
  out.covered = source.accumulated().count;
  std::vector<Value> value_vec(values.begin(), values.end());
  out.expected = aggregator.expected(value_vec);
  return out;
}

BroadcastOutcome run_rendezvous_broadcast(ChannelAssignment& assignment,
                                          const BaselineRunConfig& config) {
  const int c = assignment.channels_per_node();
  Message payload;
  payload.type = MessageType::Data;

  const auto run = assemble<RendezvousBroadcastNode>(
      assignment, Rng(config.seed), config.net, [&](NodeId u, Rng rng) {
        return std::make_unique<RendezvousBroadcastNode>(
            u, c, u == config.source, payload, rng);
      });
  run.network->run(config.max_slots);

  BroadcastOutcome out;
  out.slots = run.network->now();
  out.stats = run.network->stats();
  out.completed = run.network->all_done();
  for (const auto& node : run.nodes) {
    out.informed_slot.push_back(node->informed_slot());
    out.parent.push_back(node->informed() && node->id() != config.source
                             ? config.source
                             : kNoNode);
  }
  return out;
}

AggregationOutcome run_rendezvous_aggregation(ChannelAssignment& assignment,
                                              std::span<const Value> values,
                                              const BaselineRunConfig& config) {
  const int n = assignment.num_nodes();
  const int c = assignment.channels_per_node();
  if (static_cast<int>(values.size()) != n)
    throw std::invalid_argument("baseline aggregation: one value per node");

  const Aggregator aggregator(config.op);
  const auto run = assemble<RendezvousAggregationNode>(
      assignment, Rng(config.seed), config.net, [&](NodeId u, Rng rng) {
        auto node = std::make_unique<RendezvousAggregationNode>(
            u, c, u == config.source, values[static_cast<std::size_t>(u)],
            aggregator, rng);
        if (u == config.source) node->set_expected_count(n);
        return node;
      });
  run.network->run(config.max_slots);

  AggregationOutcome out;
  out.slots = run.network->now();
  out.stats = run.network->stats();
  out.completed = run.network->all_done();
  const auto& acc =
      run.nodes[static_cast<std::size_t>(config.source)]->accumulated();
  out.result = aggregator.result(acc);
  out.covered = acc.count;
  std::vector<Value> value_vec(values.begin(), values.end());
  out.expected = aggregator.expected(value_vec);
  return out;
}

BroadcastOutcome run_hopping_together(ChannelAssignment& assignment,
                                      const BaselineRunConfig& config) {
  const int n = assignment.num_nodes();
  Message payload;
  payload.type = MessageType::Data;

  std::vector<std::unique_ptr<HoppingTogetherNode>> nodes;
  std::vector<Protocol*> protocols;
  for (NodeId u = 0; u < n; ++u) {
    std::vector<Channel> globals;
    globals.reserve(static_cast<std::size_t>(assignment.channels_per_node()));
    for (LocalLabel l = 0; l < assignment.channels_per_node(); ++l)
      globals.push_back(assignment.global_channel(u, l));
    nodes.push_back(std::make_unique<HoppingTogetherNode>(
        u, assignment.total_channels(), u == config.source, payload,
        std::move(globals)));
    protocols.push_back(nodes.back().get());
  }
  NetworkOptions net = config.net;
  net.seed = config.seed;
  Network network(assignment, std::move(protocols), net);
  network.run(config.max_slots);

  BroadcastOutcome out;
  out.slots = network.now();
  out.stats = network.stats();
  out.completed = network.all_done();
  for (const auto& node : nodes) {
    out.informed_slot.push_back(node->informed_slot());
    out.parent.push_back(node->informed() && node->id() != config.source
                             ? config.source
                             : kNoNode);
  }
  return out;
}

std::vector<Value> make_values(int n, std::uint64_t seed, Value lo, Value hi) {
  Rng rng(seed);
  std::vector<Value> values(static_cast<std::size_t>(n));
  for (auto& v : values) v = rng.between(lo, hi);
  return values;
}

}  // namespace cogradio
