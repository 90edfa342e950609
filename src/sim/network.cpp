#include "sim/network.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "sim/checkpoint.h"

namespace cogradio {

namespace {

// Dense group view over one channel's bitmap rows: node ids are bit
// positions, so every enumeration below is ascending by construction —
// the same stable order the sparse view (and the AoS reference) produce.
struct DenseGroup {
  const std::uint64_t* tuned;
  const std::uint64_t* bcast;
  std::size_t words;

  int bcount() const {
    int count = 0;
    for (std::size_t w = 0; w < words; ++w) count += std::popcount(bcast[w]);
    return count;
  }

  // The k-th broadcaster in ascending node order: prefix-popcount walk to
  // the right word, then k bit-clears within it.
  int nth_broadcaster(int k) const {
    for (std::size_t w = 0; w < words; ++w) {
      const int pc = std::popcount(bcast[w]);
      if (k < pc) {
        std::uint64_t word = bcast[w];
        while (k-- > 0) word &= word - 1;
        return static_cast<int>(w * 64) + std::countr_zero(word);
      }
      k -= pc;
    }
    assert(false && "nth_broadcaster out of range");
    return -1;
  }

  template <typename Fn>
  void for_each_broadcaster(Fn&& fn) const {
    scan(bcast, nullptr, fn);
  }
  template <typename Fn>
  void for_each_listener(Fn&& fn) const {
    scan(tuned, bcast, fn);  // tuned & ~bcast
  }
  template <typename Fn>
  void for_each_broadcaster_except(int skip, Fn&& fn) const {
    scan(bcast, nullptr, [&](int idx) {
      if (idx != skip) fn(idx);
    });
  }

 private:
  template <typename Fn>
  void scan(const std::uint64_t* rows, const std::uint64_t* minus,
            Fn&& fn) const {
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t word = minus != nullptr ? rows[w] & ~minus[w] : rows[w];
      while (word != 0) {
        fn(static_cast<int>(w * 64) + std::countr_zero(word));
        word &= word - 1;
      }
    }
  }
};

// Sparse group view over the counting-sort partition scratch; both lists
// are already ascending by node id (stable scatter).
struct SparseGroup {
  const std::vector<int>& broadcasters;
  const std::vector<int>& listeners;

  int bcount() const { return static_cast<int>(broadcasters.size()); }
  int nth_broadcaster(int k) const {
    return broadcasters[static_cast<std::size_t>(k)];
  }
  template <typename Fn>
  void for_each_broadcaster(Fn&& fn) const {
    for (int b : broadcasters) fn(b);
  }
  template <typename Fn>
  void for_each_listener(Fn&& fn) const {
    for (int l : listeners) fn(l);
  }
  template <typename Fn>
  void for_each_broadcaster_except(int skip, Fn&& fn) const {
    for (int b : broadcasters)
      if (b != skip) fn(b);
  }
};

}  // namespace

// Per-node protocols as a BatchClient: begin_slot asks every node for its
// action and stages each broadcaster's message until the engine sources
// it; end_slot rebuilds each node's SlotResult from the batch arrays.
// Both passes run in ascending node order.
class Network::ProtocolClient final : public BatchClient {
 public:
  explicit ProtocolClient(std::vector<Protocol*> protocols)
      : protocols_(std::move(protocols)), staged_(protocols_.size()) {}

  const std::vector<Protocol*>& protocols() const { return protocols_; }

  void begin_slot(Slot slot, std::span<Mode> mode,
                  std::span<LocalLabel> label) override {
    for (std::size_t i = 0; i < protocols_.size(); ++i) {
      Action action = protocols_[i]->on_slot(slot);
      mode[i] = action.mode;
      label[i] = action.channel;
      if (action.mode == Mode::Broadcast) staged_[i] = std::move(action.msg);
    }
  }

  Message source_message(Slot, NodeId node) override {
    return std::move(staged_[static_cast<std::size_t>(node)]);
  }

  void end_slot(const BatchFeedback& fb) override {
    for (std::size_t i = 0; i < protocols_.size(); ++i) {
      const std::uint8_t flags = fb.flags[i];
      SlotResult res;
      if (!(flags & slotflag::kFeedbackBlank)) {
        res.jammed = (flags & slotflag::kJammed) != 0;
        res.tx_attempted = fb.mode[i] == Mode::Broadcast && !res.jammed;
        res.tx_success = (flags & slotflag::kTxSuccess) != 0;
        // rx_offset is meaningful only for a node that heard something.
        const auto count = static_cast<std::size_t>(fb.rx_count[i]);
        const auto offset =
            count > 0 ? static_cast<std::size_t>(fb.rx_offset[i]) : 0;
        res.received = {fb.messages.data() + offset, count};
      }
      protocols_[i]->on_feedback(fb.slot, res);
    }
  }

  bool done() const override {
    return std::all_of(protocols_.begin(), protocols_.end(),
                       [](const Protocol* p) { return p->done(); });
  }

 private:
  std::vector<Protocol*> protocols_;
  std::vector<Message> staged_;  // by node; only broadcasters' are live
};

Network::Network(ChannelAssignment& assignment,
                 std::vector<Protocol*> protocols, NetworkOptions options)
    : assignment_(assignment),
      options_(options),
      rng_(options.seed),
      n_(assignment.num_nodes()),
      activity_(static_cast<std::size_t>(assignment.num_nodes())) {
  if (protocols.empty())
    throw std::invalid_argument("network: need at least one protocol");
  if (static_cast<int>(protocols.size()) != n_)
    throw std::invalid_argument(
        "network: protocol count must match assignment node count");
  for (const Protocol* p : protocols)
    if (p == nullptr) throw std::invalid_argument("network: null protocol");
  protocols_ = std::make_unique<ProtocolClient>(std::move(protocols));
  batch_ = protocols_.get();
  init_scratch();
}

Network::~Network() = default;

Network::Network(ChannelAssignment& assignment, BatchClient& client,
                 NetworkOptions options)
    : assignment_(assignment),
      options_(options),
      rng_(options.seed),
      n_(assignment.num_nodes()),
      batch_(&client),
      activity_(static_cast<std::size_t>(assignment.num_nodes())) {
  if (n_ <= 0) throw std::invalid_argument("network: need at least one node");
  if (options_.layout != EngineLayout::SoA)
    throw std::invalid_argument(
        "network: the batch-client interface requires the SoA layout");
  init_scratch();
}

bool Network::batch_dense_slot(std::size_t active) const {
  const std::size_t channels = channel_bucket_.size() - 1;
  // Rough op counts: the bitmap pass scans and clears up to
  // min(channels, active) rows of words() words; the counting sort runs
  // two passes over the active list plus the bucket array.
  return dense_ && std::min(channels, active) * bitmaps_.words() * 4 <=
                       2 * active + 2 * channels;
}

void Network::set_jammer(Jammer* jammer) {
  jammer_ = jammer;
  if (jammer_ != nullptr) used_channel_.resize(static_cast<std::size_t>(n_));
}

void Network::set_observer(SlotObserver observer) {
  observer_ = std::move(observer);
  if (observer_) resolved_.resize(static_cast<std::size_t>(n_));
}

void Network::init_scratch() {
  // Size all per-slot scratch up front; step() only ever writes into this
  // capacity, so the steady-state hot path is allocation-free. Each array
  // is sized only for the client, layout or attachment that reads it (the
  // jammer's and observer's arrays are sized when they attach).
  const auto n = static_cast<std::size_t>(n_);
  const int total = assignment_.total_channels();
  order_.reserve(n);
  broadcasters_.reserve(n);
  listeners_.reserve(n);
  channel_bucket_.resize(static_cast<std::size_t>(total) + 1);
  // At most one message lands per OneWinner/CollisionLoss channel and one
  // per broadcaster under AllDelivered, so n entries always suffice.
  batch_msgs_.reserve(n);
  if (options_.layout != EngineLayout::SoA) {
    resolved_.resize(n);  // the AoS path resolves into it every slot
    messages_.resize(n);
    received_.resize(n);
    return;
  }

  // The SoA path restores the all-idle invariant incrementally (it resets
  // only last slot's active entries), so the arrays must start out in the
  // idle state rather than merely sized.
  soa_mode_.assign(n, Mode::Idle);
  soa_flags_.assign(n, std::uint8_t{0});
  soa_fault_.assign(n, std::uint8_t{0});
  soa_chan_.assign(n, kNoChannel);
  dense_ = ChannelBitmaps::affordable(total, n_);
  if (dense_) bitmaps_.resize(total, n_);
  if (!assignment_.is_dynamic() && assignment_.table().empty()) {
    // Static assignment that lends no table: snapshot its label ->
    // physical-channel map once, replacing a virtual call per
    // participating node per slot with one flat load.
    const int cpn = assignment_.channels_per_node();
    flat_map_.resize(n * static_cast<std::size_t>(cpn));
    for (NodeId i = 0; i < n_; ++i)
      for (LocalLabel label = 0; label < cpn; ++label)
        flat_map_[static_cast<std::size_t>(i) * static_cast<std::size_t>(cpn) +
                  static_cast<std::size_t>(label)] =
            assignment_.global_channel(i, label);
  }
  soa_label_.resize(n);
  soa_rx_off_.resize(n);
  soa_rx_cnt_.resize(n);
  soa_active_.reserve(n);
}

bool Network::all_done() const { return batch_->done(); }

void Network::group_by_channel() {
  const auto n = static_cast<std::size_t>(n_);
  // Counting sort keyed by physical channel: histogram, exclusive prefix
  // sums, then a stable scatter in node-index order. O(n + C) with C small.
  std::fill(channel_bucket_.begin(), channel_bucket_.end(), 0);
  std::size_t participants = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const ResolvedAction& r = resolved_[i];
    if (r.mode == Mode::Idle || r.jammed) continue;
    assert(r.channel >= 0 &&
           static_cast<std::size_t>(r.channel) + 1 < channel_bucket_.size());
    ++channel_bucket_[static_cast<std::size_t>(r.channel)];
    ++participants;
  }
  order_.resize(participants);
  int offset = 0;
  for (int& bucket : channel_bucket_) {
    const int count = bucket;
    bucket = offset;
    offset += count;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const ResolvedAction& r = resolved_[i];
    if (r.mode == Mode::Idle || r.jammed) continue;
    order_[static_cast<std::size_t>(
        channel_bucket_[static_cast<std::size_t>(r.channel)]++)] =
        static_cast<int>(i);
  }
}

void Network::group_by_channel_soa_active() {
  // Counting sort over the active list instead of the full fleet:
  // soa_active_ is ascending, so the stable scatter still emits ascending
  // node ids inside each channel group and the resolution order (hence
  // the RNG draw order) is identical to the dense rows and the AoS
  // reference. Cost is O(active + C), which is what lets a mostly-idle
  // slot finish in time proportional to the nodes that actually acted.
  std::fill(channel_bucket_.begin(), channel_bucket_.end(), 0);
  std::size_t participants = 0;
  for (const std::int32_t node : soa_active_) {
    const auto i = static_cast<std::size_t>(node);
    if (soa_flags_[i] & slotflag::kJammed) continue;
    assert(soa_chan_[i] >= 0 &&
           static_cast<std::size_t>(soa_chan_[i]) + 1 < channel_bucket_.size());
    ++channel_bucket_[static_cast<std::size_t>(soa_chan_[i])];
    ++participants;
  }
  order_.resize(participants);
  int offset = 0;
  for (int& bucket : channel_bucket_) {
    const int count = bucket;
    bucket = offset;
    offset += count;
  }
  for (const std::int32_t node : soa_active_) {
    const auto i = static_cast<std::size_t>(node);
    if (soa_flags_[i] & slotflag::kJammed) continue;
    order_[static_cast<std::size_t>(
        channel_bucket_[static_cast<std::size_t>(soa_chan_[i])]++)] = node;
  }
}

void Network::step() {
  if (options_.layout == EngineLayout::SoA)
    step_soa();
  else
    step_aos();
}

void Network::step_aos() {
  const Slot slot = stats_.slots + 1;
  const std::vector<Protocol*>& protocols = protocols_->protocols();
  const auto n = protocols.size();

  assignment_.begin_slot(slot);
  if (jammer_ != nullptr) jammer_->begin_slot(slot);
  if (fault_engine_ != nullptr) fault_engine_->begin_slot(slot);

  // Reset per-slot scratch in place. messages_ is skipped on purpose: only
  // broadcaster entries are read, and those are overwritten below.
  // used_channel_ exists solely for the jammer's observe() handoff, so the
  // no-jammer case skips both the fill and the per-node stores.
  std::fill(resolved_.begin(), resolved_.end(), ResolvedAction{});
  if (jammer_ != nullptr)
    std::fill(used_channel_.begin(), used_channel_.end(), kNoChannel);
  std::fill(received_.begin(), received_.end(), std::span<const Message>{});
  batch_msgs_.clear();

  // 1. Collect and resolve actions. The fault stage may override what the
  //    protocol asked for — its clock always advances (on_slot is always
  //    called), but a faulted radio need not obey the returned action.
  for (std::size_t i = 0; i < n; ++i) {
    Action action = protocols[i]->on_slot(slot);
    ResolvedAction& r = resolved_[i];
    r.node = static_cast<NodeId>(i);
    if (fault_engine_ != nullptr) {
      std::uint8_t f = fault_engine_->flags(static_cast<NodeId>(i));
      if (f != 0) {
        ++stats_.fault_node_slots;
        if (f & faultflag::kChurnedOut) ++stats_.churned_node_slots;
        if (f & faultflag::kDeaf) ++stats_.deaf_node_slots;
        if (f & faultflag::kMute) ++stats_.mute_node_slots;
        if (f & faultflag::kBabble) ++stats_.babble_node_slots;
        if (f & faultflag::kFeedbackDrop) ++stats_.feedback_drop_node_slots;
        const TestonlyFaultMutation mut = options_.testonly_fault_mutation;
        if (f & faultflag::kChurnedOut) {
          // Off radio: no action, whatever the protocol asked for.
          if (mut != TestonlyFaultMutation::ChurnActs) action = Action::idle();
        } else if (f & faultflag::kBabble) {
          // Stuck transmitter: garbage on the stuck label, every slot. The
          // garbage contends under the collision model like any broadcast.
          if (mut != TestonlyFaultMutation::BabbleIdles)
            action = Action::broadcast(
                fault_engine_->babble_label(static_cast<NodeId>(i)),
                Message{});
          else
            action = Action::idle();
        } else if ((f & faultflag::kMute) && action.mode == Mode::Broadcast) {
          // Dead transmitter: the radio stays tuned to the label the
          // protocol picked but can only listen there.
          if (mut != TestonlyFaultMutation::MuteTransmits) {
            action.mode = Mode::Listen;
            f |= faultflag::kDemoted;
            ++stats_.mute_demotions;
          }
        }
        r.fault = f;
      }
    }
    r.mode = action.mode;
    if (action.mode == Mode::Idle) {
      ++stats_.idle_node_slots;
      continue;
    }
    assert(action.channel >= 0 &&
           action.channel < assignment_.channels_per_node());
    const Channel ch =
        assignment_.global_channel(static_cast<NodeId>(i), action.channel);
    r.channel = ch;
    if (jammer_ != nullptr) {
      used_channel_[i] = ch;
      if (jammer_->is_jammed(static_cast<NodeId>(i), ch)) {
        r.jammed = true;
        ++stats_.jammed_node_slots;
        continue;
      }
    }
    if (action.mode == Mode::Broadcast) {
      messages_[i] = std::move(action.msg);
      messages_[i].sender = static_cast<NodeId>(i);
      ++stats_.broadcasts;
    }
  }

  // 2. Group participating nodes by physical channel.
  group_by_channel();

  auto account_success = [&](const Message& msg) {
    ++stats_.successes;
    const auto words = static_cast<std::int64_t>(wire_size_words(msg));
    stats_.total_message_words += words;
    stats_.max_message_words = std::max(stats_.max_message_words, words);
  };

  // A receiver whose rx path is dead (churned, deaf, babbling, or with its
  // feedback dropped) gets no copies. Suppression is decided BEFORE the
  // fade coin — no coin is spent on a dead receiver — so the oracle can
  // re-derive TraceStats::suppressed_deliveries exactly even under fading.
  auto rx_dead = [&](std::size_t idx) {
    const std::uint8_t f = resolved_[idx].fault;
    if (!(f & faultflag::kRxDead)) return false;
    if (options_.testonly_fault_mutation == TestonlyFaultMutation::DeafHears &&
        (f & faultflag::kDeaf))
      return false;  // mutation: the deaf node hears anyway
    return true;
  };

  // 3. Apply the collision model per channel group.
  for (std::size_t begin = 0; begin < order_.size();) {
    std::size_t end = begin;
    const Channel ch = resolved_[static_cast<std::size_t>(order_[begin])].channel;
    while (end < order_.size() &&
           resolved_[static_cast<std::size_t>(order_[end])].channel == ch)
      ++end;

    // Partition the group into broadcasters and listeners.
    broadcasters_.clear();
    listeners_.clear();
    for (std::size_t i = begin; i < end; ++i) {
      const auto idx = static_cast<std::size_t>(order_[i]);
      (resolved_[idx].mode == Mode::Broadcast ? broadcasters_ : listeners_)
          .push_back(order_[i]);
    }
    if (broadcasters_.size() >= 2) ++stats_.collision_events;

    switch (options_.collision) {
      case CollisionModel::OneWinner: {
        if (broadcasters_.empty()) break;
        std::size_t pick = 0;
        if (options_.emulate_backoff) {
          const BackoffOutcome outcome = decay_backoff(
              static_cast<int>(broadcasters_.size()), options_.backoff, rng_);
          stats_.micro_slots += outcome.micro_slots;
          if (!outcome.resolved) {
            ++stats_.backoff_failures;
            break;  // nothing delivered on this channel this slot
          }
          pick = static_cast<std::size_t>(outcome.winner);
        } else {
          pick = rng_.below(broadcasters_.size());
        }
        const auto winner = static_cast<std::size_t>(broadcasters_[pick]);
        resolved_[winner].tx_success = true;
        account_success(messages_[winner]);
        if (options_.testonly_duplicate_winner && broadcasters_.size() >= 2)
          resolved_[static_cast<std::size_t>(broadcasters_[pick == 0 ? 1 : 0])]
              .tx_success = true;
        const std::span<const Message> win{&messages_[winner], 1};
        auto faded = [&] {
          return options_.loss_prob > 0.0 && rng_.chance(options_.loss_prob);
        };
        for (int l : listeners_) {
          const auto idx = static_cast<std::size_t>(l);
          if (rx_dead(idx)) {
            ++stats_.suppressed_deliveries;
            continue;
          }
          if (faded()) continue;
          received_[idx] = win;
          ++stats_.deliveries;
        }
        // Failed broadcasters also receive the winning message (Section 2).
        for (int b : broadcasters_)
          if (static_cast<std::size_t>(b) != winner) {
            const auto idx = static_cast<std::size_t>(b);
            if (rx_dead(idx)) {
              ++stats_.suppressed_deliveries;
              continue;
            }
            if (faded()) continue;
            received_[idx] = win;
            ++stats_.deliveries;
          }
        break;
      }
      case CollisionModel::AllDelivered: {
        if (broadcasters_.empty()) break;
        // The group's messages, in broadcaster order, move to the slot's
        // arena (reserved to n, so every listener's view stays valid).
        const std::size_t start = batch_msgs_.size();
        for (int b : broadcasters_) {
          const auto idx = static_cast<std::size_t>(b);
          resolved_[idx].tx_success = true;
          account_success(messages_[idx]);
          batch_msgs_.push_back(std::move(messages_[idx]));
        }
        const std::span<const Message> all{batch_msgs_.data() + start,
                                           broadcasters_.size()};
        for (int l : listeners_) {
          const auto idx = static_cast<std::size_t>(l);
          if (rx_dead(idx)) {
            stats_.suppressed_deliveries +=
                static_cast<std::int64_t>(all.size());
            continue;
          }
          stats_.deliveries += static_cast<std::int64_t>(all.size());
          received_[idx] = all;
        }
        break;
      }
      case CollisionModel::CollisionLoss: {
        if (broadcasters_.size() == 1) {
          const auto winner = static_cast<std::size_t>(broadcasters_.front());
          resolved_[winner].tx_success = true;
          account_success(messages_[winner]);
          const std::span<const Message> win{&messages_[winner], 1};
          for (int l : listeners_) {
            const auto idx = static_cast<std::size_t>(l);
            if (rx_dead(idx)) {
              ++stats_.suppressed_deliveries;
              continue;
            }
            received_[idx] = win;
            ++stats_.deliveries;
          }
        }
        break;
      }
    }
    begin = end;
  }

  // 4. Feedback, in ascending node order. A node whose feedback is
  //    blanked (churned out, babbling, or feedback dropped) gets a default
  //    SlotResult — indistinguishable from a powered-off radio's slot. A
  //    deaf node keeps its real tx-side fields; only its receive view is
  //    empty (suppressed above).
  for (std::size_t i = 0; i < n; ++i) {
    const ResolvedAction& r = resolved_[i];
    if ((r.fault & faultflag::kBlankFeedback) != 0 &&
        options_.testonly_fault_mutation !=
            TestonlyFaultMutation::KeepDroppedFeedback) {
      ++stats_.feedback_drops;
      protocols[i]->on_feedback(slot, SlotResult{});
      continue;
    }
    SlotResult res;
    res.jammed = r.jammed;
    res.tx_attempted = r.mode == Mode::Broadcast && !r.jammed;
    res.tx_success = r.tx_success;
    res.received = received_[i];
    protocols[i]->on_feedback(slot, res);
  }

  // 5. Per-node duty-cycle accounting (idle is derived on read, see
  //    activity()).
  for (std::size_t i = 0; i < n; ++i) {
    const ResolvedAction& r = resolved_[i];
    if (r.mode == Mode::Idle) continue;
    NodeActivity& act = activity_[i];
    if (r.jammed) {
      ++act.jammed;
    } else if (r.mode == Mode::Broadcast) {
      ++act.tx;
      if (r.tx_success) ++act.tx_success;
      if (!received_[i].empty()) act.received += static_cast<std::int64_t>(received_[i].size());
    } else {
      ++act.listen;
      act.received += static_cast<std::int64_t>(received_[i].size());
    }
  }

  // 6. History to the jammer, observer, bookkeeping.
  if (jammer_ != nullptr) jammer_->observe(slot, used_channel_);
  stats_.slots = slot;
  if (observer_) observer_(slot, resolved_);
}

// The shared SoA per-channel resolution core. Coin discipline (identical
// to step_aos, enumerated in DETERMINISM.md): per contended OneWinner
// channel the winner coin (or the emulated-backoff draws) comes first,
// then one fade coin per live receiver — listeners in ascending node
// order, then failed broadcasters in ascending node order; no coin is
// spent on rx-dead receivers or when loss_prob is zero. Channels resolve
// in ascending physical order, so the whole draw sequence is a function
// of the slot's action set alone, never of the grouping mechanism.
template <typename Group>
void Network::resolve_group_soa(const Slot slot, const Group& group) {
  const int bcount = group.bcount();
  if (bcount >= 2) ++stats_.collision_events;

  auto rx_dead = [&](int idx) {
    const std::uint8_t f = soa_fault_[static_cast<std::size_t>(idx)];
    if (!(f & faultflag::kRxDead)) return false;
    if (options_.testonly_fault_mutation == TestonlyFaultMutation::DeafHears &&
        (f & faultflag::kDeaf))
      return false;  // mutation: the deaf node hears anyway
    return true;
  };
  // Sources a successful broadcaster's message into the slot's arena and
  // accounts it. A babbling radio transmits garbage, never the client's
  // payload — unless it is churned out too (the churn override wins;
  // reachable only under the ChurnActs mutation, where the client's own
  // action stands).
  auto source = [&](int idx) {
    const std::uint8_t f = soa_fault_[static_cast<std::size_t>(idx)];
    Message msg = (!(f & faultflag::kChurnedOut) && (f & faultflag::kBabble))
                      ? Message{}
                      : batch_->source_message(slot, static_cast<NodeId>(idx));
    msg.sender = static_cast<NodeId>(idx);
    ++stats_.successes;
    const auto words = static_cast<std::int64_t>(wire_size_words(msg));
    stats_.total_message_words += words;
    stats_.max_message_words = std::max(stats_.max_message_words, words);
    batch_msgs_.push_back(std::move(msg));
    return static_cast<std::int32_t>(batch_msgs_.size()) - 1;
  };
  // Outcome marks, each booked in the node's activity ledger as it lands.
  auto mark_success = [&](int idx) {
    soa_flags_[static_cast<std::size_t>(idx)] |= slotflag::kTxSuccess;
    ++activity_[static_cast<std::size_t>(idx)].tx_success;
  };
  auto deliver_to = [&](int idx, std::int32_t offset, std::int32_t count) {
    soa_rx_off_[static_cast<std::size_t>(idx)] = offset;
    soa_rx_cnt_[static_cast<std::size_t>(idx)] = count;
    activity_[static_cast<std::size_t>(idx)].received += count;
    stats_.deliveries += count;
  };

  switch (options_.collision) {
    case CollisionModel::OneWinner: {
      if (bcount == 0) break;
      std::size_t pick = 0;
      if (options_.emulate_backoff) {
        const BackoffOutcome outcome =
            decay_backoff(bcount, options_.backoff, rng_);
        stats_.micro_slots += outcome.micro_slots;
        if (!outcome.resolved) {
          ++stats_.backoff_failures;
          break;  // nothing delivered on this channel this slot
        }
        pick = static_cast<std::size_t>(outcome.winner);
      } else {
        pick = rng_.below(static_cast<std::uint64_t>(bcount));
      }
      const int winner = group.nth_broadcaster(static_cast<int>(pick));
      mark_success(winner);
      const std::int32_t woff = source(winner);
      if (options_.testonly_duplicate_winner && bcount >= 2)
        mark_success(group.nth_broadcaster(pick == 0 ? 1 : 0));
      auto deliver = [&](int idx) {
        if (rx_dead(idx)) {
          ++stats_.suppressed_deliveries;
          return;
        }
        if (options_.loss_prob > 0.0 && rng_.chance(options_.loss_prob))
          return;  // faded
        deliver_to(idx, woff, 1);
      };
      group.for_each_listener(deliver);
      // Failed broadcasters also receive the winning message (Section 2).
      group.for_each_broadcaster_except(winner, deliver);
      break;
    }
    case CollisionModel::AllDelivered: {
      if (bcount == 0) break;
      const auto start = static_cast<std::int32_t>(batch_msgs_.size());
      group.for_each_broadcaster([&](int b) {
        mark_success(b);
        source(b);
      });
      group.for_each_listener([&](int l) {
        if (rx_dead(l)) {
          stats_.suppressed_deliveries += bcount;
          return;
        }
        deliver_to(l, start, bcount);
      });
      break;
    }
    case CollisionModel::CollisionLoss: {
      if (bcount != 1) break;
      const int winner = group.nth_broadcaster(0);
      mark_success(winner);
      const std::int32_t woff = source(winner);
      group.for_each_listener([&](int l) {
        if (rx_dead(l)) {
          ++stats_.suppressed_deliveries;
          return;
        }
        deliver_to(l, woff, 1);
      });
      break;
    }
  }
}

void Network::step_soa() {
  const Slot slot = stats_.slots + 1;
  const auto n = static_cast<std::size_t>(n_);

  assignment_.begin_slot(slot);
  if (jammer_ != nullptr) jammer_->begin_slot(slot);
  if (fault_engine_ != nullptr) fault_engine_->begin_slot(slot);

  // Per-slot resets. The used_channel_ fill exists only for the jammer
  // handoff. The mode span arrives Idle-initialized (BatchClient
  // contract): a client over a mostly-idle fleet only touches its active
  // nodes, which is where the batched interface earns its O(active) slot
  // cost. With no fault engine in play, only last slot's active nodes ever
  // left the idle state, so resetting exactly those entries restores the
  // all-idle invariant in O(active) work. A fault engine can mark any node
  // (blank feedback hits idle nodes too), so while one is attached -- and
  // for one scrub slot after a mid-run detach -- the reset falls back to
  // full fills.
  if (jammer_ != nullptr)
    std::fill(used_channel_.begin(), used_channel_.end(), kNoChannel);
  batch_msgs_.clear();
  if (fault_engine_ != nullptr || soa_fault_dirty_) {
    std::fill(soa_mode_.begin(), soa_mode_.end(), Mode::Idle);
    std::fill(soa_flags_.begin(), soa_flags_.end(), std::uint8_t{0});
    std::fill(soa_chan_.begin(), soa_chan_.end(), kNoChannel);
    std::fill(soa_rx_cnt_.begin(), soa_rx_cnt_.end(), 0);
    std::fill(soa_fault_.begin(), soa_fault_.end(), std::uint8_t{0});
    soa_fault_dirty_ = fault_engine_ != nullptr;
  } else {
    for (const std::int32_t node : soa_active_) {
      const auto idx = static_cast<std::size_t>(node);
      soa_mode_[idx] = Mode::Idle;
      soa_flags_[idx] = 0;
      soa_chan_[idx] = kNoChannel;
      soa_rx_cnt_[idx] = 0;
    }
  }
  batch_->begin_slot(slot, soa_mode_, soa_label_);

  // This slot's label map in the flat node-major format: the table the
  // assignment lends (valid until its next begin_slot), else the snapshot
  // of a static assignment without one. Empty only for a dynamic
  // assignment without a table, which is asked per node instead.
  std::span<const Channel> labels = assignment_.table();
  if (labels.empty()) labels = flat_map_;
  const bool snap = !labels.empty();
  const auto cpn = static_cast<std::size_t>(assignment_.channels_per_node());

  // The slot's grouping, dense bitmap rows or a counting sort of the
  // active list: the rows cost word scans proportional to touched-channels
  // * words no matter how few nodes act, so a sparse slot counting-sorts
  // instead. It is picked before collect, from the previous slot's active
  // count, so collect can fill the rows as it goes; activity rarely jumps
  // between consecutive slots, and a wrong guess costs time, never results
  // (both groupings emit the same channel-ascending, node-ascending
  // stream, so the RNG draw order is the same).
  const bool dense_slot = batch_dense_slot(soa_active_.size());

  // 1. Collect the client's actions into the flat arrays, listing the
  //    slot's non-idle nodes so every later pass is O(active); the idle
  //    tally lands in the stats in one add. Per active node: by the
  //    all-idle invariant its flag byte is clear (or holds only the
  //    blank-feedback mark) and its mode byte holds the final action, so
  //    only the channel, the jam verdict and (on a dense slot) its bitmap
  //    bits need storing. The node's duty-cycle ledger is booked here
  //    (jammed, tx or listen) and in resolve_group_soa (tx_success,
  //    received); idle slots are derived on read, see activity().
  soa_active_.clear();
  auto collect_active = [&](std::size_t i) {
    soa_active_.push_back(static_cast<std::int32_t>(i));
    const LocalLabel label = soa_label_[i];
    assert(label >= 0 && static_cast<std::size_t>(label) < cpn);
    const Channel ch =
        snap ? labels[i * cpn + static_cast<std::size_t>(label)]
             : assignment_.global_channel(static_cast<NodeId>(i), label);
    soa_chan_[i] = ch;
    NodeActivity& act = activity_[i];
    if (jammer_ != nullptr) {
      used_channel_[i] = ch;
      if (jammer_->is_jammed(static_cast<NodeId>(i), ch)) {
        soa_flags_[i] |= slotflag::kJammed;
        ++stats_.jammed_node_slots;
        ++act.jammed;
        return;
      }
    }
    const bool tx = soa_mode_[i] == Mode::Broadcast;
    stats_.broadcasts += tx;
    act.tx += tx;
    act.listen += !tx;
    if (dense_slot) bitmaps_.add(ch, static_cast<int>(i), tx);
  };
  if (fault_engine_ == nullptr) {
    // With no fault engine nothing can reactivate an idle node, so scan
    // the mode array a word (eight nodes) at a time and drop to per-node
    // work only where the client wrote a non-idle action. A mostly-idle
    // fleet costs ~n/8 word compares here.
    static_assert(static_cast<unsigned char>(Mode::Idle) == 2);
    constexpr std::uint64_t kAllIdle = 0x0202020202020202ULL;
    const auto* mode_bytes =
        reinterpret_cast<const unsigned char*>(soa_mode_.data());
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t word;
      std::memcpy(&word, mode_bytes + i, 8);
      if (word == kAllIdle) continue;
      for (std::size_t j = i; j < i + 8; ++j)
        if (soa_mode_[j] != Mode::Idle) collect_active(j);
    }
    for (; i < n; ++i)
      if (soa_mode_[i] != Mode::Idle) collect_active(i);
  } else {
    // Fault overrides and their accounting, byte-for-byte the AoS rules.
    // A fault can act on any node (a babbling radio transmits whatever its
    // client asked for, and blank feedback is charged to idle nodes too),
    // so this pass visits all of them.
    const TestonlyFaultMutation mut = options_.testonly_fault_mutation;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint8_t f = fault_engine_->flags(static_cast<NodeId>(i));
      if (f != 0) {
        ++stats_.fault_node_slots;
        if (f & faultflag::kChurnedOut) ++stats_.churned_node_slots;
        if (f & faultflag::kDeaf) ++stats_.deaf_node_slots;
        if (f & faultflag::kMute) ++stats_.mute_node_slots;
        if (f & faultflag::kBabble) ++stats_.babble_node_slots;
        if (f & faultflag::kFeedbackDrop) ++stats_.feedback_drop_node_slots;
        Mode& mode = soa_mode_[i];
        if (f & faultflag::kChurnedOut) {
          if (mut != TestonlyFaultMutation::ChurnActs) mode = Mode::Idle;
        } else if (f & faultflag::kBabble) {
          // The garbage payload is substituted when the broadcast is
          // sourced (resolve_group_soa), keyed off the same fault bits.
          if (mut != TestonlyFaultMutation::BabbleIdles) {
            mode = Mode::Broadcast;
            soa_label_[i] = fault_engine_->babble_label(static_cast<NodeId>(i));
          } else {
            mode = Mode::Idle;
          }
        } else if ((f & faultflag::kMute) && mode == Mode::Broadcast) {
          if (mut != TestonlyFaultMutation::MuteTransmits) {
            mode = Mode::Listen;
            f |= faultflag::kDemoted;
            ++stats_.mute_demotions;
          }
        }
        soa_fault_[i] = f;
        // The node will see an empty SlotResult; the client contract says
        // to ignore its other flag bits and rx view.
        if ((f & faultflag::kBlankFeedback) != 0 &&
            mut != TestonlyFaultMutation::KeepDroppedFeedback) {
          ++stats_.feedback_drops;
          soa_flags_[i] = slotflag::kFeedbackBlank;
        }
      }
      if (soa_mode_[i] != Mode::Idle) collect_active(i);
    }
  }
  stats_.idle_node_slots += static_cast<std::int64_t>(n - soa_active_.size());

  // 2+3. Group and resolve, channel by channel in ascending order.
  if (dense_slot) {
    bitmaps_.consume_touched([&](Channel ch) {
      const DenseGroup group{bitmaps_.tuned_row(ch), bitmaps_.bcast_row(ch),
                             bitmaps_.words()};
      resolve_group_soa(slot, group);
      // Restore the rows-are-zero invariant for the next slot; the words
      // are cache-hot from the scans above.
      std::fill_n(bitmaps_.tuned_row(ch), bitmaps_.words(), std::uint64_t{0});
      std::fill_n(bitmaps_.bcast_row(ch), bitmaps_.words(), std::uint64_t{0});
    });
  } else {
    group_by_channel_soa_active();
    for (std::size_t begin = 0; begin < order_.size();) {
      std::size_t end = begin;
      const Channel ch = soa_chan_[static_cast<std::size_t>(order_[begin])];
      while (end < order_.size() &&
             soa_chan_[static_cast<std::size_t>(order_[end])] == ch)
        ++end;
      broadcasters_.clear();
      listeners_.clear();
      for (std::size_t i = begin; i < end; ++i) {
        const auto idx = static_cast<std::size_t>(order_[i]);
        (soa_mode_[idx] == Mode::Broadcast ? broadcasters_ : listeners_)
            .push_back(order_[i]);
      }
      const SparseGroup group{broadcasters_, listeners_};
      resolve_group_soa(slot, group);
      begin = end;
    }
  }

  // 4. The client's feedback.
  BatchFeedback fb;
  fb.slot = slot;
  fb.mode = soa_mode_;
  fb.flags = soa_flags_;
  fb.fault = soa_fault_;
  fb.rx_offset = soa_rx_off_;
  fb.rx_count = soa_rx_cnt_;
  fb.messages = batch_msgs_;
  batch_->end_slot(fb);

  // 5. History to the jammer, observer, bookkeeping. The ResolvedAction
  //    view is materialized from the flat arrays only when someone looks.
  if (jammer_ != nullptr) jammer_->observe(slot, used_channel_);
  stats_.slots = slot;
  if (observer_) {
    for (std::size_t i = 0; i < n; ++i) {
      ResolvedAction& r = resolved_[i];
      r.node = static_cast<NodeId>(i);
      r.mode = soa_mode_[i];
      r.channel = soa_chan_[i];
      r.jammed = (soa_flags_[i] & slotflag::kJammed) != 0;
      r.tx_success = (soa_flags_[i] & slotflag::kTxSuccess) != 0;
      r.fault = soa_fault_[i];
    }
    observer_(slot, resolved_);
  }
}

Slot Network::run(Slot max_slots) {
  while (!all_done() && stats_.slots < max_slots) step();
  return stats_.slots;
}

void Network::save_state(CheckpointWriter& w) const {
  w.section("netw");
  w.u32(static_cast<std::uint32_t>(n_));
  save_trace_stats(w, stats_);
  for (const NodeActivity& a : activity_) save_node_activity(w, a);
  w.rng(rng_);
}

void Network::restore_state(CheckpointReader& r) {
  r.section("netw");
  const std::uint32_t n = r.u32();
  if (n != static_cast<std::uint32_t>(n_))
    throw CheckpointError("checkpoint rejected: snapshot holds " +
                          std::to_string(n) + " node(s), this network has " +
                          std::to_string(n_));
  stats_ = load_trace_stats(r);
  for (NodeActivity& a : activity_) a = load_node_activity(r);
  r.rng(rng_);
}

}  // namespace cogradio
