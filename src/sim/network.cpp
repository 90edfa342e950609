#include "sim/network.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "sim/checkpoint.h"

namespace cogradio {

const char* engine_layout_name(EngineLayout layout) {
  return layout == EngineLayout::SoA ? "soa" : "aos";
}

EngineLayout parse_engine_layout(const std::string& text) {
  if (text == "soa") return EngineLayout::SoA;
  if (text == "aos") return EngineLayout::AoS;
  throw std::invalid_argument("unknown engine layout '" + text +
                              "' (expected aos or soa)");
}

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

Network::Network(ChannelAssignment& assignment,
                 std::vector<Protocol*> protocols, NetworkOptions options)
    : assignment_(assignment),
      protocols_(std::move(protocols)),
      options_(options),
      rng_(options.seed),
      n_(assignment.num_nodes()),
      activity_(static_cast<std::size_t>(assignment.num_nodes())) {
  if (protocols_.empty())
    throw std::invalid_argument("network: need at least one protocol");
  if (static_cast<int>(protocols_.size()) != n_)
    throw std::invalid_argument(
        "network: protocol count must match assignment node count");
  for (const Protocol* p : protocols_)
    if (p == nullptr) throw std::invalid_argument("network: null protocol");
  init_scratch();
}

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

void Network::init_scratch() {
  // Size all per-slot scratch up front; step() only ever writes into this
  // capacity, so the steady-state hot path is allocation-free.
  const auto n = static_cast<std::size_t>(n_);
  const int total = assignment_.total_channels();
  resolved_.resize(n);
  messages_.resize(n);
  used_channel_.resize(n);
  received_.resize(n);
  fed_.resize(n);
  order_.reserve(n);
  broadcasters_.reserve(n);
  listeners_.reserve(n);
  channel_bucket_.resize(static_cast<std::size_t>(total) + 1);
  if (options_.layout != EngineLayout::SoA) return;

  // The batch fast path restores the all-idle invariant incrementally (it
  // resets only last slot's active entries), so the arrays must start out
  // in the idle state rather than merely sized.
  soa_mode_.assign(n, Mode::Idle);
  soa_flags_.assign(n, std::uint8_t{0});
  soa_fault_.assign(n, std::uint8_t{0});
  soa_chan_.assign(n, kNoChannel);
  dense_ = ChannelBitmaps::affordable(total, n_);
  if (dense_) bitmaps_.resize(total, n_);
  if (!assignment_.is_dynamic()) {
    // Static assignment: snapshot the label -> physical-channel map once,
    // replacing a virtual call per participating node per slot with one
    // flat load.
    const int cpn = assignment_.channels_per_node();
    flat_map_.resize(n * static_cast<std::size_t>(cpn));
    for (NodeId i = 0; i < n_; ++i)
      for (LocalLabel label = 0; label < cpn; ++label)
        flat_map_[static_cast<std::size_t>(i) * static_cast<std::size_t>(cpn) +
                  static_cast<std::size_t>(label)] =
            assignment_.global_channel(i, label);
  }
  if (batch_ != nullptr) {
    soa_label_.resize(n);
    soa_rx_off_.resize(n);
    soa_rx_cnt_.resize(n);
    // At most one message lands per OneWinner/CollisionLoss channel and one
    // per broadcaster under AllDelivered, so n entries always suffice.
    batch_msgs_.reserve(n);
    soa_active_.reserve(n);
  }
}

bool Network::all_done() const {
  if (batch_ != nullptr) return batch_->done();
  return std::all_of(protocols_.begin(), protocols_.end(),
                     [](const Protocol* p) { return p->done(); });
}

void Network::group_by_channel() {
  const auto n = protocols_.size();
  order_.clear();
  if (options_.grouping == GroupingStrategy::ComparisonSort) {
    for (std::size_t i = 0; i < n; ++i) {
      const ResolvedAction& r = resolved_[i];
      if (r.mode != Mode::Idle && !r.jammed) order_.push_back(static_cast<int>(i));
    }
    std::stable_sort(order_.begin(), order_.end(), [&](int a, int b) {
      return resolved_[static_cast<std::size_t>(a)].channel <
             resolved_[static_cast<std::size_t>(b)].channel;
    });
    return;
  }
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
  // Counting sort over the batch active list instead of the full fleet:
  // soa_active_ is ascending, so the stable scatter still emits ascending
  // node ids inside each channel group and the resolution order (hence
  // the RNG draw order) is identical to every other grouping path. Cost
  // is O(active + C), which is what lets a mostly-idle slot finish in
  // time proportional to the nodes that actually acted.
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

void Network::group_by_channel_soa() {
  // The counting sort of group_by_channel(), reading the flat arrays: same
  // histogram / exclusive-prefix / stable-scatter discipline, so groups
  // come out in ascending channel order with ascending node ids inside.
  const auto n = static_cast<std::size_t>(n_);
  std::fill(channel_bucket_.begin(), channel_bucket_.end(), 0);
  std::size_t participants = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (soa_mode_[i] == Mode::Idle || (soa_flags_[i] & slotflag::kJammed))
      continue;
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
  for (std::size_t i = 0; i < n; ++i) {
    if (soa_mode_[i] == Mode::Idle || (soa_flags_[i] & slotflag::kJammed))
      continue;
    order_[static_cast<std::size_t>(
        channel_bucket_[static_cast<std::size_t>(soa_chan_[i])]++)] =
        static_cast<int>(i);
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
  const auto n = protocols_.size();

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
  std::fill(fed_.begin(), fed_.end(), char{0});

  // 1. Collect and resolve actions. The fault stage may override what the
  //    protocol asked for — its clock always advances (on_slot is always
  //    called), but a faulted radio need not obey the returned action.
  for (std::size_t i = 0; i < n; ++i) {
    Action action = protocols_[i]->on_slot(slot);
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
        group_messages_.clear();
        for (int b : broadcasters_) {
          resolved_[static_cast<std::size_t>(b)].tx_success = true;
          group_messages_.push_back(messages_[static_cast<std::size_t>(b)]);
          account_success(messages_[static_cast<std::size_t>(b)]);
        }
        const std::span<const Message> all{group_messages_};
        // Deliver inside the group loop: group_messages_ is reused next group.
        // Rx-dead listeners are skipped here (every copy suppressed) and fall
        // through to the fault-aware feedback loop below with nothing heard.
        for (int l : listeners_) {
          const auto idx = static_cast<std::size_t>(l);
          if (rx_dead(idx)) {
            stats_.suppressed_deliveries +=
                static_cast<std::int64_t>(all.size());
            continue;
          }
          stats_.deliveries += static_cast<std::int64_t>(all.size());
          SlotResult res;
          res.received = all;
          protocols_[idx]->on_feedback(slot, res);
          fed_[idx] = 1;
          // Accounted here because received_[] stays empty for these nodes.
          activity_[idx].received += static_cast<std::int64_t>(all.size());
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

  // 4. Feedback. (AllDelivered listeners were already fed inside the loop.)
  //    A node whose feedback is blanked (churned out, babbling, or feedback
  //    dropped) gets a default SlotResult — indistinguishable from a
  //    powered-off radio's slot. A deaf node keeps its real tx-side fields;
  //    only its receive view is empty (suppressed above).
  for (std::size_t i = 0; i < n; ++i) {
    if (fed_[i]) continue;
    const ResolvedAction& r = resolved_[i];
    if ((r.fault & faultflag::kBlankFeedback) != 0 &&
        options_.testonly_fault_mutation !=
            TestonlyFaultMutation::KeepDroppedFeedback) {
      ++stats_.feedback_drops;
      protocols_[i]->on_feedback(slot, SlotResult{});
      continue;
    }
    SlotResult res;
    res.jammed = r.jammed;
    res.tx_attempted = r.mode == Mode::Broadcast && !r.jammed;
    res.tx_success = r.tx_success;
    res.received = received_[i];
    protocols_[i]->on_feedback(slot, res);
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

  auto account_success = [&](const Message& msg) {
    ++stats_.successes;
    const auto words = static_cast<std::int64_t>(wire_size_words(msg));
    stats_.total_message_words += words;
    stats_.max_message_words = std::max(stats_.max_message_words, words);
  };
  auto rx_dead = [&](int idx) {
    const std::uint8_t f = soa_fault_[static_cast<std::size_t>(idx)];
    if (!(f & faultflag::kRxDead)) return false;
    if (options_.testonly_fault_mutation == TestonlyFaultMutation::DeafHears &&
        (f & faultflag::kDeaf))
      return false;  // mutation: the deaf node hears anyway
    return true;
  };
  // Lazily source a broadcaster's message (batch mode): a babbling radio
  // transmits garbage, never the client's payload — unless it is churned
  // out too (the churn override wins; reachable only under the ChurnActs
  // mutation, where the client's own action stands).
  auto batch_source = [&](int idx) {
    const std::uint8_t f = soa_fault_[static_cast<std::size_t>(idx)];
    Message msg = (!(f & faultflag::kChurnedOut) && (f & faultflag::kBabble))
                      ? Message{}
                      : batch_->source_message(slot, static_cast<NodeId>(idx));
    msg.sender = static_cast<NodeId>(idx);
    batch_msgs_.push_back(std::move(msg));
    return static_cast<std::int32_t>(batch_msgs_.size()) - 1;
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
      const auto widx = static_cast<std::size_t>(winner);
      soa_flags_[widx] |= slotflag::kTxSuccess;
      std::int32_t woff = -1;
      if (batch_ != nullptr) {
        woff = batch_source(winner);
        account_success(batch_msgs_[static_cast<std::size_t>(woff)]);
      } else {
        account_success(messages_[widx]);
      }
      if (options_.testonly_duplicate_winner && bcount >= 2)
        soa_flags_[static_cast<std::size_t>(
            group.nth_broadcaster(pick == 0 ? 1 : 0))] |= slotflag::kTxSuccess;
      auto deliver = [&](int idx) {
        if (rx_dead(idx)) {
          ++stats_.suppressed_deliveries;
          return;
        }
        if (options_.loss_prob > 0.0 && rng_.chance(options_.loss_prob))
          return;  // faded
        if (batch_ != nullptr) {
          soa_rx_off_[static_cast<std::size_t>(idx)] = woff;
          soa_rx_cnt_[static_cast<std::size_t>(idx)] = 1;
        } else {
          received_[static_cast<std::size_t>(idx)] =
              std::span<const Message>{&messages_[widx], 1};
        }
        ++stats_.deliveries;
      };
      group.for_each_listener(deliver);
      // Failed broadcasters also receive the winning message (Section 2).
      group.for_each_broadcaster_except(winner, deliver);
      break;
    }
    case CollisionModel::AllDelivered: {
      if (bcount == 0) break;
      const auto start = static_cast<std::int32_t>(batch_msgs_.size());
      if (batch_ != nullptr) {
        group.for_each_broadcaster([&](int b) {
          soa_flags_[static_cast<std::size_t>(b)] |= slotflag::kTxSuccess;
          account_success(
              batch_msgs_[static_cast<std::size_t>(batch_source(b))]);
        });
      } else {
        group_messages_.clear();
        group.for_each_broadcaster([&](int b) {
          soa_flags_[static_cast<std::size_t>(b)] |= slotflag::kTxSuccess;
          group_messages_.push_back(messages_[static_cast<std::size_t>(b)]);
          account_success(messages_[static_cast<std::size_t>(b)]);
        });
      }
      group.for_each_listener([&](int l) {
        const auto idx = static_cast<std::size_t>(l);
        if (rx_dead(l)) {
          stats_.suppressed_deliveries += bcount;
          return;
        }
        stats_.deliveries += bcount;
        if (batch_ != nullptr) {
          soa_rx_off_[idx] = start;
          soa_rx_cnt_[idx] = bcount;
          // activity_.received accounted in the fused end-of-slot loop.
        } else {
          SlotResult res;
          res.received = std::span<const Message>{group_messages_};
          protocols_[idx]->on_feedback(slot, res);
          fed_[idx] = 1;
          activity_[idx].received += bcount;
        }
      });
      break;
    }
    case CollisionModel::CollisionLoss: {
      if (bcount != 1) break;
      const int winner = group.nth_broadcaster(0);
      const auto widx = static_cast<std::size_t>(winner);
      soa_flags_[widx] |= slotflag::kTxSuccess;
      std::int32_t woff = -1;
      if (batch_ != nullptr) {
        woff = batch_source(winner);
        account_success(batch_msgs_[static_cast<std::size_t>(woff)]);
      } else {
        account_success(messages_[widx]);
      }
      group.for_each_listener([&](int l) {
        const auto idx = static_cast<std::size_t>(l);
        if (rx_dead(l)) {
          ++stats_.suppressed_deliveries;
          return;
        }
        if (batch_ != nullptr) {
          soa_rx_off_[idx] = woff;
          soa_rx_cnt_[idx] = 1;
        } else {
          received_[idx] = std::span<const Message>{&messages_[widx], 1};
        }
        ++stats_.deliveries;
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

  // Per-slot resets, each gated to the features that read it: the
  // used_channel_ fill exists only for the jammer handoff, the rx views
  // only for their mode, fed_ only for AllDelivered's in-loop feedback.
  if (jammer_ != nullptr)
    std::fill(used_channel_.begin(), used_channel_.end(), kNoChannel);
  if (batch_ != nullptr) {
    batch_msgs_.clear();
    // The mode span arrives Idle-initialized (BatchClient contract): a
    // client over a mostly-idle fleet only touches its active nodes, which
    // is where the batched interface earns its O(active) slot cost. With
    // no fault engine in play, only last slot's active nodes ever left
    // the idle state, so resetting exactly those entries restores the
    // all-idle invariant in O(active) work. A fault engine can mark any
    // node (blank feedback hits idle nodes too), so while one is attached
    // -- and for one scrub slot after a mid-run detach -- the reset falls
    // back to full fills.
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
  } else {
    std::fill(received_.begin(), received_.end(), std::span<const Message>{});
    if (options_.collision == CollisionModel::AllDelivered)
      std::fill(fed_.begin(), fed_.end(), char{0});
  }

  const bool snap = !flat_map_.empty();
  const auto cpn = static_cast<std::size_t>(assignment_.channels_per_node());

  // 1. Collect and resolve actions into the flat arrays; fault overrides
  //    and their accounting are byte-for-byte the AoS rules. Batch mode
  //    tracks the slot's non-idle nodes so the accounting pass below is
  //    O(active); the idle tally lands in the stats in one add.
  soa_active_.clear();
  // Shared per-active work for the batch fast path below: by the all-idle
  // invariant the node's flag and fault bytes are already zero and its
  // mode byte already holds the client's action, so only the channel (and
  // jam verdict) need storing. Push-then-jam-check matches the shared
  // loop: jammed nodes stay on the active list for the accounting pass.
  auto collect_batch_active = [&](std::size_t i) {
    soa_active_.push_back(static_cast<std::int32_t>(i));
    const LocalLabel label = soa_label_[i];
    assert(label >= 0 && static_cast<std::size_t>(label) < cpn);
    const Channel ch =
        snap ? flat_map_[i * cpn + static_cast<std::size_t>(label)]
             : assignment_.global_channel(static_cast<NodeId>(i), label);
    soa_chan_[i] = ch;
    if (jammer_ != nullptr) {
      used_channel_[i] = ch;
      if (jammer_->is_jammed(static_cast<NodeId>(i), ch)) {
        soa_flags_[i] = slotflag::kJammed;
        ++stats_.jammed_node_slots;
        return;
      }
    }
    if (soa_mode_[i] == Mode::Broadcast) ++stats_.broadcasts;
  };
  if (batch_ != nullptr && fault_engine_ == nullptr) {
    // Batch fast collect: with no fault engine nothing can reactivate an
    // idle node, so scan the mode array a word (eight nodes) at a time
    // and drop to per-node work only where the client wrote a non-idle
    // action. A mostly-idle fleet costs ~n/8 word compares here.
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
        if (soa_mode_[j] != Mode::Idle) collect_batch_active(j);
    }
    for (; i < n; ++i)
      if (soa_mode_[i] != Mode::Idle) collect_batch_active(i);
    // Every non-idle node is on the active list, so the idle tally needs
    // no counter in the scan.
    stats_.idle_node_slots += static_cast<std::int64_t>(n - soa_active_.size());
  } else {
    std::int64_t idle_nodes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Mode mode;
      LocalLabel label;
      if (batch_ != nullptr) {
        mode = soa_mode_[i];
        label = soa_label_[i];
      } else {
        Action action = protocols_[i]->on_slot(slot);
        mode = action.mode;
        label = action.channel;
        // Stage the payload before fault overrides: only entries of final
        // unjammed broadcasters are ever read, so stale stores are harmless.
        if (mode == Mode::Broadcast) messages_[i] = std::move(action.msg);
      }
      std::uint8_t fault = 0;
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
            if (mut != TestonlyFaultMutation::ChurnActs) mode = Mode::Idle;
          } else if (f & faultflag::kBabble) {
            if (mut != TestonlyFaultMutation::BabbleIdles) {
              mode = Mode::Broadcast;
              label = fault_engine_->babble_label(static_cast<NodeId>(i));
              if (batch_ == nullptr) messages_[i] = Message{};
              // Batch mode substitutes the garbage payload lazily in
              // batch_source(), keyed off the same fault bits.
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
          fault = f;
        }
      }
      soa_mode_[i] = mode;
      soa_fault_[i] = fault;
      soa_flags_[i] = 0;
      if (mode == Mode::Idle) {
        ++idle_nodes;
        soa_chan_[i] = kNoChannel;
        continue;
      }
      if (batch_ != nullptr) soa_active_.push_back(static_cast<std::int32_t>(i));
      assert(label >= 0 && static_cast<std::size_t>(label) < cpn);
      const Channel ch =
          snap ? flat_map_[i * cpn + static_cast<std::size_t>(label)]
               : assignment_.global_channel(static_cast<NodeId>(i), label);
      soa_chan_[i] = ch;
      if (jammer_ != nullptr) {
        used_channel_[i] = ch;
        if (jammer_->is_jammed(static_cast<NodeId>(i), ch)) {
          soa_flags_[i] = slotflag::kJammed;
          ++stats_.jammed_node_slots;
          continue;
        }
      }
      const bool broadcasting = mode == Mode::Broadcast;
      if (broadcasting) {
        if (batch_ == nullptr) messages_[i].sender = static_cast<NodeId>(i);
        ++stats_.broadcasts;
      }
      if (dense_ && batch_ == nullptr)
        bitmaps_.add(ch, static_cast<int>(i), broadcasting);
    }
    stats_.idle_node_slots += idle_nodes;
  }

  // 2+3. Group and resolve, channel by channel in ascending order. Batch
  //      mode picks its grouping per slot: the dense rows cost word scans
  //      proportional to touched-channels * words no matter how few nodes
  //      act, so a sparse slot counting-sorts the active list instead.
  //      Either grouping emits the same channel-ascending, node-ascending
  //      stream, so the choice is invisible to results and draw order.
  bool dense_slot = dense_;
  if (batch_ != nullptr) {
    dense_slot = batch_dense_slot(soa_active_.size());
    if (dense_slot) {
      for (const std::int32_t node : soa_active_) {
        const auto i = static_cast<std::size_t>(node);
        if (soa_flags_[i] & slotflag::kJammed) continue;
        bitmaps_.add(soa_chan_[i], node, soa_mode_[i] == Mode::Broadcast);
      }
    }
  }
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
    if (batch_ != nullptr)
      group_by_channel_soa_active();
    else
      group_by_channel_soa();
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

  // 4+5. Feedback and duty-cycle accounting, fused into one pass (the AoS
  //      path runs them as two loops; no protocol can observe the
  //      difference — activity_ is engine-internal until the slot ends).
  const TestonlyFaultMutation mut = options_.testonly_fault_mutation;
  if (batch_ != nullptr) {
    if (fault_engine_ != nullptr) {
      // Blank-feedback masking touches any node with the fault bit, idle
      // included (the drop is charged either way), so this pass scans all
      // nodes — but only when a fault engine is attached at all.
      for (std::size_t i = 0; i < n; ++i) {
        if ((soa_fault_[i] & faultflag::kBlankFeedback) != 0 &&
            mut != TestonlyFaultMutation::KeepDroppedFeedback) {
          ++stats_.feedback_drops;
          soa_flags_[i] |= slotflag::kFeedbackBlank;
          // Blank nodes never hold an rx view (their rx path is dead), so
          // flags is the only field to mask; the client contract says a
          // kFeedbackBlank node saw an empty SlotResult.
        }
      }
    }
    // Duty-cycle accounting over the active nodes only; idle slots are
    // derived on read (activity()), never stored.
    for (const std::int32_t node : soa_active_) {
      const auto i = static_cast<std::size_t>(node);
      const std::uint8_t flags = soa_flags_[i];
      NodeActivity& act = activity_[i];
      if (flags & slotflag::kJammed) {
        ++act.jammed;
      } else if (soa_mode_[i] == Mode::Broadcast) {
        ++act.tx;
        if (flags & slotflag::kTxSuccess) ++act.tx_success;
        act.received += soa_rx_cnt_[i];
      } else {
        ++act.listen;
        act.received += soa_rx_cnt_[i];
      }
    }
    BatchFeedback fb;
    fb.slot = slot;
    fb.mode = soa_mode_;
    fb.flags = soa_flags_;
    fb.fault = soa_fault_;
    fb.rx_offset = soa_rx_off_;
    fb.rx_count = soa_rx_cnt_;
    fb.messages = batch_msgs_;
    batch_->end_slot(fb);
  } else {
    const bool all_delivered =
        options_.collision == CollisionModel::AllDelivered;
    for (std::size_t i = 0; i < n; ++i) {
      const Mode mode = soa_mode_[i];
      const std::uint8_t flags = soa_flags_[i];
      if (!(all_delivered && fed_[i])) {
        if ((soa_fault_[i] & faultflag::kBlankFeedback) != 0 &&
            mut != TestonlyFaultMutation::KeepDroppedFeedback) {
          ++stats_.feedback_drops;
          protocols_[i]->on_feedback(slot, SlotResult{});
        } else {
          SlotResult res;
          res.jammed = (flags & slotflag::kJammed) != 0;
          res.tx_attempted =
              mode == Mode::Broadcast && !(flags & slotflag::kJammed);
          res.tx_success = (flags & slotflag::kTxSuccess) != 0;
          res.received = received_[i];
          protocols_[i]->on_feedback(slot, res);
        }
      }
      if (mode == Mode::Idle) continue;  // idle is derived on read
      NodeActivity& act = activity_[i];
      if (flags & slotflag::kJammed) {
        ++act.jammed;
      } else if (mode == Mode::Broadcast) {
        ++act.tx;
        if (flags & slotflag::kTxSuccess) ++act.tx_success;
        act.received += static_cast<std::int64_t>(received_[i].size());
      } else {
        ++act.listen;
        act.received += static_cast<std::int64_t>(received_[i].size());
      }
    }
  }

  // 6. History to the jammer, observer, bookkeeping. The ResolvedAction
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
