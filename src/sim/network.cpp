#include "sim/network.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "sim/active_scan.h"
#include "sim/checkpoint.h"

namespace cogradio {

namespace {

// How many nodes ahead of the one being worked on the gather and
// resolve walks request their lines; the gather's label-table stage runs
// this far ahead, its first stage twice as far.
constexpr std::size_t kPrefetchAhead = 16;
// The walks prefetch only from this many nodes up. A node's per-field
// state and label row take ~120 B at c = 16, so below ~2^14 nodes they
// stay cache resident and the requests only cost instructions:
// paper_sweep's shapes (n <= 512) ran ~10% slower with them.
constexpr int kPrefetchMinNodes = 1 << 14;

// Requests the cache line(s) of `record` ahead of its use. Always inlined:
// GCC deems an out-of-line function holding only prefetches free of side
// effects and deletes its calls.
template <typename T>
[[gnu::always_inline]] inline void prefetch_record(const T& record) {
  const auto* first = reinterpret_cast<const char*>(&record);
  __builtin_prefetch(first, 1);
  __builtin_prefetch(first + sizeof(T) - 1, 1);
}

}  // namespace

// Per-node protocols as a BatchClient: begin_slot asks every node for its
// action and stages each broadcaster's message until the engine sources
// it; end_slot rebuilds each node's SlotResult from the batch arrays.
// Both passes run in ascending node order.
class Network::ProtocolClient final : public BatchClient {
 public:
  explicit ProtocolClient(std::vector<Protocol*> protocols)
      : protocols_(std::move(protocols)), staged_(protocols_.size()) {}

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
  init_scratch();
}

void Network::set_fault_engine(FaultEngine* engine) {
  if (engine != nullptr) {
    check_fault_engine_fits(*engine, n_, assignment_.channels_per_node());
    soa_faulted_.reserve(static_cast<std::size_t>(n_));
  }
  fault_engine_ = engine;
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
  // capacity, so the steady-state hot path is allocation-free. The
  // jammer's and observer's arrays are sized when they attach.
  const auto n = static_cast<std::size_t>(n_);
  const auto total = static_cast<std::size_t>(assignment_.total_channels());
  channel_bucket_.resize(2 * total + 2);
  // At most one message lands per OneWinner/CollisionLoss channel and one
  // per broadcaster under AllDelivered, so n entries always suffice.
  batch_msgs_.reserve(n);

  // step() restores the all-idle invariant incrementally (it resets only
  // last slot's active entries), so the arrays must start out in the idle
  // state rather than merely sized.
  soa_mode_.assign(n, Mode::Idle);
  soa_flags_.assign(n, std::uint8_t{0});
  soa_fault_.assign(n, std::uint8_t{0});
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
  soa_key_.reserve(n);
  order_.reserve(n);  // the channel runs, then the jammed nodes
  touched_.resize((total + 63) / 64);
  touched_summary_.resize((touched_.size() + 63) / 64);
  touched_channels_.reserve(std::min(n, total));
}

bool Network::all_done() const { return batch_->done(); }

std::size_t Network::group_by_key() {
  // The gather has counted every unjammed key into its (channel, role)
  // bucket and marked its channel in both levels of touched_. The summary
  // names the non-zero words, so listing the touched channels, ascending,
  // costs O(touched + C/4096); both levels are cleared as they are read.
  // The same loop turns the counts into offsets: each channel's run is
  // its broadcasters, then its listeners.
  int* const bucket = channel_bucket_.data();
  touched_channels_.clear();
  int offset = 0;
  for (std::size_t s = 0; s < touched_summary_.size(); ++s) {
    for (std::uint64_t sw = std::exchange(touched_summary_[s], 0); sw != 0;
         sw &= sw - 1) {
      const std::size_t w =
          s * 64 + static_cast<std::size_t>(std::countr_zero(sw));
      ++touched_words_read_;
      for (std::uint64_t word = std::exchange(touched_[w], 0); word != 0;
           word &= word - 1) {
        const auto ch = static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
        touched_channels_.push_back(ch);
        int* const run = bucket + 2 * static_cast<std::size_t>(ch);
        const int broadcasters = run[0];
        const int listeners = run[1];
        run[0] = offset;
        run[1] = offset + broadcasters;
        offset += broadcasters + listeners;
      }
    }
  }
  // One stable scatter of every key, the jammed ones past the runs.
  // soa_active_ is ascending, so each (channel, role) bucket receives
  // ascending node ids and the resolution order (hence the RNG draw order)
  // matches the reference. Each channel's broadcaster cursor ends where
  // its listeners start, and its listener cursor at its run's end.
  int& jammed = bucket[channel_bucket_.size() - 1];
  jammed = offset;
  order_.resize(soa_key_.size());
  const std::int32_t* const active = soa_active_.data();
  int* const order = order_.data();
  for (std::size_t a = 0; a < soa_key_.size(); ++a)
    order[bucket[soa_key_[a]]++] = active[a];
  jammed = 0;
  return static_cast<std::size_t>(offset);
}

void Network::mark_success(int idx) {
  soa_flags_[static_cast<std::size_t>(idx)] |= slotflag::kTxSuccess;
  ++activity_[static_cast<std::size_t>(idx)].tx_success;
}

// A babbling radio transmits garbage, never the client's payload — unless
// it is churned out too (the churn override wins; reachable only under the
// ChurnActs mutation, where the client's own action stands).
Message Network::land(Slot slot, int idx) {
  mark_success(idx);
  const std::uint8_t f =
      fault_engine_ != nullptr ? soa_fault_[static_cast<std::size_t>(idx)] : 0;
  Message msg = (!(f & faultflag::kChurnedOut) && (f & faultflag::kBabble))
                    ? Message{}
                    : batch_->source_message(slot, static_cast<NodeId>(idx));
  msg.sender = static_cast<NodeId>(idx);
  ++stats_.successes;
  const auto words = static_cast<std::int64_t>(wire_size_words(msg));
  stats_.total_message_words += words;
  stats_.max_message_words = std::max(stats_.max_message_words, words);
  return msg;
}

// The per-channel resolution core, for every run with a broadcaster that
// step() does not settle as a lone one. Coin discipline (the reference's,
// enumerated in DETERMINISM.md): per OneWinner channel the winner coin (or
// the emulated-backoff draws) comes first, then one fade coin per live
// receiver — listeners in ascending node order, then failed broadcasters
// in ascending node order; no coin is spent on rx-dead receivers or when
// loss_prob is zero. Channels resolve in ascending physical order, so the
// whole draw sequence is a function of the slot's action set alone.
void Network::resolve_group(const Slot slot,
                            const std::span<const int> broadcasters,
                            const std::span<const int> listeners) {
  const auto bcount = static_cast<std::int32_t>(broadcasters.size());
  assert(bcount > 0);
  if (bcount >= 2) ++stats_.collision_events;

  // soa_fault_ is all zero without a fault engine, so only an attached
  // one makes its bytes worth a load.
  const bool faults = fault_engine_ != nullptr;
  auto rx_dead = [&](int idx) {
    if (!faults) return false;
    const std::uint8_t f = soa_fault_[static_cast<std::size_t>(idx)];
    if (!(f & faultflag::kRxDead)) return false;
    if (options_.testonly_fault_mutation == TestonlyFaultMutation::DeafHears &&
        (f & faultflag::kDeaf))
      return false;  // mutation: the deaf node hears anyway
    return true;
  };
  // Lands a broadcast in the slot's arena; returns its offset there.
  auto land_in_arena = [&](int idx) {
    batch_msgs_.push_back(land(slot, idx));
    return static_cast<std::int32_t>(batch_msgs_.size()) - 1;
  };
  auto deliver_to = [&](int idx, std::int32_t offset, std::int32_t count) {
    soa_rx_off_[static_cast<std::size_t>(idx)] = offset;
    soa_rx_cnt_[static_cast<std::size_t>(idx)] = count;
    activity_[static_cast<std::size_t>(idx)].received += count;
    stats_.deliveries += count;
  };
  // Visits `nodes` (a run of order_) in order, warming the receive-side
  // lines of the node kPrefetchAhead entries further along order_ (past
  // the channel runs, a jammed node's: a wasted request, not a wrong one).
  const bool prefetch = n_ >= kPrefetchMinNodes;
  auto each = [&](std::span<const int> nodes, auto&& fn) {
    for (const int& node : nodes) {
      const auto ahead =
          static_cast<std::size_t>(&node - order_.data()) + kPrefetchAhead;
      if (prefetch && ahead < order_.size()) {
        const auto i = static_cast<std::size_t>(order_[ahead]);
        __builtin_prefetch(&soa_rx_off_[i], 1);
        __builtin_prefetch(&soa_rx_cnt_[i], 1);
        prefetch_record(activity_[i]);
      }
      fn(node);
    }
  };

  switch (options_.collision) {
    case CollisionModel::OneWinner: {
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
      const int winner = broadcasters[pick];
      const std::int32_t woff = land_in_arena(winner);
      if (options_.testonly_duplicate_winner && bcount >= 2)
        mark_success(broadcasters[pick == 0 ? 1 : 0]);
      auto deliver = [&](int idx) {
        if (rx_dead(idx)) {
          ++stats_.suppressed_deliveries;
          return;
        }
        if (options_.loss_prob > 0.0 && rng_.chance(options_.loss_prob))
          return;  // faded
        deliver_to(idx, woff, 1);
      };
      each(listeners, deliver);
      // Failed broadcasters also receive the winning message (Section 2).
      each(broadcasters, [&](int b) {
        if (b != winner) deliver(b);
      });
      break;
    }
    case CollisionModel::AllDelivered: {
      const auto start = static_cast<std::int32_t>(batch_msgs_.size());
      each(broadcasters, land_in_arena);
      each(listeners, [&](int l) {
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
      const std::int32_t woff = land_in_arena(broadcasters.front());
      each(listeners, [&](int l) {
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

void Network::step() {
  const Slot slot = stats_.slots + 1;
  const auto n = static_cast<std::size_t>(n_);

  assignment_.begin_slot(slot);
  if (jammer_ != nullptr) jammer_->begin_slot(slot);
  if (fault_engine_ != nullptr) fault_engine_->begin_slot(slot);

  // Per-slot resets. The used_channel_ fill exists only for the jammer
  // handoff. The mode span arrives Idle-initialized (BatchClient
  // contract): a client over a mostly-idle fleet only touches its active
  // nodes, which is where the batched interface earns its O(active) slot
  // cost. Only last slot's active nodes and the nodes whose fault byte it
  // wrote (an idle one also holds its blank-feedback flag) ever left the
  // idle state, so resetting exactly those entries restores the all-idle
  // invariant in O(active + flagged) work.
  if (jammer_ != nullptr)
    std::fill(used_channel_.begin(), used_channel_.end(), kNoChannel);
  batch_msgs_.clear();
  for (const std::int32_t node : soa_active_) {
    const auto idx = static_cast<std::size_t>(node);
    soa_mode_[idx] = Mode::Idle;
    soa_flags_[idx] = 0;
    soa_rx_cnt_[idx] = 0;
  }
  for (const std::int32_t node : soa_faulted_) {
    const auto idx = static_cast<std::size_t>(node);
    soa_flags_[idx] = 0;
    soa_fault_[idx] = 0;
  }
  soa_faulted_.clear();
  batch_->begin_slot(slot, soa_mode_, soa_label_);

  // This slot's label map in the flat node-major format: the table the
  // assignment lends (valid until its next begin_slot), else the snapshot
  // of a static assignment without one. Empty only for a dynamic
  // assignment without a table, which is asked per node instead.
  std::span<const Channel> labels = assignment_.table();
  if (labels.empty()) labels = flat_map_;
  const bool snap = !labels.empty();
  const auto cpn = static_cast<std::size_t>(assignment_.channels_per_node());
  auto channel_of = [&](std::size_t i, LocalLabel label) {
    assert(label >= 0 && static_cast<std::size_t>(label) < cpn);
    return snap ? labels[i * cpn + static_cast<std::size_t>(label)]
                : assignment_.global_channel(static_cast<NodeId>(i), label);
  };

  // Fault overrides and their accounting, the reference's rules, over the
  // nodes the engine flagged: a babbling radio transmits whatever its
  // client asked for, and blank feedback is charged to idle nodes too.
  if (fault_engine_ != nullptr) {
    const TestonlyFaultMutation mut = options_.testonly_fault_mutation;
    for (const NodeId node : fault_engine_->flagged()) {
      const auto i = static_cast<std::size_t>(node);
      std::uint8_t f = fault_engine_->flags(node);
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
        // sourced (land), keyed off the same fault bits.
        if (mut != TestonlyFaultMutation::BabbleIdles) {
          mode = Mode::Broadcast;
          soa_label_[i] = fault_engine_->babble_label(node);
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
      soa_faulted_.push_back(node);
      // The node will see an empty SlotResult; the client contract says
      // to ignore its other flag bits and rx view.
      if ((f & faultflag::kBlankFeedback) != 0 &&
          mut != TestonlyFaultMutation::KeepDroppedFeedback) {
        ++stats_.feedback_drops;
        soa_flags_[i] = slotflag::kFeedbackBlank;
      }
    }
  }

  // 1. Scan: list the slot's non-idle nodes, ascending, so every later
  //    pass is O(active); the idle tally lands in the stats in one add.
  //    It reads only the mode bytes, overrides applied, 64 nodes per
  //    block test where SSE2 is available (sim/active_scan.h).
  soa_active_.clear();
  scan_active(soa_mode_, soa_active_);
  const std::size_t active = soa_active_.size();
  stats_.idle_node_slots += static_cast<std::int64_t>(n - active);

  // 2. Gather: book each active node, write its grouping key and count
  //    the key into its (channel, role) bucket, where the work overlaps
  //    the misses (group_by_key finishes the sort). By the all-idle
  //    invariant the node's flag byte is clear (or holds only the
  //    blank-feedback mark) and its mode byte holds the final action, so
  //    only a jam verdict is stored per node. The duty-cycle ledger is
  //    booked here (jammed, tx or listen) and in resolve_group
  //    (tx_success, received); idle slots are derived on read, see
  //    activity(). At fleet scale the active nodes are too sparse for the
  //    hardware prefetcher, so each node's lines are requested ahead: its
  //    label and mode first, then the label-table entry they select and
  //    its ledger record.
  const auto jammed_key =
      static_cast<std::uint32_t>(channel_bucket_.size() - 1);
  std::int64_t broadcasts = 0;
  const bool prefetch = n_ >= kPrefetchMinNodes;
  soa_key_.resize(active);
  for (std::size_t a = 0; a < active; ++a) {
    if (prefetch && a + 2 * kPrefetchAhead < active) {
      const auto j = static_cast<std::size_t>(soa_active_[a + 2 * kPrefetchAhead]);
      __builtin_prefetch(&soa_label_[j]);
      __builtin_prefetch(&soa_mode_[j]);
    }
    if (prefetch && a + kPrefetchAhead < active) {
      const auto j = static_cast<std::size_t>(soa_active_[a + kPrefetchAhead]);
      if (snap)
        __builtin_prefetch(labels.data() + j * cpn +
                           static_cast<std::size_t>(soa_label_[j]));
      prefetch_record(activity_[j]);
    }
    const auto i = static_cast<std::size_t>(soa_active_[a]);
    const Channel ch = channel_of(i, soa_label_[i]);
    Activity& act = activity_[i];
    if (jammer_ != nullptr) {
      used_channel_[i] = ch;
      if (jammer_->is_jammed(static_cast<NodeId>(i), ch)) {
        soa_flags_[i] |= slotflag::kJammed;
        ++stats_.jammed_node_slots;
        ++act.jammed;
        soa_key_[a] = jammed_key;
        continue;
      }
    }
    const bool tx = soa_mode_[i] == Mode::Broadcast;
    broadcasts += tx;
    act.tx += tx;
    act.listen += !tx;
    const auto c = static_cast<std::uint32_t>(ch);
    const std::uint32_t key = (c << 1) | (tx ? 0u : 1u);
    soa_key_[a] = key;
    if (channel_bucket_[key]++ == 0) {
      touched_[c >> 6] |= std::uint64_t{1} << (c & 63u);
      touched_summary_[c >> 12] |= std::uint64_t{1} << ((c >> 6) & 63u);
    }
  }
  stats_.broadcasts += broadcasts;

  // 3. Group, then resolve the touched channels in ascending order. Each
  //    channel's two buckets hold where its listeners start and where its
  //    run ends; the walk returns both to zero. A run with no broadcaster
  //    lands nothing and draws no coin under any model, so it is skipped.
  //    A lone broadcaster reaches nobody: short of emulated backoff it
  //    costs its OneWinner coin, below(1), and its landing, whose message
  //    is sourced for the word count but never enters the arena.
  const std::span<const int> runs(order_.data(), group_by_key());
  const bool lone_lands = !options_.emulate_backoff;
  const bool lone_coin = options_.collision == CollisionModel::OneWinner;
  int* const bucket = channel_bucket_.data();
  std::size_t start = 0;
  for (const std::uint32_t ch : touched_channels_) {
    int* const run = bucket + 2 * static_cast<std::size_t>(ch);
    const auto split = static_cast<std::size_t>(run[0]);
    const auto end = static_cast<std::size_t>(run[1]);
    run[0] = 0;
    run[1] = 0;
    if (split != start) {
      if (end - start == 1 && lone_lands) {
        if (lone_coin) (void)rng_.below(1);
        (void)land(slot, runs[start]);
      } else {
        resolve_group(slot, runs.subspan(start, split - start),
                      runs.subspan(split, end - split));
      }
    }
    start = end;
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
  //    view is materialized from the flat arrays only when someone looks;
  //    a non-idle node's channel comes from its label through the same
  //    map the gather read.
  if (jammer_ != nullptr) jammer_->observe(slot, used_channel_);
  stats_.slots = slot;
  if (observer_) {
    for (std::size_t i = 0; i < n; ++i) {
      ResolvedAction& r = resolved_[i];
      r.node = static_cast<NodeId>(i);
      r.mode = soa_mode_[i];
      r.channel =
          r.mode == Mode::Idle ? kNoChannel : channel_of(i, soa_label_[i]);
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
  for (const Activity& a : activity_) {
    w.i64(a.tx);
    w.i64(a.tx_success);
    w.i64(a.listen);
    w.i64(a.received);
    w.i64(0);  // idle, derived on read
    w.i64(a.jammed);
  }
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
  const Slot slots = stats_.slots;
  for (Activity& a : activity_) {
    a.tx = r.i64();
    a.tx_success = r.i64();
    a.listen = r.i64();
    a.received = r.i64();
    if (r.i64() != 0)
      throw CheckpointError(
          "checkpoint rejected: a stored idle count is not 0 (idle is "
          "derived from the slot count)");
    a.jammed = r.i64();
    // activity() derives idle = slots - (tx + listen + jammed), so each
    // bound below keeps every derived count non-negative, too.
    const bool possible =
        a.tx >= 0 && a.tx_success >= 0 && a.listen >= 0 && a.received >= 0 &&
        a.jammed >= 0 && a.tx_success <= a.tx && a.tx <= slots &&
        a.listen <= slots - a.tx && a.jammed <= slots - a.tx - a.listen;
    if (!possible)
      throw CheckpointError(
          "checkpoint rejected: an activity record holds a negative count, "
          "more wins than broadcasts, or more active slots than slots");
  }
  r.rng(rng_);
}

}  // namespace cogradio
