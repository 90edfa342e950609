#include "sim/invariants.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

namespace cogradio {

namespace {
constexpr std::size_t kMaxReportedViolations = 8;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}
}  // namespace

void ActionFingerprint::fold(Slot slot, std::span<const ResolvedAction> acts) {
  for (const ResolvedAction& a : acts) {
    fnv_mix(h_, static_cast<std::uint64_t>(slot));
    fnv_mix(h_, static_cast<std::uint64_t>(a.node));
    fnv_mix(h_, static_cast<std::uint64_t>(a.mode));
    fnv_mix(h_,
            static_cast<std::uint64_t>(static_cast<std::int64_t>(a.channel)));
    fnv_mix(h_, a.jammed ? 1 : 0);
    fnv_mix(h_, a.fault);
  }
}

// Forwards everything to the wrapped protocol while recording the
// SlotResult the network delivered, for the checker's delivery oracle.
class InvariantChecker::Tap : public Protocol {
 public:
  explicit Tap(Protocol& inner) : inner_(inner) {}

  Action on_slot(Slot slot) override { return inner_.on_slot(slot); }

  void on_feedback(Slot slot, const SlotResult& result) override {
    if (slot == last_slot_) {
      ++feedback_calls_;
    } else {
      last_slot_ = slot;
      feedback_calls_ = 1;
    }
    jammed_ = result.jammed;
    tx_attempted_ = result.tx_attempted;
    tx_success_ = result.tx_success;
    received_.assign(result.received.begin(), result.received.end());
    inner_.on_feedback(slot, result);
  }

  bool done() const override { return inner_.done(); }

  Slot last_slot_ = kNoSlot;
  int feedback_calls_ = 0;
  bool jammed_ = false;
  bool tx_attempted_ = false;
  bool tx_success_ = false;
  std::vector<Message> received_;

 private:
  Protocol& inner_;
};

InvariantChecker::InvariantChecker() = default;
InvariantChecker::~InvariantChecker() = default;

Protocol* InvariantChecker::tap(Protocol& inner) {
  taps_.push_back(std::make_unique<Tap>(inner));
  return taps_.back().get();
}

void InvariantChecker::attach(Network& network) {
  if (!taps_.empty() &&
      static_cast<int>(taps_.size()) != network.num_nodes())
    throw std::invalid_argument(
        "invariants: tap count must equal the network's node count");
  net_ = &network;
  prev_ = network.stats();
  prev_activity_.resize(static_cast<std::size_t>(network.num_nodes()));
  for (NodeId u = 0; u < network.num_nodes(); ++u)
    prev_activity_[static_cast<std::size_t>(u)] = network.activity(u);
  network.set_observer([this](Slot slot, std::span<const ResolvedAction> acts) {
    check_slot(slot, acts);
  });
}

void InvariantChecker::fail(Slot slot, const std::string& what) {
  ++violations_;
  std::ostringstream os;
  os << "slot " << slot << ": " << what;
  if (first_violation_.empty()) first_violation_ = os.str();
  if (messages_.size() < kMaxReportedViolations) messages_.push_back(os.str());
}

std::string InvariantChecker::report() const {
  std::ostringstream os;
  for (const auto& m : messages_) os << m << "\n";
  if (violations_ > static_cast<std::int64_t>(messages_.size()))
    os << "... and " << (violations_ - static_cast<std::int64_t>(messages_.size()))
       << " more violations\n";
  return os.str();
}

void InvariantChecker::check_slot(Slot slot,
                                  std::span<const ResolvedAction> acts) {
  const NetworkOptions& opt = net_->options();
  const int total_channels = net_->total_channels();
  const bool fading =
      opt.collision == CollisionModel::OneWinner && opt.loss_prob > 0.0;

  // --- A. Structural per-action checks + fingerprint --------------------
  action_fp_.fold(slot, acts);
  int n_broadcast = 0, n_listen = 0, n_idle = 0, n_jammed = 0, n_success = 0;
  std::int64_t n_fault = 0, n_churn = 0, n_deaf = 0, n_mute = 0, n_babble = 0,
               n_fbdrop = 0, n_demoted = 0, n_blanked = 0;
  for (std::size_t i = 0; i < acts.size(); ++i) {
    const ResolvedAction& a = acts[i];
    if (a.node != static_cast<NodeId>(i))
      fail(slot, "resolved action out of node order");

    // Fault-flag semantics (sim/fault_engine.h): the engine's precedence
    // rules and the network's forced actions, re-derived from flags alone.
    if (a.fault != 0) {
      ++n_fault;
      if (a.fault & faultflag::kChurnedOut) ++n_churn;
      if (a.fault & faultflag::kDeaf) ++n_deaf;
      if (a.fault & faultflag::kMute) ++n_mute;
      if (a.fault & faultflag::kBabble) ++n_babble;
      if (a.fault & faultflag::kFeedbackDrop) ++n_fbdrop;
      if (a.fault & faultflag::kDemoted) ++n_demoted;
      if (a.fault & faultflag::kBlankFeedback) ++n_blanked;
      if ((a.fault & faultflag::kChurnedOut) &&
          (a.fault != faultflag::kChurnedOut))
        fail(slot, "churn must dominate every other fault kind");
      if ((a.fault & faultflag::kMute) && (a.fault & faultflag::kBabble))
        fail(slot, "mute must clear babble");
      if ((a.fault & faultflag::kChurnedOut) && a.mode != Mode::Idle)
        fail(slot, "churned-out node took an action");
      if ((a.fault & faultflag::kBabble) && a.mode != Mode::Broadcast)
        fail(slot, "babbling node failed to transmit");
      if ((a.fault & faultflag::kMute) && a.mode == Mode::Broadcast)
        fail(slot, "mute node transmitted");
      if ((a.fault & faultflag::kDemoted) &&
          (!(a.fault & faultflag::kMute) || a.mode != Mode::Listen))
        fail(slot, "demotion flag without a mute listen");
    }

    if (a.mode == Mode::Idle) {
      ++n_idle;
      if (a.channel != kNoChannel || a.jammed || a.tx_success)
        fail(slot, "idle node carries channel/jam/success state");
      continue;
    }
    if (a.channel < 0 || a.channel >= total_channels)
      fail(slot, "participant tuned outside [0, C)");
    if (a.jammed) {
      ++n_jammed;
      if (a.tx_success) fail(slot, "jammed node won its channel");
      continue;
    }
    if (a.mode == Mode::Broadcast) {
      ++n_broadcast;
      if (a.tx_success) ++n_success;
    } else {
      ++n_listen;
      if (a.tx_success) fail(slot, "listener marked tx_success");
    }
  }

  // --- B. Per-channel collision-model rules ------------------------------
  // Group unjammed participants by physical channel.
  std::map<Channel, std::vector<const ResolvedAction*>> groups;
  for (const ResolvedAction& a : acts)
    if (a.mode != Mode::Idle && !a.jammed) groups[a.channel].push_back(&a);

  // A receiver with a dead rx path (sim/fault_engine.h's kRxDead kinds)
  // must get no copies: the model suppresses them, exactly counted.
  const auto rx_dead = [](const ResolvedAction& a) {
    return (a.fault & faultflag::kRxDead) != 0;
  };

  int collided_channels = 0;     // >= 2 broadcasters
  int unresolved_channels = 0;   // broadcasters but no winner (backoff only)
  int contended_channels = 0;    // >= 1 broadcaster
  std::int64_t expect_deliveries = 0;
  std::int64_t expect_suppressed = 0;
  for (const auto& [channel, members] : groups) {
    std::vector<NodeId> broadcasters, winners;
    for (const ResolvedAction* a : members) {
      if (a->mode == Mode::Broadcast) {
        broadcasters.push_back(a->node);
        if (a->tx_success) winners.push_back(a->node);
      }
    }
    if (!broadcasters.empty()) ++contended_channels;
    if (broadcasters.size() >= 2) ++collided_channels;

    std::ostringstream where;
    where << "channel " << channel;
    switch (opt.collision) {
      case CollisionModel::OneWinner:
        if (winners.size() > 1)
          fail(slot, where.str() + " has " + std::to_string(winners.size()) +
                         " winners");
        else if (!broadcasters.empty() && winners.empty()) {
          // Decay backoff resolves a lone contender in its first
          // micro-slot, so even the emulation may only fail under real
          // contention.
          if (opt.emulate_backoff && broadcasters.size() >= 2)
            ++unresolved_channels;
          else
            fail(slot, where.str() + " had broadcasters but no winner");
        }
        // Every non-winner member gets a copy unless its rx path is dead.
        if (!winners.empty())
          for (const ResolvedAction* a : members) {
            if (a->node == winners.front()) continue;
            rx_dead(*a) ? ++expect_suppressed : ++expect_deliveries;
          }
        break;
      case CollisionModel::AllDelivered:
        if (winners.size() != broadcasters.size())
          fail(slot, where.str() + " must deliver every broadcaster");
        for (const ResolvedAction* a : members) {
          if (a->mode == Mode::Broadcast) continue;
          (rx_dead(*a) ? expect_suppressed : expect_deliveries) +=
              static_cast<std::int64_t>(broadcasters.size());
        }
        break;
      case CollisionModel::CollisionLoss:
        if (broadcasters.size() == 1) {
          if (winners.size() != 1)
            fail(slot, where.str() + " lone broadcaster must succeed");
          for (const ResolvedAction* a : members) {
            if (a->mode == Mode::Broadcast) continue;
            rx_dead(*a) ? ++expect_suppressed : ++expect_deliveries;
          }
        } else if (!winners.empty()) {
          fail(slot, where.str() + " delivered through a collision");
        }
        break;
    }

    // --- C. Tap-based delivery semantics (per channel group) -------------
    if (taps_.empty()) continue;
    const NodeId winner =
        winners.size() == 1 ? winners.front() : kNoNode;
    for (const ResolvedAction* a : members) {
      const Tap& t = *taps_[static_cast<std::size_t>(a->node)];
      std::ostringstream who;
      who << "node " << a->node << " on channel " << channel;
      if (opt.collision == CollisionModel::AllDelivered) {
        if (a->mode == Mode::Broadcast) {
          if (!t.received_.empty())
            fail(slot, who.str() + ": broadcaster received under AllDelivered");
        } else if (rx_dead(*a)) {
          if (!t.received_.empty())
            fail(slot, who.str() + ": dead receiver heard something");
        } else {
          if (t.received_.size() != broadcasters.size())
            fail(slot, who.str() + ": listener must hear every broadcaster");
          else
            for (std::size_t b = 0; b < broadcasters.size(); ++b)
              if (t.received_[b].sender != broadcasters[b])
                fail(slot, who.str() + ": delivered senders mismatch");
        }
        continue;
      }
      // OneWinner (plain or emulated) and CollisionLoss: deliveries come
      // from the channel's unique winner, or nowhere.
      if (a->node == winner) {
        if (!t.received_.empty())
          fail(slot, who.str() + ": winner must receive nothing");
        continue;
      }
      if (rx_dead(*a)) {
        // Deaf/churned/babbling/feedback-dropped receiver: every copy
        // addressed to it is suppressed, winner or not.
        if (!t.received_.empty())
          fail(slot, who.str() + ": dead receiver heard something");
        continue;
      }
      if (winner == kNoNode ||
          (opt.collision == CollisionModel::CollisionLoss &&
           a->mode == Mode::Broadcast)) {
        // Silent/unresolved channel, or a collided raw-radio broadcaster
        // (which gets no failed-broadcaster copy in CollisionLoss).
        if (!t.received_.empty())
          fail(slot, who.str() + ": received on a channel with no winner");
        continue;
      }
      if (t.received_.size() > 1)
        fail(slot, who.str() + ": more than one message in a one-winner slot");
      else if (t.received_.empty() && !fading)
        fail(slot, who.str() + ": lost the winner's message without fading");
      else if (!t.received_.empty() && t.received_.front().sender != winner)
        fail(slot, who.str() + ": received a message not from the winner");
    }
  }

  // --- D. TraceStats accounting deltas -----------------------------------
  const TraceStats& s = net_->stats();
  auto delta = [&](std::int64_t now, std::int64_t before, const char* name,
                   std::int64_t expect) {
    if (now - before != expect)
      fail(slot, std::string(name) + " delta " + std::to_string(now - before) +
                     " != expected " + std::to_string(expect));
  };
  if (s.slots != prev_.slots + 1) fail(slot, "slots must advance by one");
  delta(s.broadcasts, prev_.broadcasts, "broadcasts", n_broadcast);
  delta(s.fault_node_slots, prev_.fault_node_slots, "fault_node_slots",
        n_fault);
  delta(s.churned_node_slots, prev_.churned_node_slots, "churned_node_slots",
        n_churn);
  delta(s.deaf_node_slots, prev_.deaf_node_slots, "deaf_node_slots", n_deaf);
  delta(s.mute_node_slots, prev_.mute_node_slots, "mute_node_slots", n_mute);
  delta(s.babble_node_slots, prev_.babble_node_slots, "babble_node_slots",
        n_babble);
  delta(s.feedback_drop_node_slots, prev_.feedback_drop_node_slots,
        "feedback_drop_node_slots", n_fbdrop);
  delta(s.mute_demotions, prev_.mute_demotions, "mute_demotions", n_demoted);
  delta(s.feedback_drops, prev_.feedback_drops, "feedback_drops", n_blanked);
  // Suppression is decided before the fade coin, so this delta is exact
  // even when deliveries themselves sit inside the fading envelope.
  delta(s.suppressed_deliveries, prev_.suppressed_deliveries,
        "suppressed_deliveries", expect_suppressed);
  delta(s.jammed_node_slots, prev_.jammed_node_slots, "jammed_node_slots",
        n_jammed);
  delta(s.idle_node_slots, prev_.idle_node_slots, "idle_node_slots", n_idle);
  delta(s.collision_events, prev_.collision_events, "collision_events",
        collided_channels);
  delta(s.successes, prev_.successes, "successes", n_success);
  const std::int64_t dd = s.deliveries - prev_.deliveries;
  if (fading) {
    if (dd < 0 || dd > expect_deliveries)
      fail(slot, "deliveries delta outside the fading envelope");
  } else if (dd != expect_deliveries) {
    fail(slot, "deliveries delta " + std::to_string(dd) + " != expected " +
                   std::to_string(expect_deliveries));
  }
  if (opt.collision == CollisionModel::OneWinner && opt.emulate_backoff) {
    delta(s.backoff_failures, prev_.backoff_failures, "backoff_failures",
          unresolved_channels);
    if (s.micro_slots - prev_.micro_slots < contended_channels)
      fail(slot, "micro_slots must cover every contended channel");
  } else {
    delta(s.backoff_failures, prev_.backoff_failures, "backoff_failures", 0);
    delta(s.micro_slots, prev_.micro_slots, "micro_slots", 0);
  }
  if (s.total_message_words - prev_.total_message_words <
      static_cast<std::int64_t>(n_success))
    fail(slot, "total_message_words must grow by at least one word/success");
  if (s.max_message_words < prev_.max_message_words)
    fail(slot, "max_message_words decreased");
  // Cumulative identities (the `broadcasts = successes + failed` ledger).
  failed_broadcasts_ += n_broadcast - n_success;
  if (s.broadcasts != s.successes + failed_broadcasts_)
    fail(slot, "broadcasts != successes + failed broadcasts");

  // --- E. Per-node activity ledger ---------------------------------------
  std::int64_t tap_received_total = 0;
  for (std::size_t i = 0; i < acts.size(); ++i) {
    const ResolvedAction& a = acts[i];
    const NodeActivity& act = net_->activity(static_cast<NodeId>(i));
    const NodeActivity& was = prev_activity_[i];
    std::ostringstream who;
    who << "node " << i;
    const std::int64_t dtx = act.tx - was.tx;
    const std::int64_t dlisten = act.listen - was.listen;
    const std::int64_t didle = act.idle - was.idle;
    const std::int64_t djam = act.jammed - was.jammed;
    const std::int64_t expected_tx =
        (a.mode == Mode::Broadcast && !a.jammed) ? 1 : 0;
    const std::int64_t expected_listen =
        (a.mode == Mode::Listen && !a.jammed) ? 1 : 0;
    const std::int64_t expected_idle = a.mode == Mode::Idle ? 1 : 0;
    const std::int64_t expected_jam = a.jammed ? 1 : 0;
    if (dtx != expected_tx || dlisten != expected_listen ||
        didle != expected_idle || djam != expected_jam)
      fail(slot, who.str() + ": activity counters disagree with the action");
    if (act.tx_success - was.tx_success != (a.tx_success ? 1 : 0))
      fail(slot, who.str() + ": tx_success ledger disagrees");
    if (act.tx + act.listen + act.idle + act.jammed != s.slots)
      fail(slot, who.str() + ": duty-cycle counters do not cover every slot");
    if (act.energy() != act.tx + act.listen)
      fail(slot, who.str() + ": energy must equal tx + listen");
    if (act.tx_success > act.tx)
      fail(slot, who.str() + ": more wins than attempts");
    const std::int64_t drecv = act.received - was.received;
    if (!taps_.empty()) {
      const Tap& t = *taps_[i];
      if (t.last_slot_ != slot || t.feedback_calls_ != 1)
        fail(slot, who.str() + ": feedback not delivered exactly once");
      if ((a.fault & faultflag::kBlankFeedback) != 0) {
        // Blanked feedback must equal SlotResult{} field by field — the
        // protocol can't tell the slot from a powered-off radio's.
        if (t.jammed_ || t.tx_attempted_ || t.tx_success_ ||
            !t.received_.empty())
          fail(slot, who.str() + ": blanked feedback leaked state");
      } else {
        if (t.jammed_ != a.jammed)
          fail(slot, who.str() + ": SlotResult.jammed disagrees");
        if (t.tx_attempted_ != (a.mode == Mode::Broadcast && !a.jammed))
          fail(slot, who.str() + ": SlotResult.tx_attempted disagrees");
        if (t.tx_success_ != a.tx_success)
          fail(slot, who.str() + ": SlotResult.tx_success disagrees");
        if ((a.fault & faultflag::kDeaf) && !t.received_.empty())
          fail(slot, who.str() + ": deaf node heard something");
      }
      if ((a.mode == Mode::Idle || a.jammed) && !t.received_.empty())
        fail(slot, who.str() + ": idle/jammed node heard something");
      if (drecv != static_cast<std::int64_t>(t.received_.size()))
        fail(slot, who.str() + ": received ledger disagrees with feedback");
      tap_received_total += static_cast<std::int64_t>(t.received_.size());
    } else if (drecv < 0) {
      fail(slot, who.str() + ": received ledger decreased");
    }
    prev_activity_[i] = act;
  }
  if (!taps_.empty() && dd != tap_received_total)
    fail(slot, "deliveries delta != messages actually received");

  prev_ = s;
  ++slots_checked_;
}

}  // namespace cogradio
