#include "sim/reference_network.h"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace cogradio {

ReferenceNetwork::ReferenceNetwork(ChannelAssignment& assignment,
                                   std::vector<Protocol*> protocols,
                                   NetworkOptions options)
    : assignment_(assignment),
      protocols_(std::move(protocols)),
      options_(options),
      rng_(options.seed),
      activity_(protocols_.size()) {
  if (protocols_.empty() || num_nodes() != assignment.num_nodes())
    throw std::invalid_argument(
        "reference network: need one protocol per assignment node");
  for (const Protocol* p : protocols_)
    if (p == nullptr)
      throw std::invalid_argument("reference network: null protocol");
}

bool ReferenceNetwork::all_done() const {
  return std::all_of(protocols_.begin(), protocols_.end(),
                     [](const Protocol* p) { return p->done(); });
}

Slot ReferenceNetwork::run(Slot max_slots) {
  while (!all_done() && stats_.slots < max_slots) step();
  return stats_.slots;
}

// Counts `node`'s fault flags and applies them to the action it picked,
// churn first, then babble, then mute. Returns the flags, with kDemoted
// added when a mute radio's broadcast became a listen.
std::uint8_t ReferenceNetwork::apply_faults(NodeId node, Action& action) {
  std::uint8_t f = fault_engine_ != nullptr ? fault_engine_->flags(node) : 0;
  if (f == 0) return 0;
  ++stats_.fault_node_slots;
  if (f & faultflag::kChurnedOut) ++stats_.churned_node_slots;
  if (f & faultflag::kDeaf) ++stats_.deaf_node_slots;
  if (f & faultflag::kMute) ++stats_.mute_node_slots;
  if (f & faultflag::kBabble) ++stats_.babble_node_slots;
  if (f & faultflag::kFeedbackDrop) ++stats_.feedback_drop_node_slots;
  if (f & faultflag::kChurnedOut) {
    action = Action::idle();  // off the air
  } else if (f & faultflag::kBabble) {
    // A stuck transmitter: garbage on the stuck label, contending like any
    // other broadcast.
    action = Action::broadcast(fault_engine_->babble_label(node), Message{});
  } else if ((f & faultflag::kMute) && action.mode == Mode::Broadcast) {
    action.mode = Mode::Listen;  // still tuned to the label it picked
    f |= faultflag::kDemoted;
    ++stats_.mute_demotions;
  }
  return f;
}

void ReferenceNetwork::step() {
  const Slot slot = stats_.slots + 1;
  const std::size_t n = protocols_.size();

  // 1. History-only adversaries fix this slot before anyone acts.
  assignment_.begin_slot(slot);
  if (jammer_ != nullptr) jammer_->begin_slot(slot);
  if (fault_engine_ != nullptr) fault_engine_->begin_slot(slot);

  // 2-3. Actions, physical channels, jamming; unjammed nodes join their
  //      channel's group. The map keeps channels in ascending order.
  std::vector<ResolvedAction> acts(n);
  std::vector<Message> sent(n);              // by node, broadcasters only
  std::vector<Channel> used(n, kNoChannel);  // the jammer's history
  std::map<Channel, Group> groups;
  for (std::size_t i = 0; i < n; ++i) {
    const auto node = static_cast<NodeId>(i);
    Action action = protocols_[i]->on_slot(slot);
    ResolvedAction& r = acts[i];
    r.node = node;
    r.fault = apply_faults(node, action);
    r.mode = action.mode;
    if (r.mode == Mode::Idle) {
      ++stats_.idle_node_slots;
      continue;
    }
    r.channel = assignment_.global_channel(node, action.channel);
    used[i] = r.channel;
    if (jammer_ != nullptr && jammer_->is_jammed(node, r.channel)) {
      r.jammed = true;
      ++stats_.jammed_node_slots;
      continue;
    }
    Group& group = groups[r.channel];
    if (r.mode == Mode::Broadcast) {
      sent[i] = std::move(action.msg);
      sent[i].sender = node;
      ++stats_.broadcasts;
      group.broadcasters.push_back(node);
    } else {
      group.listeners.push_back(node);
    }
  }

  // 4. The collision model, channel by channel.
  std::vector<std::vector<Message>> heard(n);
  for (const auto& [channel, group] : groups) resolve(group, sent, acts, heard);

  // 5. The duty-cycle ledger and each node's feedback, in node order.
  for (std::size_t i = 0; i < n; ++i) {
    const ResolvedAction& r = acts[i];
    NodeActivity& a = activity_[i];
    if (r.mode == Mode::Idle) {
      ++a.idle;
    } else if (r.jammed) {
      ++a.jammed;
    } else {
      ++(r.mode == Mode::Broadcast ? a.tx : a.listen);
      a.tx_success += r.tx_success ? 1 : 0;
      a.received += static_cast<std::int64_t>(heard[i].size());
    }
    SlotResult result;  // blank feedback reads like a powered-off slot
    if (r.fault & faultflag::kBlankFeedback) {
      ++stats_.feedback_drops;
    } else {
      result.jammed = r.jammed;
      result.tx_attempted = r.mode == Mode::Broadcast && !r.jammed;
      result.tx_success = r.tx_success;
      result.received = heard[i];
    }
    protocols_[i]->on_feedback(slot, result);
  }

  if (jammer_ != nullptr) jammer_->observe(slot, used);
  stats_.slots = slot;
  if (observer_) observer_(slot, acts);
}

// One channel's outcome. Coins, in DETERMINISM.md's order: the winner
// coin (or the backoff coins) of a OneWinner channel with a broadcaster,
// then one fade coin per receiver that can hear, in receiver order.
void ReferenceNetwork::resolve(const Group& group,
                               const std::vector<Message>& sent,
                               std::vector<ResolvedAction>& acts,
                               std::vector<std::vector<Message>>& heard) {
  const std::vector<NodeId>& tx = group.broadcasters;
  if (tx.size() >= 2) ++stats_.collision_events;
  if (tx.empty()) return;

  std::vector<NodeId> landed;  // the broadcasts that succeed
  switch (options_.collision) {
    case CollisionModel::OneWinner:
      if (!options_.emulate_backoff) {
        landed = {tx[rng_.below(tx.size())]};
      } else {
        const BackoffOutcome outcome = decay_backoff(
            static_cast<int>(tx.size()), options_.backoff, rng_);
        stats_.micro_slots += outcome.micro_slots;
        if (outcome.resolved)
          landed = {tx[static_cast<std::size_t>(outcome.winner)]};
        else
          ++stats_.backoff_failures;
      }
      break;
    case CollisionModel::AllDelivered:
      landed = tx;
      break;
    case CollisionModel::CollisionLoss:
      if (tx.size() == 1) landed = tx;
      break;
  }
  if (landed.empty()) return;

  std::vector<Message> messages;
  for (const NodeId w : landed) {
    const Message& msg = sent[static_cast<std::size_t>(w)];
    acts[static_cast<std::size_t>(w)].tx_success = true;
    ++stats_.successes;
    const auto words = static_cast<std::int64_t>(wire_size_words(msg));
    stats_.total_message_words += words;
    stats_.max_message_words = std::max(stats_.max_message_words, words);
    messages.push_back(msg);
  }

  // Receivers: the listeners, then the broadcasters that did not land.
  std::vector<NodeId> receivers = group.listeners;
  for (const NodeId b : tx)
    if (std::find(landed.begin(), landed.end(), b) == landed.end())
      receivers.push_back(b);
  const bool fading = options_.collision == CollisionModel::OneWinner &&
                      options_.loss_prob > 0.0;
  const auto copies = static_cast<std::int64_t>(messages.size());
  for (const NodeId u : receivers) {
    const auto i = static_cast<std::size_t>(u);
    if (acts[i].fault & faultflag::kRxDead) {
      stats_.suppressed_deliveries += copies;
      continue;
    }
    if (fading && rng_.chance(options_.loss_prob)) continue;
    heard[i] = messages;
    stats_.deliveries += copies;
  }
}

}  // namespace cogradio
