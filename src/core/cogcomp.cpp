#include "core/cogcomp.h"

#include <cassert>
#include <stdexcept>

#include "sim/checkpoint.h"

namespace cogradio {

namespace {
Message init_message() {
  Message m;
  m.type = MessageType::Init;
  return m;
}

// The shape check, run before any member derives a phase end from the
// shape (a zero k would divide by zero in the horizon).
const CogCompParams& checked(const CogCompParams& params) {
  if (params.n < 1 || params.c < 1 || params.k < 1)
    throw std::invalid_argument("cogcomp: invalid parameters");
  return params;
}
}  // namespace

CogCompNode::CogCompNode(NodeId id, const CogCompParams& params,
                         bool is_source, Value value, Aggregator aggregator,
                         Rng rng)
    : id_(id),
      params_(checked(params)),
      n_(params.n),
      phase1_end_(params.phase1_end()),
      phase2_end_(params.phase2_end()),
      phase3_end_(params.phase3_end()),
      is_source_(is_source),
      value_(value),
      aggregator_(aggregator),
      cast_(id, params.c, is_source, init_message(), rng.split(1),
            /*horizon=*/phase1_end_, /*record_history=*/true),
      rng_phase4_(rng.split(2)) {}

int CogCompNode::step_offset(Slot slot) const {
  return static_cast<int>((slot - phase3_end_ - 1) % params_.step_slots());
}

Action CogCompNode::on_slot(Slot slot) {
  if (slot <= phase1_end_) return cast_.on_slot(slot);
  if (slot <= phase2_end_) {
    if (!phase2_started_) begin_phase2();
    return phase2_action();
  }
  if (slot <= phase3_end_) {
    if (!phase3_started_) begin_phase3();
    return phase3_action(slot);
  }
  if (!phase4_started_) begin_phase4();
  return phase4_action(slot);
}

void CogCompNode::on_feedback(Slot slot, const SlotResult& result) {
  if (slot <= phase1_end_) {
    cast_.on_feedback(slot, result);
    return;
  }
  if (slot <= phase2_end_) {
    phase2_feedback(result);
    return;
  }
  if (slot <= phase3_end_) {
    phase3_feedback(slot, result);
    return;
  }
  phase4_feedback(slot, result);
}

// --- Phase 2 ----------------------------------------------------------------

void CogCompNode::begin_phase2() {
  phase2_started_ = true;
  if (is_source_) return;
  if (!cast_.informed()) {
    // Phase 1 failed for this node (a low-probability event); it cannot
    // participate further. Terminate so the run can end; the source's
    // complete() flag will expose the failure.
    done_ = true;
    return;
  }
  // Seed the census with ourselves; everything else arrives by listening.
  channel_clusters_[cast_.informed_slot()] = ClusterTally{1, id_};
}

Action CogCompNode::phase2_action() {
  if (is_source_ || done_ || !cast_.informed()) return Action::idle();
  if (!announced_) {
    Message m;
    m.type = MessageType::ClusterAnnounce;
    m.r = cast_.informed_slot();
    return Action::broadcast(cast_.informed_label(), m);
  }
  return Action::listen(cast_.informed_label());
}

void CogCompNode::phase2_feedback(const SlotResult& result) {
  if (is_source_ || done_ || !cast_.informed()) return;
  if (result.tx_success) announced_ = true;
  for (const Message& m : result.received) {
    if (m.type != MessageType::ClusterAnnounce) continue;
    ClusterTally& tally = channel_clusters_[m.r];
    tally.size += 1;
    if (tally.min_id == kNoNode || m.sender < tally.min_id)
      tally.min_id = m.sender;
  }
}

// --- Phase 3 ----------------------------------------------------------------

void CogCompNode::begin_phase3() {
  phase3_started_ = true;
  if (!is_source_ && cast_.informed()) {
    // Finalize the phase-2 census: own cluster size, full channel census in
    // descending r, and the mediator self-check (Lemma 7). Every informed
    // node announced exactly once within the n phase-2 slots, so the census
    // is exact.
    my_cluster_size_ = channel_clusters_.at(cast_.informed_slot()).size;
    for (auto it = channel_clusters_.rbegin(); it != channel_clusters_.rend();
         ++it)
      mediator_clusters_.emplace_back(it->first, it->second.size);
    const auto& last = *channel_clusters_.rbegin();
    mediator_ =
        cast_.informed_slot() == last.first && id_ == last.second.min_id;
  }
}

Action CogCompNode::phase3_action(Slot slot) {
  phase3_listening_ = false;
  if (done_) return Action::idle();
  if (!is_source_ && !cast_.informed()) return Action::idle();

  const Slot i = slot - phase2_end_;   // 1-based phase-3 index
  const Slot j = phase1_end_ - i + 1;  // mirrored phase-1 slot
  const auto& record =
      cast_.history().at(static_cast<std::size_t>(j - 1));
  phase3_label_ = record.label;

  if (record.first_informed) {
    // Members of the cluster informed in slot j broadcast its size; one of
    // them wins and the informer learns the size (Lemma 9).
    Message m;
    m.type = MessageType::ClusterSize;
    m.r = cast_.informed_slot();
    m.a = my_cluster_size_;
    return Action::broadcast(record.label, m);
  }
  if (record.broadcast && record.success) {
    phase3_listening_ = true;
    return Action::listen(record.label);
  }
  return Action::idle();
}

void CogCompNode::phase3_feedback(Slot slot, const SlotResult& result) {
  if (!phase3_listening_) return;
  const Slot i = slot - phase2_end_;
  const Slot j = phase1_end_ - i + 1;
  for (const Message& m : result.received) {
    if (m.type != MessageType::ClusterSize) continue;
    assert(m.r == j);
    (void)j;
    informed_clusters_.push_back(InformedCluster{m.r, phase3_label_, m.a});
  }
}

// --- Phase 4 ----------------------------------------------------------------

void CogCompNode::begin_phase4() {
  phase4_started_ = true;
  acc_ = aggregator_.leaf(id_, value_);
  if (done_) return;  // uninformed node, already out
  if (!is_source_ && !cast_.informed()) {
    done_ = true;
    return;
  }
  if (!informed_clusters_.empty()) {
    role_ = Role::Receiver;
    return;
  }
  if (is_source_) {
    // Nothing to collect (degenerate n = 1 or failed phase 1).
    role_ = Role::Finished;
    done_ = true;
    return;
  }
  role_ = Role::Sender;
  if (mediator_ && params_.mediated) duties_started_ = true;
}

Action CogCompNode::phase4_action(Slot slot) {
  if (!params_.mediated) return phase4_action_unmediated(slot);
  if (done_ && !mediator_active()) return Action::idle();
  const int off = step_offset(slot);
  const LocalLabel home = cast_.informed_label();

  switch (off) {
    case 0: {  // mediator poll slot
      sent_this_step_ = false;
      if (mediator_active()) {
        const Slot poll_r = mediator_clusters_[med_idx_].first;
        // The mediator "hears" its own poll: if its own cluster is active
        // and it is ready to send, it will transmit in the next slot.
        send_pending_ = role_ == Role::Sender && poll_r == cast_.informed_slot();
        Message m;
        m.type = MessageType::MediatorPoll;
        m.r = poll_r;
        return Action::broadcast(home, m);
      }
      if (role_ == Role::Receiver)
        return Action::listen(informed_clusters_[collect_idx_].label);
      if (role_ == Role::Sender) {
        send_pending_ = false;  // set by the poll we are about to hear
        return Action::listen(home);
      }
      return Action::idle();
    }
    case 1: {  // data slot
      if (role_ == Role::Sender && send_pending_) {
        sent_this_step_ = true;
        Message m;
        m.type = MessageType::AggData;
        m.r = cast_.informed_slot();
        m.payload = acc_;
        return Action::broadcast(home, m);
      }
      if (role_ == Role::Receiver)
        return Action::listen(informed_clusters_[collect_idx_].label);
      if (role_ == Role::Sender || mediator_active()) return Action::listen(home);
      return Action::idle();
    }
    default: {  // ack slot
      if (role_ == Role::Receiver) {
        if (pending_ack_ != kNoNode) {
          Message m;
          m.type = MessageType::Ack;
          m.r = informed_clusters_[collect_idx_].r;
          m.a = pending_ack_;
          return Action::broadcast(informed_clusters_[collect_idx_].label, m);
        }
        return Action::listen(informed_clusters_[collect_idx_].label);
      }
      if (role_ == Role::Sender || mediator_active()) return Action::listen(home);
      return Action::idle();
    }
  }
}

void CogCompNode::phase4_feedback(Slot slot, const SlotResult& result) {
  if (!params_.mediated) {
    phase4_feedback_unmediated(slot, result);
    return;
  }
  if (done_ && !mediator_active()) return;
  const int off = step_offset(slot);

  switch (off) {
    case 0: {
      // Non-mediator senders arm on a matching poll; the mediator armed
      // itself when it broadcast the poll.
      if (role_ == Role::Sender && !mediator_) {
        for (const Message& m : result.received)
          if (m.type == MessageType::MediatorPoll &&
              m.r == cast_.informed_slot())
            send_pending_ = true;
      }
      break;
    }
    case 1: {
      if (role_ == Role::Receiver) {
        for (const Message& m : result.received) {
          if (m.type != MessageType::AggData) continue;
          if (m.r != informed_clusters_[collect_idx_].r) continue;
          aggregator_.merge(acc_, m.payload);
          pending_ack_ = m.sender;
        }
      }
      break;
    }
    default: {
      // Receiver: the ack we just broadcast was the sole transmission on
      // the channel (guaranteed in the loss-free model), so the delivery
      // is committed — count it. Under fading a desynchronized re-ack can
      // lose the channel; keep it pending and retry next step.
      if (role_ == Role::Receiver && pending_ack_ != kNoNode &&
          result.tx_attempted) {
        if (result.tx_success) receiver_ack_committed();
      }
      // Sender: hearing its own id acknowledged means its subtree is
      // delivered; a plain sender terminates, a mediator keeps serving.
      if (role_ == Role::Sender && sent_this_step_) {
        for (const Message& m : result.received) {
          if (m.type != MessageType::Ack) continue;
          if (static_cast<NodeId>(m.a) == id_) {
            delivered_ = true;
            role_ = Role::Finished;
            if (!mediator_) done_ = true;
          }
        }
      }
      // Mediator: track the active cluster's drain via the acks on its
      // channel (its own delivery, handled above, also produces one).
      if (mediator_active()) {
        for (const Message& m : result.received) {
          if (m.type != MessageType::Ack) continue;
          // In the loss-free model only the active cluster's acks can be
          // heard; under fading (E28) retransmissions desynchronize the
          // drain, so stray acks are dropped — costing liveness (the run
          // reports incompleteness), never correctness.
          if (m.r != mediator_clusters_[med_idx_].first) continue;
          ++med_delivered_;
          if (med_delivered_ == mediator_clusters_[med_idx_].second) {
            ++med_idx_;
            med_delivered_ = 0;
            if (med_idx_ == mediator_clusters_.size()) {
              // Channel drained; the mediator's own delivery happened while
              // draining its own (first) cluster (guaranteed loss-free,
              // possibly skipped under fading), so it can stop serving.
              done_ = true;
            }
          }
        }
      }
      send_pending_ = false;
      break;
    }
  }
}

// --- Unmediated phase 4 (ablation, CogCompParams::mediated == false) --------
//
// 2-slot steps. Data slot: every ready sender fires with probability
// fire_prob on its informing channel; the receiving informer accepts a
// message matching its current cluster. Ack slot: the accepting receiver
// (the only broadcaster on the channel) names the delivered sender.

Action CogCompNode::phase4_action_unmediated(Slot slot) {
  if (done_) return Action::idle();
  const int off = step_offset(slot);
  const LocalLabel home = cast_.informed_label();

  if (off == 0) {  // data slot
    sent_this_step_ = false;
    if (role_ == Role::Sender) {
      if (rng_phase4_.chance(params_.fire_prob)) {
        sent_this_step_ = true;
        Message m;
        m.type = MessageType::AggData;
        m.r = cast_.informed_slot();
        m.payload = acc_;
        return Action::broadcast(home, m);
      }
      return Action::listen(home);
    }
    if (role_ == Role::Receiver)
      return Action::listen(informed_clusters_[collect_idx_].label);
    return Action::idle();
  }
  // Ack slot.
  if (role_ == Role::Receiver) {
    if (pending_ack_ != kNoNode) {
      Message m;
      m.type = MessageType::Ack;
      m.r = informed_clusters_[collect_idx_].r;
      m.a = pending_ack_;
      return Action::broadcast(informed_clusters_[collect_idx_].label, m);
    }
    return Action::listen(informed_clusters_[collect_idx_].label);
  }
  if (role_ == Role::Sender) return Action::listen(home);
  return Action::idle();
}

void CogCompNode::phase4_feedback_unmediated(Slot slot,
                                             const SlotResult& result) {
  if (done_) return;
  const int off = step_offset(slot);
  if (off == 0) {
    if (role_ == Role::Receiver) {
      for (const Message& m : result.received) {
        if (m.type != MessageType::AggData) continue;
        if (m.r != informed_clusters_[collect_idx_].r) continue;
        aggregator_.merge(acc_, m.payload);
        pending_ack_ = m.sender;
      }
    }
    return;
  }
  if (role_ == Role::Receiver && pending_ack_ != kNoNode)
    receiver_ack_committed();
  if (role_ == Role::Sender && sent_this_step_) {
    for (const Message& m : result.received) {
      if (m.type != MessageType::Ack) continue;
      if (static_cast<NodeId>(m.a) == id_) {
        delivered_ = true;
        role_ = Role::Finished;
        done_ = true;  // no mediator duties in the ablation
      }
    }
  }
}

// Shared: the receiver's ack was the sole transmission on its channel, so
// the delivery is committed — count it and advance if the cluster drained.
void CogCompNode::receiver_ack_committed() {
  pending_ack_ = kNoNode;
  ++collect_count_;
  if (collect_count_ == informed_clusters_[collect_idx_].size)
    advance_collect();
}

void CogCompNode::advance_collect() {
  ++collect_idx_;
  collect_count_ = 0;
  if (collect_idx_ < informed_clusters_.size()) return;
  // All clusters collected: the source is finished; everyone else starts
  // pushing the accumulated subtree to its parent.
  if (is_source_) {
    role_ = Role::Finished;
    done_ = true;
    return;
  }
  role_ = Role::Sender;
  if (mediator_ && params_.mediated) duties_started_ = true;
}

void CogCompNode::save_state(CheckpointWriter& w) const {
  w.section("comp");
  cast_.save_state(w);
  w.rng(rng_phase4_);
  w.boolean(phase2_started_);
  w.boolean(announced_);
  w.u64(channel_clusters_.size());
  for (const auto& [r, tally] : channel_clusters_) {
    w.i64(r);
    w.i64(tally.size);
    w.i64(tally.min_id);
  }
  w.i64(my_cluster_size_);
  w.boolean(phase3_started_);
  w.boolean(mediator_);
  w.u64(mediator_clusters_.size());
  for (const auto& [r, size] : mediator_clusters_) {
    w.i64(r);
    w.i64(size);
  }
  w.u64(informed_clusters_.size());
  for (const InformedCluster& c : informed_clusters_) {
    w.i64(c.r);
    w.i64(c.label);
    w.i64(c.size);
  }
  w.i64(phase3_label_);
  w.boolean(phase3_listening_);
  w.boolean(phase4_started_);
  w.u8(static_cast<std::uint8_t>(role_));
  w.u64(collect_idx_);
  w.i64(collect_count_);
  save_agg_payload(w, acc_);
  w.boolean(send_pending_);
  w.boolean(sent_this_step_);
  w.i64(pending_ack_);
  w.boolean(delivered_);
  w.boolean(duties_started_);
  w.u64(med_idx_);
  w.i64(med_delivered_);
  w.boolean(done_);
}

void CogCompNode::restore_state(CheckpointReader& r) {
  r.section("comp");
  cast_.restore_state(r);
  r.rng(rng_phase4_);
  phase2_started_ = r.boolean();
  announced_ = r.boolean();
  channel_clusters_.clear();
  const std::size_t num_tallies = r.length(24);
  for (std::size_t i = 0; i < num_tallies; ++i) {
    const Slot slot = r.i64();
    ClusterTally tally;
    tally.size = r.i64();
    tally.min_id = static_cast<NodeId>(r.i64());
    channel_clusters_.emplace(slot, tally);
  }
  my_cluster_size_ = r.i64();
  phase3_started_ = r.boolean();
  mediator_ = r.boolean();
  mediator_clusters_.clear();
  const std::size_t num_med = r.length(16);
  mediator_clusters_.reserve(num_med);
  for (std::size_t i = 0; i < num_med; ++i) {
    const Slot slot = r.i64();
    const std::int64_t size = r.i64();
    mediator_clusters_.emplace_back(slot, size);
  }
  informed_clusters_.clear();
  const std::size_t num_informed = r.length(24);
  informed_clusters_.reserve(num_informed);
  for (std::size_t i = 0; i < num_informed; ++i) {
    InformedCluster c;
    c.r = r.i64();
    c.label = static_cast<LocalLabel>(r.i64());
    c.size = r.i64();
    informed_clusters_.push_back(c);
  }
  phase3_label_ = static_cast<LocalLabel>(r.i64());
  phase3_listening_ = r.boolean();
  phase4_started_ = r.boolean();
  const std::uint8_t role = r.u8();
  if (role > static_cast<std::uint8_t>(Role::Finished))
    throw CheckpointError("checkpoint rejected: cogcomp role byte " +
                          std::to_string(role) + " out of range");
  role_ = static_cast<Role>(role);
  collect_idx_ = static_cast<std::size_t>(r.u64());
  collect_count_ = r.i64();
  acc_ = load_agg_payload(r);
  send_pending_ = r.boolean();
  sent_this_step_ = r.boolean();
  pending_ack_ = static_cast<NodeId>(r.i64());
  delivered_ = r.boolean();
  duties_started_ = r.boolean();
  med_idx_ = static_cast<std::size_t>(r.u64());
  med_delivered_ = r.i64();
  done_ = r.boolean();
}

}  // namespace cogradio
