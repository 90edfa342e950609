#include "sim/fault_engine.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/checkpoint.h"

namespace cogradio {

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::Deaf: return "deaf";
    case FaultKind::Mute: return "mute";
    case FaultKind::Babble: return "babble";
    case FaultKind::FeedbackDrop: return "feedback-drop";
    case FaultKind::Churn: return "churn";
  }
  return "?";
}

std::uint8_t fault_bit(FaultKind kind) {
  switch (kind) {
    case FaultKind::Deaf: return faultflag::kDeaf;
    case FaultKind::Mute: return faultflag::kMute;
    case FaultKind::Babble: return faultflag::kBabble;
    case FaultKind::FeedbackDrop: return faultflag::kFeedbackDrop;
    case FaultKind::Churn: return faultflag::kChurnedOut;
  }
  return 0;
}

FaultEngine::FaultEngine(int n, int c, Rng rng) : n_(n), c_(c), rng_(rng) {
  if (n <= 0) throw std::invalid_argument("fault engine: need n > 0");
  if (c <= 0) throw std::invalid_argument("fault engine: need c > 0");
  flags_.resize(static_cast<std::size_t>(n), 0);
  babble_label_.resize(static_cast<std::size_t>(n), kNoChannel);
}

void check_fault_engine_fits(const FaultEngine& engine, int n, int c) {
  if (engine.num_nodes() != n)
    throw std::invalid_argument(
        "fault engine: built for " + std::to_string(engine.num_nodes()) +
        " node(s), the network has " + std::to_string(n));
  if (engine.num_labels() > c)
    throw std::invalid_argument(
        "fault engine: draws babble labels from " +
        std::to_string(engine.num_labels()) + ", the network's nodes have " +
        std::to_string(c));
}

void FaultEngine::add(NodeId node, FaultKind kind, Slot from, Slot to) {
  if (node < 0 || node >= n_)
    throw std::invalid_argument("fault engine: node out of range");
  if (from < 1) throw std::invalid_argument("fault engine: windows start >= 1");
  Window w;
  w.node = node;
  w.kind = kind;
  w.from = from;
  w.to = to;
  // The stuck label is a schedule coin: spend it now so begin_slot stays a
  // pure resolution of fixed windows.
  if (kind == FaultKind::Babble)
    w.label = static_cast<LocalLabel>(rng_.below(static_cast<std::uint64_t>(c_)));
  windows_.push_back(w);
}

void FaultEngine::add_random(const FaultProfile& profile, Slot horizon) {
  const Slot h = horizon < 2 ? 2 : horizon;
  // Distinct nodes across the five kinds: each node carries at most one
  // scripted window, so the per-kind semantics stay attributable in the
  // log.
  std::vector<NodeId> pool;
  pool.reserve(static_cast<std::size_t>(n_));
  for (NodeId u = 0; u < n_; ++u) pool.push_back(u);
  rng_.shuffle(pool);
  std::size_t next = 0;
  const auto draw_windows = [&](FaultKind kind, int count) {
    for (int i = 0; i < count && next < pool.size(); ++i) {
      const NodeId u = pool[next++];
      const Slot from = rng_.between(1, h - 1);
      const Slot to = rng_.between(from + 1, h);
      add(u, kind, from, to);
    }
  };
  draw_windows(FaultKind::Deaf, profile.deaf);
  draw_windows(FaultKind::Mute, profile.mute);
  draw_windows(FaultKind::Babble, profile.babble);
  draw_windows(FaultKind::FeedbackDrop, profile.feedback_drop);
  draw_windows(FaultKind::Churn, profile.churn);
  if (profile.burst_nodes > 0 && profile.burst_len > 0) {
    const int hit = std::min(profile.burst_nodes, n_);
    const Slot len = std::min<Slot>(profile.burst_len, h - 1);
    const std::vector<std::int32_t> picks =
        rng_.sample_without_replacement(n_, hit);
    std::vector<NodeId> nodes(picks.begin(), picks.end());
    const Slot from = rng_.between(1, std::max<Slot>(1, h - len));
    add_burst(nodes, from, len);
  }
}

void FaultEngine::add_burst(std::span<const NodeId> nodes, Slot from,
                            Slot len) {
  if (len <= 0) return;
  for (const NodeId u : nodes) add(u, FaultKind::Churn, from, from + len);
  last_burst_end_ = std::max(last_burst_end_, from + len);
}

void FaultEngine::begin_slot(Slot slot) {
  std::fill(flags_.begin(), flags_.end(), std::uint8_t{0});
  std::fill(babble_label_.begin(), babble_label_.end(), kNoChannel);
  for (const Window& w : windows_) {
    const bool active = slot >= w.from && (w.to == kNoSlot || slot < w.to);
    if (active) {
      flags_[static_cast<std::size_t>(w.node)] |= fault_bit(w.kind);
      if (w.kind == FaultKind::Babble)
        babble_label_[static_cast<std::size_t>(w.node)] = w.label;
    }
    // Audit log: window boundaries, in schedule order (deterministic).
    if (w.from == slot) log_.push_back({slot, w.node, w.kind, true});
    if (w.to == slot) log_.push_back({slot, w.node, w.kind, false});
  }
  for (std::size_t u = 0; u < flags_.size(); ++u) {
    std::uint8_t& f = flags_[u];
    // Precedence: an off radio neither babbles nor listens; a dead
    // transmitter cannot babble.
    if (f & faultflag::kChurnedOut) f = faultflag::kChurnedOut;
    if ((f & faultflag::kMute) && (f & faultflag::kBabble))
      f &= static_cast<std::uint8_t>(~faultflag::kBabble);
    if (!(f & faultflag::kBabble))
      babble_label_[u] = kNoChannel;
    if (f & faultflag::kDeaf) ++injected_[static_cast<std::size_t>(FaultKind::Deaf)];
    if (f & faultflag::kMute) ++injected_[static_cast<std::size_t>(FaultKind::Mute)];
    if (f & faultflag::kBabble)
      ++injected_[static_cast<std::size_t>(FaultKind::Babble)];
    if (f & faultflag::kFeedbackDrop)
      ++injected_[static_cast<std::size_t>(FaultKind::FeedbackDrop)];
    if (f & faultflag::kChurnedOut)
      ++injected_[static_cast<std::size_t>(FaultKind::Churn)];
  }
}

std::string FaultEngine::serialize_log() const {
  std::ostringstream os;
  for (const FaultEvent& e : log_)
    os << "slot=" << e.slot << " node=" << e.node
       << " kind=" << to_string(e.kind) << (e.onset ? " onset" : " clear")
       << "\n";
  return os.str();
}

void FaultEngine::save_state(CheckpointWriter& w) const {
  w.section("flte");
  w.u32(static_cast<std::uint32_t>(n_));
  w.u32(static_cast<std::uint32_t>(c_));
  w.rng(rng_);
  w.u64(windows_.size());
  for (const Window& win : windows_) {
    w.i64(win.node);
    w.u8(static_cast<std::uint8_t>(win.kind));
    w.i64(win.from);
    w.i64(win.to);
    w.i64(win.label);
  }
  for (const std::int64_t count : injected_) w.i64(count);
  w.u64(log_.size());
  for (const FaultEvent& e : log_) {
    w.i64(e.slot);
    w.i64(e.node);
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.boolean(e.onset);
  }
  w.i64(last_burst_end_);
}

void FaultEngine::restore_state(CheckpointReader& r) {
  r.section("flte");
  const std::uint32_t n = r.u32();
  const std::uint32_t c = r.u32();
  if (n != static_cast<std::uint32_t>(n_) ||
      c != static_cast<std::uint32_t>(c_))
    throw CheckpointError(
        "checkpoint rejected: fault-engine shape mismatch (snapshot " +
        std::to_string(n) + "x" + std::to_string(c) + ", engine " +
        std::to_string(n_) + "x" + std::to_string(c_) + ")");
  r.rng(rng_);
  // Every window and log entry must be one add() could have made: a node
  // in [0, n), a byte naming a FaultKind, a start at slot 1 or later and,
  // for a babbler, a stuck label in [0, c).
  const auto reject = [](const std::string& why) {
    return CheckpointError("checkpoint rejected: fault-engine " + why);
  };
  const auto read_node = [&] {
    const std::int64_t node = r.i64();
    if (node < 0 || node >= n_)
      throw reject("node " + std::to_string(node) + " outside [0, " +
                   std::to_string(n_) + ")");
    return static_cast<NodeId>(node);
  };
  const auto read_kind = [&] {
    const std::uint8_t kind = r.u8();
    if (kind >= kNumFaultKinds)
      throw reject("kind byte " + std::to_string(kind) + " names no kind");
    return static_cast<FaultKind>(kind);
  };
  windows_.clear();
  const std::size_t num_windows = r.length(33);
  windows_.reserve(num_windows);
  for (std::size_t i = 0; i < num_windows; ++i) {
    Window win;
    win.node = read_node();
    win.kind = read_kind();
    win.from = r.i64();
    win.to = r.i64();
    const std::int64_t label = r.i64();
    if (win.from < 1)
      throw reject("window starts at slot " + std::to_string(win.from));
    if (win.kind == FaultKind::Babble ? label < 0 || label >= c_
                                      : label != kNoChannel)
      throw reject(to_string(win.kind) + " window holds label " +
                   std::to_string(label));
    win.label = static_cast<LocalLabel>(label);
    windows_.push_back(win);
  }
  for (std::int64_t& count : injected_) count = r.i64();
  log_.clear();
  const std::size_t num_events = r.length(17);
  log_.reserve(num_events);
  for (std::size_t i = 0; i < num_events; ++i) {
    FaultEvent e;
    e.slot = r.i64();
    e.node = read_node();
    e.kind = read_kind();
    e.onset = r.boolean();
    log_.push_back(e);
  }
  last_burst_end_ = r.i64();
}

std::string FaultEngine::serialize_schedule() const {
  std::ostringstream os;
  for (const Window& w : windows_) {
    os << "node=" << w.node << " kind=" << to_string(w.kind)
       << " from=" << w.from << " to=" << w.to;
    if (w.kind == FaultKind::Babble) os << " label=" << w.label;
    os << "\n";
  }
  return os.str();
}

}  // namespace cogradio
