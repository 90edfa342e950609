#include "sim/recorder.h"

#include <algorithm>
#include <sstream>

namespace cogradio {

namespace {
char mode_code(Mode mode) {
  switch (mode) {
    case Mode::Listen: return 'L';
    case Mode::Broadcast: return 'B';
    case Mode::Idle: return 'I';
  }
  return '?';
}
}  // namespace

void ExecutionRecorder::record(Slot slot,
                               std::span<const ResolvedAction> actions) {
  for (const ResolvedAction& a : actions) {
    if (a.mode == Mode::Idle && !record_idle_) continue;
    log_.push_back(RecordedAction{slot, a.node, a.mode, a.channel, a.jammed,
                                  a.tx_success});
  }
}

std::uint64_t ExecutionRecorder::fingerprint() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (const RecordedAction& a : log_) {
    mix(static_cast<std::uint64_t>(a.slot));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(a.node)));
    mix(static_cast<std::uint64_t>(mode_code(a.mode)));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(a.channel)));
    mix(static_cast<std::uint64_t>((a.jammed ? 2 : 0) | (a.tx_success ? 1 : 0)));
  }
  return h;
}

std::string ExecutionRecorder::serialize() const {
  std::ostringstream os;
  for (const RecordedAction& a : log_)
    os << a.slot << ' ' << a.node << ' ' << mode_code(a.mode) << ' '
       << a.channel << ' ' << (a.jammed ? 1 : 0) << ' '
       << (a.tx_success ? 1 : 0) << '\n';
  return os.str();
}

std::ptrdiff_t ExecutionRecorder::first_divergence(
    const std::vector<RecordedAction>& a,
    const std::vector<RecordedAction>& b) {
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i)
    if (!(a[i] == b[i])) return static_cast<std::ptrdiff_t>(i);
  if (a.size() != b.size()) return static_cast<std::ptrdiff_t>(common);
  return -1;
}

bool verify_replay(
    const std::function<void(ExecutionRecorder&)>& workload) {
  ExecutionRecorder first, second;
  workload(first);
  workload(second);
  return ExecutionRecorder::first_divergence(first.log(), second.log()) == -1;
}

}  // namespace cogradio
