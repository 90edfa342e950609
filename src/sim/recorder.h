// Execution recording and deterministic-replay verification.
//
// Every randomized component in cogradio draws from seeded generators, so
// a (configuration, seed) pair must reproduce an execution bit for bit.
// The recorder makes that property *checkable* and gives experiments a
// portable artifact: it attaches to a Network as its slot observer and
// logs one line per participating node per slot:
//
//   slot node mode channel jammed success
//
// The log can be written out in that text form (`cograd record`), diffed
// and fingerprinted. `verify_replay` runs a workload twice and reports
// whether the two logs are identical — used by the test suite to pin the
// determinism guarantee down for every protocol in the repository.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "sim/network.h"

namespace cogradio {

struct RecordedAction {
  Slot slot = 0;
  NodeId node = kNoNode;
  Mode mode = Mode::Idle;
  Channel channel = kNoChannel;
  bool jammed = false;
  bool tx_success = false;

  bool operator==(const RecordedAction&) const = default;
};

class ExecutionRecorder {
 public:
  // Attaches to a Network or a MultihopNetwork as its slot observer
  // (replacing any existing one). Idle nodes are skipped unless
  // record_idle is true. The multi-hop engine logs the same schema
  // (tx_success is always false there).
  template <class Engine>
  void attach(Engine& network, bool record_idle = false) {
    record_idle_ = record_idle;
    network.set_observer(
        [this](Slot slot, std::span<const ResolvedAction> actions) {
          record(slot, actions);
        });
  }

  // Logs one slot's resolved actions: the observer attach() installs.
  void record(Slot slot, std::span<const ResolvedAction> actions);

  const std::vector<RecordedAction>& log() const { return log_; }
  std::size_t size() const { return log_.size(); }
  void clear() { log_.clear(); }

  // 64-bit FNV-1a fingerprint of the log; equal logs -> equal fingerprints.
  std::uint64_t fingerprint() const;

  // One action per line: "slot node mode channel jammed success".
  std::string serialize() const;

  // First index at which two logs differ, or -1 if identical (length
  // mismatch counts as a difference at the shorter length).
  static std::ptrdiff_t first_divergence(
      const std::vector<RecordedAction>& a,
      const std::vector<RecordedAction>& b);

 private:
  bool record_idle_ = false;
  std::vector<RecordedAction> log_;
};

// Runs `workload` twice (it must build + run a network against the
// recorder it is handed) and returns true iff the logs match exactly.
bool verify_replay(
    const std::function<void(ExecutionRecorder&)>& workload);

}  // namespace cogradio
