// Forwarding wrappers the traced run hands the engine in place of the
// real assignment, jammer and protocol nodes. They time and count the
// calls that cross each layer boundary without touching the program:
//
//   * TracedAssignment — Network calls begin_slot exactly once at the top
//     of every step, so its calls delimit the per-slot spans; it also
//     counts global_channel calls (the label snapshot at construction and,
//     for dynamic assignments, one per active node-slot);
//   * TracedJammer — counts is_jammed calls and times begin_slot;
//   * TracedNode — counts Protocol callbacks.
//
// A clock read costs about as much as a fraction of one active
// node-slot, so per-node calls are timed only every kSampleEvery-th call,
// corrected by the measured cost of a clock read, and scaled up; per-slot
// calls are timed every time.
#pragma once

#include <cstdint>

#include "measure.h"
#include "sim/assignment.h"
#include "sim/network.h"
#include "sim/protocol.h"

namespace perfbench {

inline constexpr int kSampleEvery = 16;

// Call counts and timings of one trial (or one fleet window), all on the
// trial's own thread.
struct LayerProbe {
  Lane* lane = nullptr;
  int slot_name = -1;  // span names: indices into the Tracer's name list
  int assign_begin_name = -1;
  int jam_begin_name = -1;

  std::int64_t callbacks = 0;
  std::int64_t callback_samples = 0;
  double callback_sampled_ns = 0;
  std::int64_t gc_calls = 0;
  std::int64_t gc_samples = 0;
  double gc_sampled_ns = 0;
  std::int64_t jam_calls = 0;
  std::int64_t jam_samples = 0;
  double jam_sampled_ns = 0;
  double assign_begin_ns = 0;
  double jam_begin_ns = 0;

  // Slot boundaries and engine allocations. Allocations inside wrapped
  // calls belong to the wrapped layer, not to the engine.
  cogradio::Slot slots_begun = 0;
  std::int64_t slot_open_at = -1;
  std::uint64_t nested_allocs = 0;
  std::uint64_t steady_base = 0;  // engine allocs at the top of slot 2
  bool steady_started = false;
  std::uint64_t steady_total = 0;  // summed over finished runs
  std::vector<double>* slot_us = nullptr;  // per-slot durations, optional

  std::uint64_t engine_allocs() const { return thread_allocs() - nested_allocs; }

  // Resets the per-run state before a runner starts stepping.
  void start_run() {
    slots_begun = 0;
    slot_open_at = -1;
    steady_started = false;
  }
  void slot_boundary() {
    const std::int64_t t = now_ns();
    close_slot(t);
    ++slots_begun;
    if (slots_begun == 2) {
      steady_base = engine_allocs();
      steady_started = true;
    }
    slot_open_at = t;
    const std::uint64_t a0 = thread_allocs();
    if (lane != nullptr) lane->begin_at(slot_name, t);
    nested_allocs += thread_allocs() - a0;
  }
  // Ends the open slot span and books the run's steady-state engine
  // allocations (the runner calls this when run() returns).
  void finish_run(std::int64_t t) {
    close_slot(t);
    if (steady_started) steady_total += engine_allocs() - steady_base;
    steady_started = false;
  }
  void close_slot(std::int64_t t) {
    if (slot_open_at < 0) return;
    const std::uint64_t a0 = thread_allocs();
    if (slot_us != nullptr)
      slot_us->push_back(static_cast<double>(t - slot_open_at) * 1e-3);
    if (lane != nullptr) lane->end_at(t);
    nested_allocs += thread_allocs() - a0;
    slot_open_at = -1;
  }

  double callback_ns() const { return scaled(callback_sampled_ns, callbacks, callback_samples); }
  double gc_ns() const { return scaled(gc_sampled_ns, gc_calls, gc_samples); }
  double jam_ns() const { return scaled(jam_sampled_ns, jam_calls, jam_samples); }

  static double scaled(double sampled_ns, std::int64_t calls, std::int64_t samples) {
    return samples > 0 ? sampled_ns * static_cast<double>(calls) /
                             static_cast<double>(samples)
                       : 0.0;
  }
};

// Times `fn` when `count` hits a sample point; returns fn's result.
template <typename Fn>
auto sampled_call(std::int64_t& count, std::int64_t& samples, double& ns,
                  Fn&& fn) {
  if (++count % kSampleEvery != 0) return fn();
  const std::int64_t t0 = now_ns();
  auto result = fn();
  ns += static_cast<double>(now_ns() - t0) - clock_read_ns();
  ++samples;
  return result;
}

class TracedAssignment : public cogradio::ChannelAssignment {
 public:
  TracedAssignment(cogradio::ChannelAssignment& inner, LayerProbe& probe)
      : ChannelAssignment(inner.num_nodes(), inner.channels_per_node(),
                          inner.min_overlap(), inner.total_channels()),
        inner_(inner),
        probe_(probe) {}

  bool is_dynamic() const override { return inner_.is_dynamic(); }

  void begin_slot(cogradio::Slot slot) override {
    probe_.slot_boundary();
    const std::uint64_t a0 = thread_allocs();
    const std::int64_t t0 = now_ns();
    inner_.begin_slot(slot);
    const std::int64_t t1 = now_ns();
    probe_.assign_begin_ns += static_cast<double>(t1 - t0);
    if (probe_.lane != nullptr) probe_.lane->record(probe_.assign_begin_name, t0, t1);
    probe_.nested_allocs += thread_allocs() - a0;
  }

  cogradio::Channel global_channel(cogradio::NodeId node,
                                   cogradio::LocalLabel label) const override {
    return sampled_call(probe_.gc_calls, probe_.gc_samples, probe_.gc_sampled_ns,
                        [&] { return inner_.global_channel(node, label); });
  }

 private:
  cogradio::ChannelAssignment& inner_;
  LayerProbe& probe_;
};

class TracedJammer : public cogradio::Jammer {
 public:
  TracedJammer(cogradio::Jammer& inner, LayerProbe& probe)
      : inner_(inner), probe_(probe) {}

  void begin_slot(cogradio::Slot slot) override {
    const std::uint64_t a0 = thread_allocs();
    const std::int64_t t0 = now_ns();
    inner_.begin_slot(slot);
    const std::int64_t t1 = now_ns();
    probe_.jam_begin_ns += static_cast<double>(t1 - t0);
    if (probe_.lane != nullptr) probe_.lane->record(probe_.jam_begin_name, t0, t1);
    probe_.nested_allocs += thread_allocs() - a0;
  }
  bool is_jammed(cogradio::NodeId node, cogradio::Channel channel) const override {
    return sampled_call(probe_.jam_calls, probe_.jam_samples,
                        probe_.jam_sampled_ns,
                        [&] { return inner_.is_jammed(node, channel); });
  }
  void observe(cogradio::Slot slot,
               std::span<const cogradio::Channel> node_channels) override {
    const std::uint64_t a0 = thread_allocs();
    inner_.observe(slot, node_channels);
    probe_.nested_allocs += thread_allocs() - a0;
  }
  void save_state(cogradio::CheckpointWriter& w) const override { inner_.save_state(w); }
  void restore_state(cogradio::CheckpointReader& r) override { inner_.restore_state(r); }

 private:
  cogradio::Jammer& inner_;
  LayerProbe& probe_;
};

class TracedNode : public cogradio::Protocol {
 public:
  TracedNode(cogradio::Protocol& inner, LayerProbe& probe)
      : inner_(inner), probe_(probe) {}

  cogradio::Action on_slot(cogradio::Slot slot) override {
    const std::uint64_t a0 = thread_allocs();
    cogradio::Action a = sampled_call(probe_.callbacks, probe_.callback_samples,
                                      probe_.callback_sampled_ns,
                                      [&] { return inner_.on_slot(slot); });
    probe_.nested_allocs += thread_allocs() - a0;
    return a;
  }
  void on_feedback(cogradio::Slot slot,
                   const cogradio::SlotResult& result) override {
    const std::uint64_t a0 = thread_allocs();
    sampled_call(probe_.callbacks, probe_.callback_samples,
                 probe_.callback_sampled_ns, [&] {
                   inner_.on_feedback(slot, result);
                   return 0;
                 });
    probe_.nested_allocs += thread_allocs() - a0;
  }
  bool done() const override {
    return sampled_call(probe_.callbacks, probe_.callback_samples,
                        probe_.callback_sampled_ns,
                        [&] { return inner_.done(); });
  }

 private:
  cogradio::Protocol& inner_;
  LayerProbe& probe_;
};

}  // namespace perfbench
