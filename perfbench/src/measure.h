// Measurement arithmetic shared by every workload: clocks, the
// percentile/sample-count rule, the run digest and the span tracer.
// Everything here is pure bookkeeping over numbers the workloads hand in,
// so selftest.cpp can check it on synthetic inputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// Cost of one steady_clock read, measured once at start-up; sampled
// per-node timings subtract it so the tracer does not bill its own clock
// reads to the layer it wraps.
double clock_read_ns();

// --- Percentiles --------------------------------------------------------

// A nearest-rank percentile with its support: `beyond` is the number of
// samples ranked above it. The rule the benchmark prints by: a
// percentile counts only when at least kMinBeyond samples lie beyond it.
inline constexpr std::int64_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  std::int64_t samples = 0;
  std::int64_t beyond = 0;
  bool supported() const { return samples > 0 && beyond >= kMinBeyond; }
};

// q in (0, 1]; sorts a copy of `values`.
Percentile percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

// A steadier percentile of an in-order series: split it into consecutive
// chunks, each just large enough to support the percentile on its own
// (1000 samples for a p99), and take the median of the chunks'
// percentiles. A scheduler stall then moves the few chunks it hits, not
// the answer. `samples` counts the whole series and `beyond` is the
// smallest chunk's support.
Percentile chunked_percentile(const std::vector<double>& series, double q);

// --- Digest -------------------------------------------------------------

// FNV-1a over the bytes of every value fed in, in order. Workloads feed
// only simulated outcomes (slot counts, TraceStats, result bytes), never
// timings, so the digest is a pure function of the workload's inputs.
class Digest {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    i64(static_cast<std::int64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// --- Spans --------------------------------------------------------------

struct Span {
  int name = 0;
  std::int64_t start = 0;  // ns, steady clock
  std::int64_t end = 0;
  int parent = -1;  // index into the same lane's span list; -1 = root
  std::int64_t request = -1;
};

// Self time of `parent`: its duration minus the part of it covered by the
// union of `children` (each clipped to the parent's interval), so nested
// and overlapping children are each counted once.
std::int64_t self_time(const Span& parent, std::vector<Span> children);

// One thread's spans, in begin order. Spans of one lane nest properly
// (begin/end pairs on one thread), so a span's parent is the innermost
// span open when it began. Past `cap` spans are no longer kept.
class Lane {
 public:
  Lane(int id, std::size_t cap) : id_(id), cap_(cap) {}

  void begin_at(int name, std::int64_t start, std::int64_t request = -1);
  void end_at(std::int64_t end);
  // A finished interval with no children, recorded after the fact.
  void record(int name, std::int64_t start, std::int64_t end,
              std::int64_t request = -1);

  int id() const { return id_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int id_;
  std::size_t cap_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // indices into spans_; -1 for an unkept span
};

// The traced run's span store: one lane per thread, kept in memory and
// written out once at exit. A disabled tracer hands out no lanes.
class Tracer {
 public:
  Tracer(bool enabled, std::vector<std::string> names);

  // The calling thread's lane (created on first use); nullptr when
  // tracing is off.
  Lane* lane();
  // Writes every kept span as TSV (lane, index, parent, request, name,
  // start_ns, end_ns, self_ns), self time from self_time(). Returns
  // false on IO failure.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<std::string> names_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Lane>> lanes_;  // guarded by mutex_
};

// --- Process ------------------------------------------------------------

double peak_rss_mb();

// Heap allocations made by the calling thread so far (alloc_count.cpp
// replaces the global operator new to count them).
std::uint64_t thread_allocs();

}  // namespace perfbench
