// Versioned, checksummed snapshot/restore of simulation state.
//
// A checkpoint is a flat byte payload assembled by CheckpointWriter from
// fixed-width little-endian primitives, wrapped by seal_checkpoint() in a
// self-describing header:
//
//   magic "cogckpt\n" | schema u32 | payload size u64 | FNV-1a-64 checksum
//   | payload bytes
//
// open_checkpoint() validates every header field before a single payload
// byte is interpreted and throws CheckpointError on any mismatch — a
// truncated, bit-flipped, or foreign-schema file is rejected loudly, never
// half-loaded. CheckpointReader bounds-checks every read, so even a
// payload corrupted *with* a forged checksum cannot read out of bounds.
//
// What a snapshot contains is defined by the components, each serializing
// its complete cross-slot state behind a section tag (Network, FaultEngine,
// jammers, protocol nodes, the supervisor cursor); per-slot scratch is
// excluded by construction because snapshots are taken at slot boundaries.
// The contract proven by the proptest resume differential and the ctest
// resume-equivalence legs: restore(snapshot(slot s)) continued to
// completion is bit-identical to the uninterrupted run, for every --jobs
// value (docs/DETERMINISM.md, "Checkpoint format and the resume-equivalence
// contract").
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/message.h"
#include "sim/trace.h"
#include "sim/types.h"
#include "util/rng.h"

namespace cogradio {

// Bumped whenever the payload layout of any section changes; open_
// checkpoint rejects files from any other schema (no migration — a
// checkpoint is a short-lived artifact of one binary, not an archive).
inline constexpr std::uint32_t kCheckpointSchema = 2;

// Every validation or decode failure surfaces as this exception; CLI
// surfaces turn it into a nonzero exit with the diagnostic.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// FNV-1a 64-bit content hash used as the header checksum.
std::uint64_t fnv1a64(const std::string& bytes);

// Append-only encoder of the payload byte stream.
class CheckpointWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s);
  void rng(const Rng& r);
  // Four-character section tag; the reader's matching section() call turns
  // a misaligned or mismatched stream into a named diagnostic instead of
  // garbage field values.
  void section(const char (&tag)[5]) { buf_.append(tag, 4); }

  const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

// Bounds-checked decoder; throws CheckpointError on any out-of-bounds
// read, section mismatch, or trailing garbage.
class CheckpointReader {
 public:
  explicit CheckpointReader(std::string bytes) : buf_(std::move(bytes)) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool boolean() { return u8() != 0; }
  std::string str();
  void rng(Rng& r);
  void section(const char (&tag)[5]);

  // Vector-length guard: counts are attacker-controlled bytes, so cap them
  // by what the remaining payload could possibly hold before resizing.
  std::size_t length(std::size_t element_bytes);

  bool exhausted() const { return pos_ == buf_.size(); }
  // Every restore path ends with this: trailing bytes mean the payload was
  // produced by a different component composition and must not pass.
  void expect_end() const;

 private:
  void need(std::size_t n) const;

  std::string buf_;
  std::size_t pos_ = 0;
};

// --- file header ----------------------------------------------------------

// Wraps a payload in the validated header described above.
std::string seal_checkpoint(const std::string& payload);

// Validates magic, schema, declared size, and checksum; returns the
// payload or throws CheckpointError naming what failed.
std::string open_checkpoint(const std::string& file_bytes);

// seal + crash-consistent write via util/atomic_file (tmp + fsync +
// rename + parent-dir fsync); throws CheckpointError on I/O failure.
void save_checkpoint_file(const std::string& path, const std::string& payload);

// Reads `path` and returns the validated payload; throws CheckpointError
// on a missing, unreadable, or invalid file.
std::string load_checkpoint_file(const std::string& path);

// --- shared sub-records ---------------------------------------------------

void save_trace_stats(CheckpointWriter& w, const TraceStats& stats);
TraceStats load_trace_stats(CheckpointReader& r);

void save_message(CheckpointWriter& w, const Message& msg);
Message load_message(CheckpointReader& r);

void save_agg_payload(CheckpointWriter& w, const AggPayload& payload);
AggPayload load_agg_payload(CheckpointReader& r);

}  // namespace cogradio
