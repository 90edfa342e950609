#include "sim/checkpoint.h"

#include <bit>
#include <fstream>
#include <sstream>

#include "util/atomic_file.h"

namespace cogradio {

namespace {

constexpr char kMagic[8] = {'c', 'o', 'g', 'c', 'k', 'p', 't', '\n'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8;

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint32_t read_u32(const std::string& in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(in[at + static_cast<std::size_t>(i)]))
         << (8 * i);
  return v;
}

std::uint64_t read_u64(const std::string& in, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(in[at + static_cast<std::size_t>(i)]))
         << (8 * i);
  return v;
}

}  // namespace

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// --- CheckpointWriter -----------------------------------------------------

void CheckpointWriter::u32(std::uint32_t v) { append_u32(buf_, v); }

void CheckpointWriter::u64(std::uint64_t v) { append_u64(buf_, v); }

void CheckpointWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void CheckpointWriter::str(const std::string& s) {
  u64(s.size());
  buf_ += s;
}

void CheckpointWriter::rng(const Rng& r) {
  for (const std::uint64_t word : r.save()) u64(word);
}

// --- CheckpointReader -----------------------------------------------------

void CheckpointReader::need(std::size_t n) const {
  if (buf_.size() - pos_ < n)
    throw CheckpointError(
        "checkpoint payload truncated: need " + std::to_string(n) +
        " byte(s) at offset " + std::to_string(pos_) + " of " +
        std::to_string(buf_.size()));
}

std::uint8_t CheckpointReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(buf_[pos_++]);
}

std::uint32_t CheckpointReader::u32() {
  need(4);
  const std::uint32_t v = read_u32(buf_, pos_);
  pos_ += 4;
  return v;
}

std::uint64_t CheckpointReader::u64() {
  need(8);
  const std::uint64_t v = read_u64(buf_, pos_);
  pos_ += 8;
  return v;
}

double CheckpointReader::f64() { return std::bit_cast<double>(u64()); }

std::string CheckpointReader::str() {
  const std::uint64_t len = u64();
  need(len);
  std::string s = buf_.substr(pos_, len);
  pos_ += len;
  return s;
}

void CheckpointReader::rng(Rng& r) {
  std::array<std::uint64_t, 4> state{};
  for (std::uint64_t& word : state) word = u64();
  if ((state[0] | state[1] | state[2] | state[3]) == 0)
    throw CheckpointError(
        "checkpoint corrupt: all-zero RNG state (xoshiro fixed point)");
  r.restore(state);
}

void CheckpointReader::section(const char (&tag)[5]) {
  need(4);
  if (buf_.compare(pos_, 4, tag, 4) != 0)
    throw CheckpointError("checkpoint section mismatch at offset " +
                          std::to_string(pos_) + ": expected '" +
                          std::string(tag, 4) + "', found '" +
                          buf_.substr(pos_, 4) + "'");
  pos_ += 4;
}

std::size_t CheckpointReader::length(std::size_t element_bytes) {
  const std::uint64_t n = u64();
  const std::size_t min_bytes = element_bytes == 0 ? 1 : element_bytes;
  if (n > (buf_.size() - pos_) / min_bytes)
    throw CheckpointError(
        "checkpoint corrupt: declared element count " + std::to_string(n) +
        " exceeds the remaining payload at offset " + std::to_string(pos_));
  return static_cast<std::size_t>(n);
}

void CheckpointReader::expect_end() const {
  if (pos_ != buf_.size())
    throw CheckpointError("checkpoint corrupt: " +
                          std::to_string(buf_.size() - pos_) +
                          " trailing byte(s) after the final section");
}

// --- file header ----------------------------------------------------------

std::string seal_checkpoint(const std::string& payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  out.append(kMagic, sizeof(kMagic));
  append_u32(out, kCheckpointSchema);
  append_u64(out, payload.size());
  append_u64(out, fnv1a64(payload));
  out += payload;
  return out;
}

std::string open_checkpoint(const std::string& file_bytes) {
  if (file_bytes.size() < kHeaderBytes)
    throw CheckpointError("checkpoint rejected: " +
                          std::to_string(file_bytes.size()) +
                          " byte(s) is shorter than the " +
                          std::to_string(kHeaderBytes) + "-byte header");
  if (file_bytes.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0)
    throw CheckpointError(
        "checkpoint rejected: bad magic (not a cogradio checkpoint)");
  const std::uint32_t schema = read_u32(file_bytes, 8);
  if (schema != kCheckpointSchema)
    throw CheckpointError("checkpoint rejected: schema " +
                          std::to_string(schema) + ", this binary writes " +
                          std::to_string(kCheckpointSchema));
  const std::uint64_t declared = read_u64(file_bytes, 12);
  if (file_bytes.size() - kHeaderBytes != declared)
    throw CheckpointError(
        "checkpoint rejected: header declares " + std::to_string(declared) +
        " payload byte(s), file carries " +
        std::to_string(file_bytes.size() - kHeaderBytes) +
        " (truncated or padded)");
  const std::uint64_t checksum = read_u64(file_bytes, 20);
  std::string payload = file_bytes.substr(kHeaderBytes);
  if (fnv1a64(payload) != checksum)
    throw CheckpointError(
        "checkpoint rejected: content checksum mismatch (bit flip or "
        "partial write)");
  return payload;
}

void save_checkpoint_file(const std::string& path,
                          const std::string& payload) {
  if (!write_file_atomic(path, seal_checkpoint(payload)))
    throw CheckpointError("checkpoint write failed: " + path);
}

std::string load_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw CheckpointError("checkpoint unreadable: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof())
    throw CheckpointError("checkpoint read failed: " + path);
  return open_checkpoint(buffer.str());
}

// --- shared sub-records ---------------------------------------------------

void save_trace_stats(CheckpointWriter& w, const TraceStats& stats) {
  w.section("stat");
  for (const auto counter : kTraceStatsCounters) w.i64(stats.*counter);
}

TraceStats load_trace_stats(CheckpointReader& r) {
  r.section("stat");
  TraceStats stats;
  for (const auto counter : kTraceStatsCounters) stats.*counter = r.i64();
  return stats;
}

void save_message(CheckpointWriter& w, const Message& msg) {
  w.u8(static_cast<std::uint8_t>(msg.type));
  w.i64(msg.sender);
  w.i64(msg.r);
  w.i64(msg.a);
  save_agg_payload(w, msg.payload);
}

Message load_message(CheckpointReader& r) {
  Message msg;
  msg.type = static_cast<MessageType>(r.u8());
  msg.sender = static_cast<NodeId>(r.i64());
  msg.r = r.i64();
  msg.a = r.i64();
  msg.payload = load_agg_payload(r);
  return msg;
}

void save_agg_payload(CheckpointWriter& w, const AggPayload& payload) {
  w.i64(payload.combined);
  w.i64(payload.count);
  w.u64(payload.items.size());
  for (const auto& [node, value] : payload.items) {
    w.i64(node);
    w.i64(value);
  }
}

AggPayload load_agg_payload(CheckpointReader& r) {
  AggPayload payload;
  payload.combined = r.i64();
  payload.count = r.i64();
  const std::size_t items = r.length(16);
  payload.items.reserve(items);
  for (std::size_t i = 0; i < items; ++i) {
    const NodeId node = static_cast<NodeId>(r.i64());
    const Value value = r.i64();
    payload.items.emplace_back(node, value);
  }
  return payload;
}

}  // namespace cogradio
