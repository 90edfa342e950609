#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double clock_read_ns() {
  // The median gap between two back-to-back reads: what a timed call
  // with nothing inside it would measure.
  static const double cost = [] {
    std::vector<double> gaps(20001);
    for (double& gap : gaps) {
      const std::int64_t t0 = now_ns();
      gap = static_cast<double>(now_ns() - t0);
    }
    return median(gaps);
  }();
  return cost;
}

Percentile percentile(std::vector<double> values, double q) {
  Percentile p;
  p.samples = static_cast<std::int64_t>(values.size());
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<std::int64_t>(values.size());
  std::int64_t rank =
      static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::int64_t>(rank, 1, n);
  p.value = values[static_cast<std::size_t>(rank - 1)];
  p.beyond = n - rank;
  return p;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

Percentile chunked_percentile(const std::vector<double>& series, double q) {
  const auto need = static_cast<std::size_t>(
      std::ceil(static_cast<double>(kMinBeyond) / (1.0 - q)));
  const std::size_t chunks = std::max<std::size_t>(series.size() / need, 1);
  std::vector<double> values;
  Percentile out;
  out.samples = static_cast<std::int64_t>(series.size());
  out.beyond = out.samples;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = series.size() * c / chunks;
    const std::size_t hi = series.size() * (c + 1) / chunks;
    const Percentile p = percentile(
        std::vector<double>(series.begin() + static_cast<std::ptrdiff_t>(lo),
                            series.begin() + static_cast<std::ptrdiff_t>(hi)),
        q);
    values.push_back(p.value);
    out.beyond = std::min(out.beyond, p.beyond);
  }
  out.value = median(values);
  return out;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::int64_t self_time(const Span& parent, std::vector<Span> children) {
  for (Span& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  std::int64_t covered = 0;
  std::int64_t run_start = 0;
  std::int64_t run_end = 0;
  bool open = false;
  for (const Span& c : children) {
    if (c.end <= c.start) continue;
    if (open && c.start <= run_end) {
      run_end = std::max(run_end, c.end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = c.start;
    run_end = c.end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return (parent.end - parent.start) - covered;
}

void Lane::begin_at(int name, std::int64_t start, std::int64_t request) {
  int kept = -1;
  if (spans_.size() < cap_) {
    Span s;
    s.name = name;
    s.start = start;
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request;
    kept = static_cast<int>(spans_.size());
    spans_.push_back(s);
  }
  open_.push_back(kept);
}

void Lane::end_at(std::int64_t end) {
  const int kept = open_.back();
  open_.pop_back();
  if (kept >= 0) spans_[static_cast<std::size_t>(kept)].end = end;
}

void Lane::record(int name, std::int64_t start, std::int64_t end,
                  std::int64_t request) {
  begin_at(name, start, request);
  end_at(end);
}

Tracer::Tracer(bool enabled, std::vector<std::string> names)
    : enabled_(enabled), names_(std::move(names)) {}

Lane* Tracer::lane() {
  if (!enabled_) return nullptr;
  // One cache slot per thread and tracer: a thread that outlives one
  // tracer and meets the next (the sweep pool's threads do) re-registers.
  thread_local const Tracer* owner = nullptr;
  thread_local Lane* mine = nullptr;
  if (owner == this && mine != nullptr) return mine;
  std::lock_guard<std::mutex> lock(mutex_);
  lanes_.push_back(
      std::make_unique<Lane>(static_cast<int>(lanes_.size()), std::size_t{1} << 16));
  owner = this;
  mine = lanes_.back().get();
  return mine;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "lane\tindex\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\n";
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& lane : lanes_) {
    const std::vector<Span>& spans = lane->spans();
    std::vector<std::vector<Span>> children(spans.size());
    for (const Span& s : spans)
      if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].push_back(s);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << lane->id() << '\t' << i << '\t' << s.parent << '\t' << s.request
          << '\t' << names_[static_cast<std::size_t>(s.name)] << '\t'
          << s.start << '\t' << s.end << '\t' << self_time(s, children[i])
          << '\n';
    }
  }
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
