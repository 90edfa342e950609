// Checks the benchmark's own arithmetic on synthetic inputs: span self
// time, the percentile/sample-count rule and the digest. Exits nonzero
// if any check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "measure.h"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

Span span(std::int64_t start, std::int64_t end) {
  Span s;
  s.start = start;
  s.end = end;
  return s;
}

void self_time_cases() {
  const Span parent = span(0, 100);
  expect(self_time(parent, {}) == 100, "no children: self = duration");
  expect(self_time(parent, {span(10, 20), span(30, 50)}) == 70,
         "disjoint children are subtracted");
  expect(self_time(parent, {span(10, 40), span(30, 60)}) == 50,
         "overlapping children are counted once");
  expect(self_time(parent, {span(10, 60), span(20, 30)}) == 50,
         "a child nested in a sibling adds nothing");
  expect(self_time(parent, {span(-20, 10), span(90, 150)}) == 80,
         "children are clipped to the parent");
  expect(self_time(parent, {span(40, 60), span(10, 20), span(15, 45)}) == 50,
         "unsorted children");
  expect(self_time(parent, {span(0, 100)}) == 0, "a child covering everything");

  // A lane records parents from its nesting; past its cap it keeps
  // nothing but still balances begin/end.
  Lane lane(0, 3);
  lane.begin_at(0, 0);
  lane.record(1, 10, 30);
  lane.record(1, 40, 45);
  lane.record(1, 50, 60);  // over the cap
  lane.end_at(100);
  const std::vector<Span>& spans = lane.spans();
  expect(spans.size() == 3, "lane keeps at most its cap");
  expect(spans[0].parent == -1 && spans[1].parent == 0 && spans[2].parent == 0,
         "lane parents");
  expect(spans[0].end == 100 && spans[2].start == 40 && spans[2].end == 45,
         "lane intervals");
  expect(self_time(spans[0], {spans[1], spans[2]}) == 75,
         "self time of a lane's span");
}

void percentile_cases() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Percentile p99 = percentile(v, 0.99);
  expect(p99.value == 990 && p99.beyond == 10 && p99.supported(),
         "p99 of 1000 samples has exactly 10 beyond it");
  v.pop_back();
  const Percentile short99 = percentile(v, 0.99);
  expect(!short99.supported() && short99.beyond == 9,
         "p99 of 999 samples lacks support");
  const Percentile p50 = percentile({5, 1, 3}, 0.5);
  expect(p50.value == 3 && p50.beyond == 1 && !p50.supported(),
         "p50 of 3 samples is the middle one, unsupported");
  expect(percentile({}, 0.5).samples == 0 && !percentile({}, 0.5).supported(),
         "empty input is unsupported");
  expect(median({4, 1, 3, 2}) == 2.5 && median({3, 1, 2}) == 2,
         "median of even and odd counts");

  // 5000 samples: five chunks of 1000, each supporting its own p99; a
  // stall fills the first chunk's tail.
  std::vector<double> series(5000, 1.0);
  for (int i = 0; i < 200; ++i) series[static_cast<std::size_t>(i)] = 100.0;
  const Percentile chunked = chunked_percentile(series, 0.99);
  expect(chunked.samples == 5000 && chunked.beyond == 10 && chunked.supported(),
         "chunked p99 keeps every chunk supported");
  expect(chunked.value == 1.0 && percentile(series, 0.99).value == 100.0,
         "a stall confined to one chunk moves that chunk only");
  const Percentile few = chunked_percentile(std::vector<double>(999, 1.0), 0.99);
  expect(!few.supported() && few.samples == 999,
         "too short for even one supported chunk");
}

void digest_cases() {
  Digest a, b;
  a.i64(1);
  a.str("x");
  b.i64(1);
  b.str("x");
  expect(a.value() == b.value() && a.hex().size() == 16, "digest is a pure function");
  b.i64(0);
  expect(a.value() != b.value(), "digest sees every value");
}

}  // namespace

int main() {
  self_time_cases();
  percentile_cases();
  digest_cases();
  if (failures > 0) return 1;
  std::printf("perfbench selftest: ok\n");
  return 0;
}
