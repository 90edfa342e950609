#include "util/huge_pages.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

namespace cogradio {

namespace {

std::size_t page_bytes() {
  static const auto bytes = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return bytes;
}

// The mapped length behind a request: whole pages.
std::size_t mapped_bytes(std::size_t bytes) {
  const std::size_t page = page_bytes();
  return (bytes + page - 1) / page * page;
}

}  // namespace

void* map_huge_pages(std::size_t bytes) {
  if (bytes > std::numeric_limits<std::size_t>::max() / 2)
    throw std::bad_alloc();
  const std::size_t length = mapped_bytes(bytes);
  // Over-map by one huge page so a 2 MiB boundary lies inside, then return
  // the unused head and tail.
  const std::size_t span = length + kHugePageBytes;
  void* raw = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t start =
      (base + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  const std::size_t head = start - base;
  const std::size_t tail = span - head - length;
  if (head != 0) munmap(raw, head);
  if (tail != 0) munmap(reinterpret_cast<void*>(start + length), tail);
  auto* p = reinterpret_cast<void*>(start);
#ifdef MADV_HUGEPAGE
  // Advice only: a refusal (THP off) leaves 4 KB pages, which hold the
  // same bytes.
  (void)madvise(p, length, MADV_HUGEPAGE);
#endif
  return p;
}

void unmap_huge_pages(void* p, std::size_t bytes) noexcept {
  munmap(p, mapped_bytes(bytes));
}

}  // namespace cogradio
