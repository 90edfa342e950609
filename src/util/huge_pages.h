// An allocator that puts large arrays on transparent huge pages.
//
// A 2^20-node fleet's label table (64 MB), activity ledger (40 MB) and
// per-node arrays touch a few scattered lines per active node each slot.
// On 4 KB pages nearly every such touch also misses the TLB; on 2 MiB
// pages the whole working set fits the TLB's reach.
//
// HugePageAllocator<T> backs a request of at least kHugePageBytes with a
// private anonymous mapping that starts on a 2 MiB boundary and is advised
// (madvise) to use huge pages before anything touches it; smaller requests
// go to std::allocator. The mapping is the request rounded up to whole
// 4 KB pages, so only the 2 MiB extents that lie wholly inside the array
// can become huge pages, and resident memory never exceeds what 4 KB
// pages would hold. When the kernel refuses the advice (THP set to `never`), or
// the platform has no such advice, the pages simply stay 4 KB: the
// contents, and everything computed from them, are the same either way.
//
// Use it only for arrays that are filled end to end. A reserve-only
// buffer touches a prefix, and a 2 MiB page would make resident the part
// a 4 KB layout never touches.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <new>
#include <vector>

namespace cogradio {

inline constexpr std::size_t kHugePageBytes = std::size_t{1} << 21;

// Maps `bytes` (>= kHugePageBytes) starting on a 2 MiB boundary, advised
// to use huge pages; throws std::bad_alloc when the mapping fails.
void* map_huge_pages(std::size_t bytes);
// Unmaps what map_huge_pages(bytes) returned.
void unmap_huge_pages(void* p, std::size_t bytes) noexcept;

template <typename T>
class HugePageAllocator {
 public:
  using value_type = T;

  HugePageAllocator() = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) noexcept {}

  T* allocate(std::size_t count) {
    if (count > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_array_new_length();
    const std::size_t bytes = count * sizeof(T);
    if (bytes < kHugePageBytes) return std::allocator<T>().allocate(count);
    return static_cast<T*>(map_huge_pages(bytes));
  }

  void deallocate(T* p, std::size_t count) noexcept {
    const std::size_t bytes = count * sizeof(T);
    if (bytes < kHugePageBytes)
      std::allocator<T>().deallocate(p, count);
    else
      unmap_huge_pages(p, bytes);
  }

  template <typename U>
  bool operator==(const HugePageAllocator<U>&) const noexcept {
    return true;
  }
};

template <typename T>
using HugePageVector = std::vector<T, HugePageAllocator<T>>;

}  // namespace cogradio
