// Heap allocation counter for the benches' steady-state probes (E18,
// E35). alloc_count.cpp replaces the global operator new/delete pairs,
// the one portable way to observe every heap allocation the slot engine
// makes, including those inside standard containers; a bench links it to
// count its whole process.
#pragma once

#include <cstdint>

namespace cogradio::bench {

// Heap allocations made by the process so far, on any thread.
std::uint64_t allocation_count();

}  // namespace cogradio::bench
