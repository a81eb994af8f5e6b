// Heap-allocation counts, taken from outside the program.
//
// The traced binary (and the self-test) link alloc_counting.cc, which
// replaces the global operator new/delete with counting versions; the
// binary that takes end-to-end numbers links alloc_off.cc and keeps the
// plain allocator. Counts are per thread, so a serial run measured on the
// main thread gets exact figures no matter what other threads do.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

/// True when the counting allocator is linked in.
bool alloc_counting_enabled();

/// Allocations made by the calling thread so far.
AllocCount thread_alloc_count();

}  // namespace perfbench
