// Plain allocator: the end-to-end binary counts nothing.
#include "alloc.h"

namespace perfbench {

bool alloc_counting_enabled() { return false; }

AllocCount thread_alloc_count() { return {}; }

}  // namespace perfbench
