// Counting global operator new/delete. Linked only into the traced binary
// and the self-test, never into the binary that takes end-to-end numbers.
#include <cstdlib>
#include <new>

#include "alloc.h"

namespace {

thread_local std::uint64_t t_calls = 0;
thread_local std::uint64_t t_bytes = 0;

void* counted(std::size_t size) {
  ++t_calls;
  t_bytes += size;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned(std::size_t size, std::align_val_t align) {
  ++t_calls;
  t_bytes += size;
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  return std::aligned_alloc(a, rounded == 0 ? a : rounded);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench {

bool alloc_counting_enabled() { return true; }

AllocCount thread_alloc_count() { return {t_calls, t_bytes}; }

}  // namespace perfbench

void* operator new(std::size_t size) { return or_throw(counted(size)); }
void* operator new[](std::size_t size) { return or_throw(counted(size)); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return or_throw(counted_aligned(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return or_throw(counted_aligned(size, align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
