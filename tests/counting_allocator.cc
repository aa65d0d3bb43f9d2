#include "counting_allocator.h"

#include <atomic>
#include <cstdlib>
#include <new>

#include "util/pages.h"

// The array and sized forms of the standard library route through the
// plain and nothrow forms replaced here. The nothrow form is replaced too:
// std::stable_sort's buffer comes from it and goes back through the plain
// operator delete, and AddressSanitizer, which supplies any form not
// replaced here, would see its allocation freed with free().
namespace {
std::atomic<size_t> g_new_bytes{0};
}  // namespace

[[gnu::noinline]] void* operator new(size_t size,
                                     const std::nothrow_t&) noexcept {
  g_new_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

[[gnu::noinline]] void* operator new(size_t size) {
  if (void* p = operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}

// All out of line, so GCC does not see free() meet a new-expression's
// pointer after inlining (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace streamfreq::testing_alloc {

size_t NewBytes() { return g_new_bytes.load(std::memory_order_relaxed); }

size_t AllocatedBytes() { return NewBytes() + PageBuffer::AllocatedBytes(); }

}  // namespace streamfreq::testing_alloc
