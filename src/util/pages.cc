#include "util/pages.h"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

namespace streamfreq {

namespace {

constexpr size_t kAlign = 64;

std::atomic<size_t> g_allocated_bytes{0};

size_t RoundUp(size_t n, size_t to) { return (n + to - 1) / to * to; }

size_t SystemPageBytes() {
  static const size_t page = [] {
    const long n = sysconf(_SC_PAGESIZE);
    return n > 0 ? static_cast<size_t>(n) : size_t{4096};
  }();
  return page;
}

Status AllocationError(const char* what, size_t bytes, int err) {
  return Status::IoError(std::string("PageBuffer: ") + what + " of " +
                         std::to_string(bytes) +
                         " bytes failed: " + std::strerror(err));
}

}  // namespace

Result<PageBuffer> PageBuffer::Allocate(size_t bytes, bool zero) {
  PageBuffer buf;
  if (bytes == 0) return buf;
  // Keeps every rounding below from wrapping.
  if (bytes > static_cast<size_t>(std::numeric_limits<ptrdiff_t>::max()) / 2) {
    return AllocationError("allocation", bytes, ENOMEM);
  }

  if (bytes < kMapThreshold) {
    void* p = std::aligned_alloc(kAlign, RoundUp(bytes, kAlign));
    if (p == nullptr) return AllocationError("aligned_alloc", bytes, ENOMEM);
    if (zero) std::memset(p, 0, bytes);
    g_allocated_bytes.fetch_add(bytes, std::memory_order_relaxed);
    buf.data_ = p;
    buf.size_ = bytes;
    return buf;
  }

  const size_t len = RoundUp(bytes, SystemPageBytes());
  const bool huge = bytes >= kHugePageBytes;
  // A huge mapping over-reserves one huge page so a 2 MiB-aligned start
  // exists inside it, then hands the unused head and tail back.
  const size_t reserve = huge ? len + kHugePageBytes : len;
  void* base = mmap(nullptr, reserve, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) return AllocationError("mmap", bytes, errno);
  char* start = static_cast<char*>(base);
  if (huge) {
    const uintptr_t at = reinterpret_cast<uintptr_t>(base);
    char* aligned = start + (RoundUp(at, kHugePageBytes) - at);
    const size_t head = static_cast<size_t>(aligned - start);
    const size_t tail = reserve - head - len;
    if (head > 0) munmap(start, head);
    if (tail > 0) munmap(aligned + len, tail);
    start = aligned;
#if defined(MADV_HUGEPAGE)
    // Best effort: without THP (or with it set to `never`) the pages
    // stay 4 KiB.
    (void)madvise(start, len, MADV_HUGEPAGE);
#endif
  }
#if defined(MADV_POPULATE_WRITE)
  // Best effort: refused by kernels before 5.14; the pages then fault in
  // (already zeroed) on first touch.
  (void)madvise(start, len, MADV_POPULATE_WRITE);
#endif
  g_allocated_bytes.fetch_add(bytes, std::memory_order_relaxed);
  buf.data_ = start;
  buf.size_ = bytes;
  buf.map_bytes_ = len;
  return buf;
}

size_t PageBuffer::AllocatedBytes() noexcept {
  return g_allocated_bytes.load(std::memory_order_relaxed);
}

Result<PageBuffer> PageBuffer::Zeroed(size_t bytes) {
  return Allocate(bytes, /*zero=*/true);
}

Result<PageBuffer> PageBuffer::CopyOf(const PageBuffer& other) {
  STREAMFREQ_ASSIGN_OR_RETURN(PageBuffer buf,
                              Allocate(other.size_, /*zero=*/false));
  if (other.size_ > 0) std::memcpy(buf.data_, other.data_, other.size_);
  return buf;
}

void PageBuffer::Release() noexcept {
  if (map_bytes_ != 0) {
    munmap(data_, map_bytes_);
  } else {
    std::free(data_);
  }
  data_ = nullptr;
  size_ = 0;
  map_bytes_ = 0;
}

}  // namespace streamfreq
