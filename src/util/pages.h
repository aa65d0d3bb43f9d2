// PageBuffer: zeroed, 64-byte-aligned storage for counter arrays, the one
// place the library asks the kernel for memory directly (the sfq-raw-pages
// lint rule keeps mmap/madvise/aligned_alloc in util/pages.*).
//
// A t x b counter array is the paper's main space cost, and building one
// is dominated by page faults, not by zeroing. At glibc's default mmap
// threshold (kMapThreshold) an array that large is a fresh anonymous
// mapping, and touching it faults once per 4 KiB page; once glibc has
// raised its dynamic threshold after a large free, such arrays come from
// the heap instead and their pages may stay resident after they are freed.
// PageBuffer maps these arrays itself, whatever glibc's threshold is, and
// pre-faults them in one madvise(MADV_POPULATE_WRITE); the kernel hands
// out zeroed pages, so no memset follows. From kHugePageBytes up the
// mapping starts on a 2 MiB boundary and asks for MADV_HUGEPAGE, so every
// whole 2 MiB of the array can be one fault. The mapping is returned to
// the kernel when the buffer dies.
//
// A mapping is the wrong tool for an array that is made and dropped over
// and over: each one costs an mmap, a populate and an munmap, several
// times what reused heap memory costs. Code that does that keeps its
// storage instead (CounterMatrix's same-size copy-assignment, the
// ParallelIngestor's recycled snapshots). Arrays below kMapThreshold keep
// aligned_alloc + memset, which reuses heap memory; measured in
// docs/PERFORMANCE.md ("Counter storage").
//
// With transparent huge pages off the mapping is pre-faulted in 4 KiB
// pages; on kernels without MADV_POPULATE_WRITE (before 5.14) the advice
// fails and the pages fault in on first touch instead. Both are slower,
// with the same zeroed contents.
#pragma once

#include <cstddef>
#include <utility>

#include "util/result.h"

namespace streamfreq {

/// Owns `size()` bytes aligned to at least 64 (2 MiB from kHugePageBytes);
/// move-only.
class PageBuffer {
 public:
  /// At and above this many bytes the buffer is its own mapping.
  static constexpr size_t kMapThreshold = size_t{128} << 10;
  /// At and above this many bytes the mapping is 2 MiB aligned and
  /// advised for transparent huge pages.
  static constexpr size_t kHugePageBytes = size_t{2} << 20;

  PageBuffer() = default;

  /// `bytes` zeroed bytes. IoError (with the system's reason) when the
  /// memory cannot be had; never a buffer with a null data() for bytes > 0.
  static Result<PageBuffer> Zeroed(size_t bytes);

  /// A buffer of the same size holding a copy of `other`'s bytes.
  static Result<PageBuffer> CopyOf(const PageBuffer& other);

  /// Bytes of every buffer this process has allocated so far, heap and
  /// mapped alike. operator new never sees them, so a test that bounds
  /// what a call allocates adds the difference of this across the call.
  static size_t AllocatedBytes() noexcept;

  ~PageBuffer() { Release(); }

  PageBuffer(PageBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        map_bytes_(std::exchange(other.map_bytes_, 0)) {}

  PageBuffer& operator=(PageBuffer&& other) noexcept {
    if (this != &other) {
      Release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      map_bytes_ = std::exchange(other.map_bytes_, 0);
    }
    return *this;
  }

  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;

  void* data() const noexcept { return data_; }
  size_t size() const noexcept { return size_; }

 private:
  /// Heap memory is zeroed only when `zero`; mapped memory always is.
  static Result<PageBuffer> Allocate(size_t bytes, bool zero);
  void Release() noexcept;

  void* data_ = nullptr;
  size_t size_ = 0;
  size_t map_bytes_ = 0;  ///< length of the mapping at data_; 0 for heap
};

}  // namespace streamfreq
