// Broken on purpose: a second allocation path for counter storage. It maps
// its own pages without pre-faulting them, so the first touch of every
// 4 KiB page faults; it hands a null aligned_alloc result to memset, the
// write a failed allocation must never reach; and it advises and unmaps by
// hand. Counter arrays come from PageBuffer (src/util/pages.h), which
// reports a failed allocation as a Status.
//
// sfq-lint-path: src/core/hand_rolled_pages.cc
// sfq-lint-expect: raw-pages

#include <sys/mman.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace streamfreq {

int64_t* MapCounters(size_t n) {
  void* p = mmap(nullptr, n * sizeof(int64_t), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  madvise(p, n * sizeof(int64_t), MADV_HUGEPAGE);
  return static_cast<int64_t*>(p);
}

void UnmapCounters(int64_t* p, size_t n) { munmap(p, n * sizeof(int64_t)); }

int64_t* HeapCounters(size_t n) {
  auto* p = static_cast<int64_t*>(std::aligned_alloc(64, n * sizeof(int64_t)));
  std::memset(p, 0, n * sizeof(int64_t));
  return p;
}

}  // namespace streamfreq
