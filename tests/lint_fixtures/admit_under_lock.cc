// sfq-lint-path: src/server/admit_probe.cc
// sfq-lint-expect: blocking-under-lock
//
// A durable append that admits its batch while the store lock is held:
// Admit waits for queue room, so one stalled consumer parks every thread
// that needs the store. The blocking-call-under-lock pass must flag the
// Admit(); the fix is to admit first and take the lock only to journal
// and enqueue.

#include <span>

#include "concurrent/parallel_ingestor.h"
#include "util/mutex.h"

namespace streamfreq {

Mutex g_store_mu;

Status AppendLocked(ParallelIngestor<CountSketch>* ingestor,
                    std::span<const ItemId> items) {
  MutexLock lock(g_store_mu);
  auto admission = ingestor->Admit(items);
  if (!admission.ok()) return admission.status();
  ingestor->Enqueue(std::move(*admission));
  return Status::OK();
}

}  // namespace streamfreq
