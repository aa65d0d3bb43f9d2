// Epoch-published snapshots: single-site installation, pinned readers, and
// superseded copies freed as soon as nothing pins them.
//
// The publisher builds a fresh immutable T off to the side and installs it
// as the current snapshot, advancing the epoch. A reader pins the current
// snapshot (a shared_ptr) and may keep using it, unchanged, for as long as
// it holds the pin, however many publications land meanwhile. A superseded
// snapshot is freed when its last pin goes, so the cell keeps one T plus one
// per outstanding pin rather than one per publication. Published copies are
// immutable and live as long as their pins, so a reader never observes a
// torn or recycled value — the classic seqlock hazard this design avoids.
//
// Pinning is one reference-count increment under a mutex that publishers
// hold only to swap a pointer; no T is copied or freed under it. The epoch
// is read under the same lock, so a pin and its epoch always agree.
#pragma once

#include <cstdint>
#include <memory>

#include "util/macros.h"
#include "util/mutex.h"

namespace streamfreq {

/// A concurrently readable cell holding the latest published T.
template <typename T>
class SnapshotCell {
 public:
  /// Installs `next` as the current snapshot and advances the epoch. The
  /// superseded snapshot is freed on return unless a reader still pins it.
  /// Publications may come from any thread.
  void Publish(std::shared_ptr<const T> next) SFQ_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      current_.swap(next);
      ++epoch_;
    }
    // `next` now holds the superseded snapshot. It is released on return,
    // outside the lock, so readers never wait for a free.
  }

  /// Pins the latest published snapshot; nullptr before the first Publish.
  /// When `epoch` is given it receives that snapshot's publication count.
  std::shared_ptr<const T> Read(uint64_t* epoch = nullptr) const
      SFQ_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (epoch != nullptr) *epoch = epoch_;
    return current_;
  }

  /// Number of publications so far.
  uint64_t Epoch() const SFQ_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return epoch_;
  }

 private:
  mutable Mutex mu_;
  std::shared_ptr<const T> current_ SFQ_GUARDED_BY(mu_);
  uint64_t epoch_ SFQ_GUARDED_BY(mu_) = 0;
};

}  // namespace streamfreq
