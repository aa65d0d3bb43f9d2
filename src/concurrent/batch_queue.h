// Bounded MPMC queue of item batches: the hand-off between stream
// producers and the parallel ingestion workers.
//
// Batches (not single items) are the unit of transfer so that lock traffic
// is amortized over thousands of updates; with the default 8 KiB-item
// batches the queue is invisible in profiles. Producers block while the
// queue is full (backpressure, bounded memory); consumers block while it is
// empty. Close() starts shutdown: producers fail fast, consumers drain the
// remaining batches and then observe end-of-stream.
//
// A producer hands a batch over in two steps: Reserve takes places (this is
// the only place a producer waits), Commit fills one without ever
// blocking. Reserve waits forever or up to a deadline; the deadline is how
// ParallelIngestor implements its shed/sample overflow policies (see
// docs/ROBUSTNESS.md), and the batch stays the caller's until Commit. A
// durable tenant journals a batch between the two, under its store lock,
// so the journal order is the queue order and no queue wait happens under
// that lock. A reservation survives Close: consumers keep draining until
// every reserved place is committed or released.
//
// Fold tokens are empty batches (a data batch is never empty) that
// ParallelIngestor's fold barrier pushes past the capacity bound.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "stream/types.h"
#include "util/macros.h"
#include "util/mutex.h"

namespace streamfreq {

/// Outcome of a reservation.
enum class QueuePushResult : uint8_t {
  kOk,        ///< places reserved
  kTimedOut,  ///< queue stayed full past the deadline
  kClosed,    ///< queue is shut down
};

/// A bounded queue of ItemId batches.
class BatchQueue {
 public:
  /// A queue holding at most `max_batches` in-flight batches (>= 1 is
  /// enforced by clamping).
  explicit BatchQueue(size_t max_batches);

  BatchQueue(const BatchQueue&) = delete;
  BatchQueue& operator=(const BatchQueue&) = delete;

  /// Reserves `slots` places at once (clamped to the capacity), waiting
  /// while queued plus reserved batches leave too little room: forever
  /// when `timeout` is nullopt, else until it passes (kTimedOut; a zero
  /// timeout never blocks). A producer is never parked past its deadline,
  /// even if no consumer ever wakes it. kClosed once the queue is closed.
  /// Every kOk must be paid back by `slots` Commit/Release calls.
  [[nodiscard]] QueuePushResult Reserve(
      size_t slots, std::optional<std::chrono::milliseconds> timeout);

  /// Fills one reserved place. Never blocks, and is accepted after Close:
  /// the reservation predates it.
  void Commit(std::vector<ItemId> batch);

  /// Gives back `slots` reserved places that will not be filled.
  void Release(size_t slots);

  /// Appends `n` fold tokens (empty batches) past the capacity bound, in
  /// one step, so no batch lands between them. Never blocks. Returns false
  /// and pushes nothing once the queue is closed.
  [[nodiscard]] bool PushTokens(size_t n);

  /// Puts a batch back at the *front* of the queue, ignoring the capacity
  /// bound and closed state. Reserved for crash recovery: a respawning
  /// worker returns its in-flight batch so no mass is lost and FIFO order
  /// is disturbed as little as possible. Never blocks.
  void Requeue(std::vector<ItemId> batch);

  /// Dequeues the oldest batch, blocking while the queue is empty. Returns
  /// nullopt once the queue is closed, drained, and holds no reservation.
  [[nodiscard]] std::optional<std::vector<ItemId>> Pop();

  /// Begins shutdown: wakes every waiter; subsequent Reserve calls fail
  /// and Pop drains what remains.
  void Close();

  /// Batches currently queued (diagnostic; racy by nature).
  size_t Depth() const;

 private:
  const size_t max_batches_;
  mutable Mutex mu_;
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<std::vector<ItemId>> batches_ SFQ_GUARDED_BY(mu_);
  size_t reserved_ SFQ_GUARDED_BY(mu_) = 0;
  bool closed_ SFQ_GUARDED_BY(mu_) = false;
};

}  // namespace streamfreq
