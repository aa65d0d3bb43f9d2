#include "concurrent/batch_queue.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "util/failpoint.h"

namespace streamfreq {

namespace {

// The producer-side site, run by every Reserve: `error` makes the queue
// look closed to this producer, `stall` delays the hand-off.
bool ApplyPushFailpoint() {
  const FailDecision fp = SFQ_FAILPOINT("batch_queue.push");
  if (fp.action == FailAction::kStall) {
    std::this_thread::sleep_for(std::chrono::milliseconds(fp.param));
  }
  return fp.action == FailAction::kError;
}

// Consumer-side site: `stall` simulates a wedged worker between hand-off
// and processing. Other actions are ignored here (dropping a pop would
// silently lose a batch, which no real fault mode corresponds to).
void ApplyPopFailpoint() {
  const FailDecision fp = SFQ_FAILPOINT("batch_queue.pop");
  if (fp.action == FailAction::kStall) {
    std::this_thread::sleep_for(std::chrono::milliseconds(fp.param));
  }
}

}  // namespace

BatchQueue::BatchQueue(size_t max_batches)
    : max_batches_(std::max<size_t>(1, max_batches)) {}

QueuePushResult BatchQueue::Reserve(
    size_t slots, std::optional<std::chrono::milliseconds> timeout) {
  if (ApplyPushFailpoint()) return QueuePushResult::kClosed;
  slots = std::clamp<size_t>(slots, 1, max_batches_);
  const auto deadline =
      std::chrono::steady_clock::now() +
      timeout.value_or(std::chrono::milliseconds::zero());
  MutexLock lock(mu_);
  while (!closed_ && batches_.size() + reserved_ + slots > max_batches_) {
    if (!timeout) {
      not_full_.Wait(mu_);
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return QueuePushResult::kTimedOut;
    // WaitFor may wake spuriously or early; the deadline governs, not the
    // per-wait budget, so the loop re-derives the remaining time.
    (void)not_full_.WaitFor(
        mu_, std::chrono::duration_cast<std::chrono::milliseconds>(
                 deadline - now) +
                 std::chrono::milliseconds(1));
  }
  if (closed_) return QueuePushResult::kClosed;
  reserved_ += slots;
  return QueuePushResult::kOk;
}

void BatchQueue::Commit(std::vector<ItemId> batch) {
  bool last_after_close;
  {
    MutexLock lock(mu_);
    --reserved_;
    batches_.push_back(std::move(batch));
    last_after_close = closed_ && reserved_ == 0;
  }
  // The last commit after Close also ends the wait of idle consumers.
  if (last_after_close) {
    not_empty_.NotifyAll();
  } else {
    not_empty_.NotifyOne();
  }
}

void BatchQueue::Release(size_t slots) {
  if (slots == 0) return;
  {
    MutexLock lock(mu_);
    reserved_ -= slots;
  }
  not_full_.NotifyAll();
  // After Close, consumers may be waiting only for this reservation.
  not_empty_.NotifyAll();
}

bool BatchQueue::PushTokens(size_t n) {
  {
    MutexLock lock(mu_);
    if (closed_) return false;
    batches_.insert(batches_.end(), n, std::vector<ItemId>());
  }
  not_empty_.NotifyAll();
  return true;
}

void BatchQueue::Requeue(std::vector<ItemId> batch) {
  {
    MutexLock lock(mu_);
    // Deliberately exceeds max_batches_ and ignores closed_: the batch was
    // already admitted once, and recovery must not deadlock against a full
    // queue or lose mass during shutdown drain.
    batches_.push_front(std::move(batch));
  }
  not_empty_.NotifyOne();
}

std::optional<std::vector<ItemId>> BatchQueue::Pop() {
  ApplyPopFailpoint();
  std::vector<ItemId> batch;
  {
    MutexLock lock(mu_);
    while (batches_.empty() && !(closed_ && reserved_ == 0)) {
      not_empty_.Wait(mu_);
    }
    if (batches_.empty()) return std::nullopt;  // closed and drained
    batch = std::move(batches_.front());
    batches_.pop_front();
  }
  // All waiters: a producer reserving several places may not fit in the
  // room one pop makes, while a single-place producer behind it would.
  not_full_.NotifyAll();
  return batch;
}

void BatchQueue::Close() {
  {
    MutexLock lock(mu_);
    closed_ = true;
  }
  not_full_.NotifyAll();
  not_empty_.NotifyAll();
}

size_t BatchQueue::Depth() const {
  MutexLock lock(mu_);
  return batches_.size();
}

}  // namespace streamfreq
