#include "concurrent/batch_queue.h"

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/failpoint.h"

namespace streamfreq {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

std::vector<ItemId> MakeBatch(ItemId tag) { return {tag, tag, tag}; }

// A producer's blocking hand-off of one batch: reserve a place, fill it.
// False iff the queue refused the reservation as closed.
bool Push(BatchQueue& queue, ItemId tag) {
  if (queue.Reserve(1, std::nullopt) != QueuePushResult::kOk) return false;
  queue.Commit(MakeBatch(tag));
  return true;
}

TEST(BatchQueueTest, PushPopRoundTrip) {
  BatchQueue queue(4);
  ASSERT_TRUE(Push(queue, 1));
  ASSERT_TRUE(Push(queue, 2));
  EXPECT_EQ(queue.Depth(), 2u);
  const auto first = queue.Pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->front(), 1u);
}

// With the consumer stalled and the queue full, a deadline reservation
// returns kTimedOut within (roughly) its deadline instead of parking
// forever, and reserves nothing.
TEST(BatchQueueTest, StalledConsumerReserveReturnsWithinDeadline) {
  BatchQueue queue(1);
  ASSERT_TRUE(Push(queue, 1));  // fill; nobody will ever pop

  const auto start = steady_clock::now();
  const QueuePushResult result = queue.Reserve(1, milliseconds(50));
  const auto elapsed = steady_clock::now() - start;

  EXPECT_EQ(result, QueuePushResult::kTimedOut);
  EXPECT_GE(elapsed, milliseconds(45));
  EXPECT_LT(elapsed, milliseconds(5000))
      << "reserve must not block indefinitely";
  EXPECT_EQ(queue.Depth(), 1u);
  ASSERT_TRUE(queue.Pop().has_value());
  EXPECT_EQ(queue.Reserve(1, milliseconds(0)), QueuePushResult::kOk)
      << "a timed-out reservation must hold no place";
  queue.Release(1);
}

TEST(BatchQueueTest, CloseFailsBlockedProducersFast) {
  BatchQueue queue(1);
  ASSERT_TRUE(Push(queue, 1));

  std::thread closer([&queue] {
    std::this_thread::sleep_for(milliseconds(20));
    queue.Close();
  });
  // A long-deadline reservation parked on a full queue must be woken by
  // Close and fail well before its deadline.
  const auto start = steady_clock::now();
  const QueuePushResult result = queue.Reserve(1, milliseconds(10000));
  const auto elapsed = steady_clock::now() - start;
  closer.join();

  EXPECT_EQ(result, QueuePushResult::kClosed);
  EXPECT_LT(elapsed, milliseconds(5000));
  // And a reservation with no deadline also fails fast once closed.
  EXPECT_FALSE(Push(queue, 3));
}

TEST(BatchQueueTest, ZeroTimeoutReserveNeverBlocks) {
  BatchQueue queue(1);
  ASSERT_EQ(queue.Reserve(1, milliseconds(0)), QueuePushResult::kOk);
  queue.Commit(MakeBatch(1));
  EXPECT_EQ(queue.Reserve(1, milliseconds(0)), QueuePushResult::kTimedOut);
  queue.Close();
  EXPECT_EQ(queue.Reserve(1, milliseconds(0)), QueuePushResult::kClosed);
  EXPECT_EQ(queue.Depth(), 1u);
}

TEST(BatchQueueTest, RequeueGoesToFrontAndIgnoresCapacity) {
  BatchQueue queue(1);
  ASSERT_TRUE(Push(queue, 1));
  queue.Requeue(MakeBatch(7));  // over capacity by design
  EXPECT_EQ(queue.Depth(), 2u);
  const auto first = queue.Pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->front(), 7u) << "requeued batch must be popped first";
}

TEST(BatchQueueTest, RequeueAfterCloseIsStillDrained) {
  BatchQueue queue(2);
  queue.Close();
  queue.Requeue(MakeBatch(9));
  const auto batch = queue.Pop();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->front(), 9u);
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST(BatchQueueTest, PopDrainsAfterClose) {
  BatchQueue queue(4);
  ASSERT_TRUE(Push(queue, 1));
  ASSERT_TRUE(Push(queue, 2));
  queue.Close();
  EXPECT_TRUE(queue.Pop().has_value());
  EXPECT_TRUE(queue.Pop().has_value());
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST(BatchQueueTest, ReservationsCountAgainstCapacity) {
  BatchQueue queue(3);
  ASSERT_EQ(queue.Reserve(2, std::nullopt), QueuePushResult::kOk);
  // One place left: a two-place reservation does not fit, one place does.
  EXPECT_EQ(queue.Reserve(2, milliseconds(0)), QueuePushResult::kTimedOut);
  ASSERT_EQ(queue.Reserve(1, milliseconds(0)), QueuePushResult::kOk);
  queue.Commit(MakeBatch(1));
  queue.Commit(MakeBatch(2));
  queue.Release(1);
  EXPECT_EQ(queue.Depth(), 2u);
  EXPECT_EQ(queue.Reserve(1, milliseconds(0)), QueuePushResult::kOk);
  queue.Release(1);
}

// A reservation taken before Close is still filled and drained: consumers
// wait for it instead of reporting end-of-stream.
TEST(BatchQueueTest, CloseWaitsForOutstandingReservations) {
  BatchQueue queue(2);
  ASSERT_EQ(queue.Reserve(2, std::nullopt), QueuePushResult::kOk);
  queue.Close();
  EXPECT_EQ(queue.Reserve(1, milliseconds(0)), QueuePushResult::kClosed);
  std::thread producer([&] {
    std::this_thread::sleep_for(milliseconds(20));
    queue.Commit(MakeBatch(5));
    queue.Release(1);
  });
  const auto batch = queue.Pop();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->front(), 5u);
  EXPECT_FALSE(queue.Pop().has_value());
  producer.join();
}

TEST(BatchQueueTest, TokensPassTheBoundInOrderUntilClose) {
  BatchQueue queue(1);
  ASSERT_TRUE(Push(queue, 1));
  ASSERT_TRUE(queue.PushTokens(3));  // over capacity by design
  EXPECT_EQ(queue.Depth(), 4u);
  EXPECT_EQ(queue.Pop()->front(), 1u);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(queue.Pop()->empty());
  queue.Close();
  EXPECT_FALSE(queue.PushTokens(2));
  EXPECT_EQ(queue.Depth(), 0u);
}

TEST(BatchQueueTest, PushFailpointErrorLooksLikeClosed) {
  ScopedFailpoints fp("batch_queue.push=error*1", 3);
  ASSERT_TRUE(fp.status().ok());
  BatchQueue queue(4);
  EXPECT_FALSE(Push(queue, 1));  // injected failure
  EXPECT_TRUE(Push(queue, 2));   // budget spent; next succeeds
  EXPECT_EQ(queue.Depth(), 1u);
}

TEST(BatchQueueTest, MpmcStressDeliversEveryBatch) {
  BatchQueue queue(4);
  constexpr int kProducers = 2;
  constexpr int kBatchesEach = 50;
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  threads.reserve(kProducers + 2);
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&queue, p] {
      for (int i = 0; i < kBatchesEach; ++i) {
        ASSERT_TRUE(Push(queue, static_cast<ItemId>(p * 1000 + i)));
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&queue, &popped] {
      while (queue.Pop().has_value()) popped.fetch_add(1);
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  queue.Close();
  threads[kProducers].join();
  threads[kProducers + 1].join();
  EXPECT_EQ(popped.load(), kProducers * kBatchesEach);
}

}  // namespace
}  // namespace streamfreq
