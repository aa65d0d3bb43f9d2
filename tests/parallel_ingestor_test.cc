// ParallelIngestor contracts: merged parallel ingestion is bit-identical to
// sequential ingestion at every thread count; snapshots are readable while
// workers are writing (the test ThreadSanitizer exercises).
#include "concurrent/parallel_ingestor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <span>
#include <thread>
#include <vector>

#include <map>
#include <memory>

#include "concurrent/snapshot.h"
#include "core/count_sketch.h"
#include "stream/exact_counter.h"
#include "stream/zipf.h"
#include "util/failpoint.h"
#include "util/mutex.h"
#include "util/pages.h"

namespace streamfreq {
namespace {

CountSketchParams SketchParams() {
  CountSketchParams p;
  p.depth = 5;
  p.width = 1024;
  p.seed = 77;
  return p;
}

ParallelIngestor<CountSketch>::Factory SketchFactory() {
  return [] { return CountSketch::Make(SketchParams()); };
}

Stream MakeZipfStream(size_t n, uint64_t seed) {
  auto gen = ZipfGenerator::Make(8000, 1.0, seed);
  EXPECT_TRUE(gen.ok());
  return gen->Take(n);
}

// ThreadSanitizer slows everything ~10x; shrink the streams there so the
// concurrent suite stays fast under scripts/check.sh's race sweep.
#if defined(__SANITIZE_THREAD__)
constexpr size_t kStreamItems = 60000;
#else
constexpr size_t kStreamItems = 200000;
#endif

TEST(ParallelIngestorTest, RejectsBadOptions) {
  IngestOptions opts;
  opts.threads = 0;
  EXPECT_TRUE(ParallelIngestor<CountSketch>::Make(SketchFactory(), opts)
                  .status()
                  .IsInvalidArgument());
  opts.threads = 2;
  opts.batch_items = 0;
  EXPECT_TRUE(ParallelIngestor<CountSketch>::Make(SketchFactory(), opts)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParallelIngestor<CountSketch>::Make({}, IngestOptions{})
                  .status()
                  .IsInvalidArgument());
}

TEST(ParallelIngestorTest, CountSketchDeterministicAcrossThreadCounts) {
  const Stream stream = MakeZipfStream(kStreamItems, 21);
  auto sequential = CountSketch::Make(SketchParams());
  ASSERT_TRUE(sequential.ok());
  sequential->BatchAdd(std::span<const ItemId>(stream));

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    IngestOptions opts;
    opts.threads = threads;
    opts.batch_items = 4096;
    opts.publish_every_batches = 4;  // periodic folds must not change the sum
    auto ingestor = ParallelIngestor<CountSketch>::Make(SketchFactory(), opts);
    ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
    ASSERT_TRUE((*ingestor)->Ingest(std::span<const ItemId>(stream)).ok());
    auto merged = (*ingestor)->Finish();
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();

    // Same seed => same hash functions => bit-identical counters, so every
    // estimate matches sequential ingestion exactly, at every thread count.
    for (size_t row = 0; row < sequential->depth(); ++row) {
      for (size_t col = 0; col < sequential->width(); ++col) {
        ASSERT_EQ(merged->CounterAt(row, col), sequential->CounterAt(row, col))
            << "threads=" << threads << " row=" << row << " col=" << col;
      }
    }
  }
}

TEST(ParallelIngestorTest, SnapshotsReadableDuringIngestion) {
  const Stream stream = MakeZipfStream(kStreamItems, 25);
  // Ground-truth hottest item for sanity-checking concurrent reads.
  ExactCounter oracle;
  oracle.AddAll(stream);
  const ItemId hot = oracle.TopK(1)[0].item;

  IngestOptions opts;
  opts.threads = 4;
  opts.batch_items = 1024;
  opts.publish_every_batches = 2;
  auto ingestor = ParallelIngestor<CountSketch>::Make(SketchFactory(), opts);
  ASSERT_TRUE(ingestor.ok());

  // Never null, even before any data arrives.
  ASSERT_NE((*ingestor)->Snapshot(), nullptr);
  EXPECT_GE((*ingestor)->SnapshotEpoch(), 1u);

  // Readers hammer the snapshot while the producer feeds the stream.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::shared_ptr<const CountSketch> snap = (*ingestor)->Snapshot();
        // Estimates on a consistent snapshot are well-defined values; the
        // hot item's estimate can never exceed the whole stream length.
        const Count est = snap->Estimate(hot);
        ASSERT_LE(std::abs(est), static_cast<Count>(stream.size()));
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  ASSERT_TRUE((*ingestor)->Ingest(std::span<const ItemId>(stream)).ok());
  auto merged = (*ingestor)->Finish();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ((*ingestor)->ItemsIngested(), stream.size());

  // The final snapshot is the merged result.
  const std::shared_ptr<const CountSketch> final_snap =
      (*ingestor)->Snapshot();
  ASSERT_NE(final_snap, nullptr);
  for (size_t row = 0; row < merged->depth(); ++row) {
    for (size_t col = 0; col < merged->width(); col += 7) {
      ASSERT_EQ(final_snap->CounterAt(row, col), merged->CounterAt(row, col));
    }
  }
  // Periodic folds published intermediate epochs beyond the initial one.
  EXPECT_GT((*ingestor)->SnapshotEpoch(), 1u);
}

// A superseded snapshot is freed as soon as nothing pins it, and a pinned
// one stays as it was published however many publications follow.
TEST(SnapshotCellTest, FreesSupersededSnapshotsUnlessPinned) {
  SnapshotCell<std::vector<int>> cell;
  EXPECT_EQ(cell.Read(), nullptr);
  EXPECT_EQ(cell.Epoch(), 0u);
  cell.Publish(std::make_shared<std::vector<int>>(1000, 0));
  uint64_t pinned_epoch = 0;
  const std::shared_ptr<const std::vector<int>> pinned =
      cell.Read(&pinned_epoch);
  EXPECT_EQ(pinned_epoch, 1u);

  std::weak_ptr<const std::vector<int>> unpinned;
  for (int i = 1; i <= 100; ++i) {
    cell.Publish(std::make_shared<std::vector<int>>(1000, i));
    if (i == 1) unpinned = cell.Read();  // the pin ends with the statement
  }
  uint64_t epoch = 0;
  EXPECT_EQ(cell.Read(&epoch)->front(), 100);
  EXPECT_EQ(epoch, 101u);
  EXPECT_EQ(cell.Epoch(), 101u);
  EXPECT_TRUE(unpinned.expired()) << "an unpinned superseded copy survived";
  EXPECT_EQ(pinned->front(), 0);
  EXPECT_EQ(pinned.use_count(), 1) << "the cell still holds a superseded copy";
}

// Memory follows the pins, not the publications: after hundreds of folds,
// every snapshot a reader saw is gone except the final one, and a snapshot
// pinned through the whole run still reads as the empty epoch-1 sketch.
TEST(ParallelIngestorTest, SupersededSnapshotsAreFreed) {
  const Stream stream = MakeZipfStream(kStreamItems, 28);
  IngestOptions opts;
  opts.threads = 2;
  opts.batch_items = 512;
  opts.publish_every_batches = 1;
  auto ingestor = ParallelIngestor<CountSketch>::Make(SketchFactory(), opts);
  ASSERT_TRUE(ingestor.ok());
  const std::shared_ptr<const CountSketch> first = (*ingestor)->Snapshot();

  // One weak reference per epoch the reader observed.
  std::vector<std::weak_ptr<const CountSketch>> seen;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    uint64_t last_epoch = 0;
    while (!stop.load(std::memory_order_acquire)) {
      uint64_t epoch = 0;
      std::shared_ptr<const CountSketch> snap = (*ingestor)->Snapshot(&epoch);
      if (epoch != last_epoch) {
        seen.push_back(snap);
        last_epoch = epoch;
      }
    }
  });
  ASSERT_TRUE((*ingestor)->Ingest(std::span<const ItemId>(stream)).ok());
  ASSERT_TRUE((*ingestor)->Finish().ok());
  stop.store(true, std::memory_order_release);
  reader.join();

  const std::shared_ptr<const CountSketch> last = (*ingestor)->Snapshot();
  EXPECT_GT((*ingestor)->SnapshotEpoch(), 100u);
  size_t alive = 0;
  for (const std::weak_ptr<const CountSketch>& weak : seen) {
    const std::shared_ptr<const CountSketch> snap = weak.lock();
    if (snap == nullptr) continue;
    ++alive;
    EXPECT_TRUE(snap == first || snap == last);
  }
  EXPECT_LE(alive, 2u) << "of " << seen.size() << " observed snapshots";
  for (size_t row = 0; row < first->depth(); ++row) {
    for (size_t col = 0; col < first->width(); ++col) {
      ASSERT_EQ(first->CounterAt(row, col), 0) << "pinned snapshot changed";
    }
  }
}

TEST(ParallelIngestorTest, IngestAfterFinishFails) {
  auto ingestor =
      ParallelIngestor<CountSketch>::Make(SketchFactory(), IngestOptions{});
  ASSERT_TRUE(ingestor.ok());
  const Stream stream = MakeZipfStream(1000, 26);
  ASSERT_TRUE((*ingestor)->Ingest(std::span<const ItemId>(stream)).ok());
  auto merged = (*ingestor)->Finish();
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE((*ingestor)
                  ->Ingest(std::span<const ItemId>(stream))
                  .IsInvalidArgument());
  // Finish is idempotent.
  EXPECT_TRUE((*ingestor)->Finish().ok());
}

TEST(ParallelIngestorTest, MultipleProducers) {
  const Stream stream = MakeZipfStream(kStreamItems, 27);
  auto sequential = CountSketch::Make(SketchParams());
  ASSERT_TRUE(sequential.ok());
  sequential->BatchAdd(std::span<const ItemId>(stream));

  IngestOptions opts;
  opts.threads = 2;
  opts.batch_items = 1024;
  auto ingestor = ParallelIngestor<CountSketch>::Make(SketchFactory(), opts);
  ASSERT_TRUE(ingestor.ok());

  // Four producer threads submit disjoint quarters concurrently.
  std::vector<std::thread> producers;
  const size_t quarter = stream.size() / 4;
  for (size_t p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      const size_t begin = p * quarter;
      const size_t end = p == 3 ? stream.size() : begin + quarter;
      std::span<const ItemId> part(stream.data() + begin, end - begin);
      ASSERT_TRUE((*ingestor)->Ingest(part).ok());
    });
  }
  for (auto& t : producers) t.join();
  auto merged = (*ingestor)->Finish();
  ASSERT_TRUE(merged.ok());

  for (size_t row = 0; row < sequential->depth(); ++row) {
    for (size_t col = 0; col < sequential->width(); ++col) {
      ASSERT_EQ(merged->CounterAt(row, col), sequential->CounterAt(row, col));
    }
  }
}

// ---------------------------------------------------------------------------
// Degraded modes (fault injection + overflow policies).

// Builds the multiset difference stream \ spill, in arbitrary order. For
// linear sketches, ingesting this sequentially must reproduce the degraded
// parallel result exactly (order never matters for the counter sums).
Stream EffectiveStream(const Stream& stream, const std::vector<ItemId>& spill) {
  std::map<ItemId, uint64_t> drop;
  for (const ItemId id : spill) ++drop[id];
  Stream effective;
  effective.reserve(stream.size() - spill.size());
  for (const ItemId id : stream) {
    auto it = drop.find(id);
    if (it != drop.end() && it->second > 0) {
      --it->second;
      continue;
    }
    effective.push_back(id);
  }
  return effective;
}

// The acceptance-criteria scenario: kill a worker mid-stream (three times),
// prove the in-flight batches are requeued and re-processed — the merged
// counters stay bit-identical to sequential ingestion — and the respawns
// show up in IngestStats.
TEST(ParallelIngestorTest, KillOneWorkerRecoversWithRequeue) {
  const Stream stream = MakeZipfStream(kStreamItems, 31);
  auto sequential = CountSketch::Make(SketchParams());
  ASSERT_TRUE(sequential.ok());
  sequential->BatchAdd(std::span<const ItemId>(stream));

  ScopedFailpoints fp("ingestor.worker_batch=crash*3", 17);
  ASSERT_TRUE(fp.status().ok());

  IngestOptions opts;
  opts.threads = 2;
  opts.batch_items = 2048;
  auto ingestor = ParallelIngestor<CountSketch>::Make(SketchFactory(), opts);
  ASSERT_TRUE(ingestor.ok());
  ASSERT_TRUE((*ingestor)->Ingest(std::span<const ItemId>(stream)).ok());
  auto merged = (*ingestor)->Finish();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  const IngestStats stats = (*ingestor)->Stats();
  EXPECT_EQ(stats.worker_respawns, 3u);
  EXPECT_EQ(stats.items_ingested, stream.size());
  EXPECT_EQ(stats.DroppedItems(), 0u) << "crash recovery must not lose mass";
  for (size_t row = 0; row < sequential->depth(); ++row) {
    for (size_t col = 0; col < sequential->width(); ++col) {
      ASSERT_EQ(merged->CounterAt(row, col), sequential->CounterAt(row, col));
    }
  }
}

TEST(ParallelIngestorTest, ShedPolicyCountsAndRecordsDroppedMass) {
  const Stream stream = MakeZipfStream(10240, 32);

  // One worker that sleeps 40 ms per hand-off against 1 ms push deadlines:
  // most batches shed.
  ScopedFailpoints fp("batch_queue.pop=stall:40", 19);
  ASSERT_TRUE(fp.status().ok());

  IngestOptions opts;
  opts.threads = 1;
  opts.batch_items = 512;
  opts.queue_batches = 1;
  opts.push_timeout_ms = 1;
  opts.overflow_policy = OverflowPolicy::kShed;
  opts.record_shed = true;
  auto ingestor = ParallelIngestor<CountSketch>::Make(SketchFactory(), opts);
  ASSERT_TRUE(ingestor.ok());
  ASSERT_TRUE((*ingestor)->Ingest(std::span<const ItemId>(stream)).ok());
  auto merged = (*ingestor)->Finish();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  const IngestStats stats = (*ingestor)->Stats();
  EXPECT_GT(stats.shed_batches, 0u);
  EXPECT_GT(stats.deadline_misses, 0u);
  // Conservation: everything offered was either ingested or accounted for.
  EXPECT_EQ(stats.items_ingested + stats.DroppedItems(), stream.size());

  // The recorded spill is the exact dropped mass, so the degraded sketch
  // equals sequential ingestion of the effective (surviving) stream.
  const std::vector<ItemId> spill = (*ingestor)->SpilledItems();
  EXPECT_EQ(spill.size(), stats.DroppedItems());
  auto effective = CountSketch::Make(SketchParams());
  ASSERT_TRUE(effective.ok());
  const Stream survivors = EffectiveStream(stream, spill);
  effective->BatchAdd(std::span<const ItemId>(survivors));
  for (size_t row = 0; row < effective->depth(); ++row) {
    for (size_t col = 0; col < effective->width(); ++col) {
      ASSERT_EQ(merged->CounterAt(row, col), effective->CounterAt(row, col));
    }
  }
}

TEST(ParallelIngestorTest, SamplePolicyDecimatesInsteadOfDropping) {
  const Stream stream = MakeZipfStream(8192, 33);
  ScopedFailpoints fp("batch_queue.pop=stall:40", 23);
  ASSERT_TRUE(fp.status().ok());

  IngestOptions opts;
  opts.threads = 1;
  opts.batch_items = 512;
  opts.queue_batches = 1;
  opts.push_timeout_ms = 1;
  opts.overflow_policy = OverflowPolicy::kSample;
  opts.sample_keep_one_in = 4;
  opts.record_shed = true;
  auto ingestor = ParallelIngestor<CountSketch>::Make(SketchFactory(), opts);
  ASSERT_TRUE(ingestor.ok());
  ASSERT_TRUE((*ingestor)->Ingest(std::span<const ItemId>(stream)).ok());
  auto merged = (*ingestor)->Finish();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  const IngestStats stats = (*ingestor)->Stats();
  EXPECT_GT(stats.sampled_batches, 0u);
  EXPECT_GT(stats.sampled_items_dropped, 0u);
  EXPECT_EQ(stats.shed_batches, 0u) << "sampling keeps a sliver of each batch";
  EXPECT_EQ(stats.items_ingested + stats.DroppedItems(), stream.size());
  EXPECT_EQ((*ingestor)->SpilledItems().size(), stats.DroppedItems());
}

TEST(ParallelIngestorTest, BlockPolicyDeadlineMissFailsLoudly) {
  const Stream stream = MakeZipfStream(4096, 34);
  ScopedFailpoints fp("batch_queue.pop=stall:200", 29);
  ASSERT_TRUE(fp.status().ok());

  IngestOptions opts;
  opts.threads = 1;
  opts.batch_items = 256;
  opts.queue_batches = 1;
  opts.push_timeout_ms = 5;  // policy stays kBlock: misses are errors
  auto ingestor = ParallelIngestor<CountSketch>::Make(SketchFactory(), opts);
  ASSERT_TRUE(ingestor.ok());
  const Status s = (*ingestor)->Ingest(std::span<const ItemId>(stream));
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
  EXPECT_GT((*ingestor)->Stats().deadline_misses, 0u);
}

// ---------------------------------------------------------------------------
// Fold barrier: the pin covers exactly the batches enqueued before the
// tokens.
// ---------------------------------------------------------------------------

std::string Bytes(const CountSketch& sketch) {
  std::string out;
  sketch.SerializeTo(&out);
  return out;
}

std::string SequentialBytes(std::span<const ItemId> items) {
  auto sequential = CountSketch::Make(SketchParams());
  EXPECT_TRUE(sequential.ok());
  sequential->BatchAdd(items);
  return Bytes(*sequential);
}

Result<std::shared_ptr<const CountSketch>> FoldBarrier(
    ParallelIngestor<CountSketch>& ingestor) {
  return ingestor.AwaitFold(ingestor.StartFold());
}

std::unique_ptr<ParallelIngestor<CountSketch>> MakeBarrierIngestor(
    size_t threads, size_t publish_every_batches = 0) {
  IngestOptions opts;
  opts.threads = threads;
  opts.batch_items = 512;
  opts.queue_batches = 8;
  opts.publish_every_batches = publish_every_batches;
  auto ingestor = ParallelIngestor<CountSketch>::Make(SketchFactory(), opts);
  EXPECT_TRUE(ingestor.ok()) << ingestor.status().ToString();
  return std::move(*ingestor);
}

TEST(ParallelIngestorFoldBarrierTest, PinEqualsSequentialPrefix) {
  const Stream stream = MakeZipfStream(40000, 41);
  const std::span<const ItemId> all(stream);
  for (const size_t threads : {1, 2, 4}) {
    for (const size_t every : {0, 3}) {
      auto ingestor = MakeBarrierIngestor(threads, every);
      const size_t cut = 17000;
      ASSERT_TRUE(ingestor->Ingest(all.first(cut)).ok());
      auto first = FoldBarrier(*ingestor);
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      EXPECT_EQ(Bytes(**first), SequentialBytes(all.first(cut)))
          << threads << " threads, fold every " << every;
      // An idle barrier folds nothing new and pins the same state.
      auto idle = FoldBarrier(*ingestor);
      ASSERT_TRUE(idle.ok());
      EXPECT_EQ(Bytes(**idle), Bytes(**first));
      ASSERT_TRUE(ingestor->Ingest(all.subspan(cut)).ok());
      auto second = FoldBarrier(*ingestor);
      ASSERT_TRUE(second.ok());
      EXPECT_EQ(Bytes(**second), SequentialBytes(all));
      ASSERT_TRUE(ingestor->Finish().ok());
    }
  }
}

// Producers race the barrier the way a durable tenant does: Admit with no
// lock held, then record and Enqueue under one lock that StartFold also
// takes. The pin must equal exactly what was recorded before the tokens.
TEST(ParallelIngestorFoldBarrierTest, ConcurrentProducersCutExactly) {
  const Stream stream = MakeZipfStream(kStreamItems / 2, 43);
  auto ingestor = MakeBarrierIngestor(4, /*publish_every_batches=*/2);
  Mutex mu;
  std::vector<ItemId> enqueued;  // guarded by mu
  std::atomic<bool> done{false};
  std::vector<std::thread> producers;
  constexpr size_t kProducers = 3;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t off = p * 300; off < stream.size();
           off += kProducers * 300) {
        const auto chunk = std::span<const ItemId>(stream).subspan(
            off, std::min<size_t>(300, stream.size() - off));
        auto admission = ingestor->Admit(chunk);
        ASSERT_TRUE(admission.ok());
        MutexLock lock(mu);
        enqueued.insert(enqueued.end(), chunk.begin(), chunk.end());
        ingestor->Enqueue(std::move(*admission));
      }
    });
  }
  std::thread cutter([&] {
    while (!done.load()) {
      ParallelIngestor<CountSketch>::FoldTicket ticket;
      std::vector<ItemId> before;
      {
        MutexLock lock(mu);
        ticket = ingestor->StartFold();
        before = enqueued;
      }
      auto pin = ingestor->AwaitFold(ticket);
      ASSERT_TRUE(pin.ok());
      EXPECT_EQ(Bytes(**pin), SequentialBytes(before));
    }
  });
  for (std::thread& t : producers) t.join();
  done.store(true);
  cutter.join();
  auto last = FoldBarrier(*ingestor);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(Bytes(**last), SequentialBytes(stream));
}

// A crashed worker requeues its batch at the front, ahead of the tokens,
// and a withheld ingestor.publish leaves readers on an older snapshot:
// neither may change what the barrier pins.
TEST(ParallelIngestorFoldBarrierTest, CrashesAndWithheldPublishStayCovered) {
  const Stream stream = MakeZipfStream(30000, 45);
  ScopedFailpoints fp(
      "ingestor.worker_batch=crash@0.2*6;ingestor.publish=error", 23);
  ASSERT_TRUE(fp.status().ok());
  auto ingestor = MakeBarrierIngestor(2, /*publish_every_batches=*/1);
  ASSERT_TRUE(ingestor->Ingest(std::span<const ItemId>(stream)).ok());
  auto pin = FoldBarrier(*ingestor);
  ASSERT_TRUE(pin.ok()) << pin.status().ToString();
  EXPECT_EQ(Bytes(**pin), SequentialBytes(stream));
  EXPECT_GT(ingestor->Stats().worker_respawns, 0u);
  EXPECT_GT(ingestor->Stats().publish_failures, 0u);
  EXPECT_EQ(ingestor->SnapshotEpoch(), 1u) << "every publication withheld";
}

TEST(ParallelIngestorFoldBarrierTest, AfterFinishPinsTheFinalSketch) {
  const Stream stream = MakeZipfStream(20000, 47);
  auto ingestor = MakeBarrierIngestor(2);
  ASSERT_TRUE(ingestor->Ingest(std::span<const ItemId>(stream)).ok());
  ASSERT_TRUE(ingestor->Finish().ok());
  const auto ticket = ingestor->StartFold();
  EXPECT_TRUE(ticket.finished);
  auto pin = ingestor->AwaitFold(ticket);
  ASSERT_TRUE(pin.ok());
  EXPECT_EQ(Bytes(**pin), SequentialBytes(stream));
}

TEST(ParallelIngestorFoldBarrierTest, FoldErrorFailsTheBarrier) {
  const Stream stream = MakeZipfStream(4000, 49);
  ScopedFailpoints fp("ingestor.worker_batch=error*1", 29);
  ASSERT_TRUE(fp.status().ok());
  auto ingestor = MakeBarrierIngestor(2);
  ASSERT_TRUE(ingestor->Ingest(std::span<const ItemId>(stream)).ok());
  EXPECT_FALSE(FoldBarrier(*ingestor).ok());
}

// ---------------------------------------------------------------------------
// Counter arrays: a fold publishes the folding worker's own sketch and hands
// it the superseded snapshot, cleared, so an ingestor holds threads + 1
// arrays plus one per pinned superseded snapshot.
// ---------------------------------------------------------------------------

// Bytes of one counter array of SketchParams(), as PageBuffer counts them.
size_t OneArrayBytes() {
  const size_t before = PageBuffer::AllocatedBytes();
  auto sketch = CountSketch::Make(SketchParams());
  EXPECT_TRUE(sketch.ok());
  return PageBuffer::AllocatedBytes() - before;
}

// With no reader pinning anything, every fold recycles the snapshot it
// supersedes: hundreds of folds ask for no counter array after Make.
TEST(ParallelIngestorArraysTest, UnpinnedFoldsAllocateNoArray) {
  const Stream stream = MakeZipfStream(kStreamItems, 51);
  auto ingestor = MakeBarrierIngestor(2, /*publish_every_batches=*/1);
  const size_t before = PageBuffer::AllocatedBytes();
  ASSERT_TRUE(ingestor->Ingest(std::span<const ItemId>(stream)).ok());
  auto pin = FoldBarrier(*ingestor);
  ASSERT_TRUE(pin.ok()) << pin.status().ToString();
  EXPECT_EQ(PageBuffer::AllocatedBytes() - before, 0u)
      << "of " << ingestor->SnapshotEpoch() - 1 << " folds";
  EXPECT_GT(ingestor->SnapshotEpoch(), 100u);
  EXPECT_EQ(Bytes(**pin), SequentialBytes(stream));
}

// A superseded snapshot a reader still pins cannot be recycled: the fold
// that supersedes it allocates exactly one array, the pin reads as it was
// published, and once it is released the next fold reuses its array.
TEST(ParallelIngestorArraysTest, PinnedSnapshotCostsOneArray) {
  const size_t one_array = OneArrayBytes();
  ASSERT_GT(one_array, 0u);
  const Stream stream = MakeZipfStream(30000, 53);
  const std::span<const ItemId> all(stream);
  auto ingestor = MakeBarrierIngestor(2);
  ASSERT_TRUE(ingestor->Ingest(all.first(10000)).ok());
  auto first = FoldBarrier(*ingestor);
  ASSERT_TRUE(first.ok());
  const std::shared_ptr<const CountSketch> pinned = *first;
  first->reset();
  const std::string pinned_bytes = Bytes(*pinned);
  EXPECT_EQ(pinned_bytes, SequentialBytes(all.first(10000)));

  size_t before = PageBuffer::AllocatedBytes();
  ASSERT_TRUE(ingestor->Ingest(all.subspan(10000, 10000)).ok());
  ASSERT_TRUE(FoldBarrier(*ingestor).ok());
  EXPECT_EQ(PageBuffer::AllocatedBytes() - before, one_array);
  EXPECT_EQ(Bytes(*pinned), pinned_bytes) << "a pinned snapshot changed";

  before = PageBuffer::AllocatedBytes();
  ASSERT_TRUE(ingestor->Ingest(all.subspan(20000)).ok());
  auto last = FoldBarrier(*ingestor);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(PageBuffer::AllocatedBytes() - before, 0u)
      << "an unpinned superseded snapshot was not recycled";
  EXPECT_EQ(Bytes(*pinned), pinned_bytes);
  EXPECT_EQ(Bytes(**last), SequentialBytes(all));
}

// Periodic folds, fold barriers and readers pinning snapshots across them
// mix recycled and fresh arrays; every barrier still pins the sequential
// prefix, and the final sketch equals sequential BatchAdd, at 1, 2 and 4
// threads.
TEST(ParallelIngestorArraysTest, RecycledArraysKeepResultsSequential) {
  const Stream stream = MakeZipfStream(60000, 55);
  const std::span<const ItemId> all(stream);
  for (const size_t threads : {1, 2, 4}) {
    for (const size_t every : {1, 3}) {
      auto ingestor = MakeBarrierIngestor(threads, every);
      std::vector<std::shared_ptr<const CountSketch>> pins;
      std::vector<std::string> pinned_bytes;
      size_t done = 0;
      for (const size_t chunk : {7000, 13000, 2500, 17500, 20000}) {
        ASSERT_TRUE(ingestor->Ingest(all.subspan(done, chunk)).ok());
        done += chunk;
        // Pin whatever readers see now, mid-fold or not.
        pins.push_back(ingestor->Snapshot());
        pinned_bytes.push_back(Bytes(*pins.back()));
        auto pin = FoldBarrier(*ingestor);
        ASSERT_TRUE(pin.ok()) << pin.status().ToString();
        EXPECT_EQ(Bytes(**pin), SequentialBytes(all.first(done)))
            << threads << " threads, fold every " << every << ", " << done
            << " items";
        if (pins.size() % 2 == 0) {
          pins.erase(pins.begin());
          pinned_bytes.erase(pinned_bytes.begin());
        }
      }
      ASSERT_EQ(done, stream.size());
      auto merged = ingestor->Finish();
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      EXPECT_EQ(Bytes(*merged), SequentialBytes(all));
      EXPECT_EQ(Bytes(*ingestor->Snapshot()), SequentialBytes(all));
      for (size_t i = 0; i < pins.size(); ++i) {
        EXPECT_EQ(Bytes(*pins[i]), pinned_bytes[i])
            << "a pinned snapshot changed";
      }
    }
  }
}

// Admission under overflow: a shed admission carries nothing and holds no
// place; a sampled one carries the kept items; an unused one gives its
// places back when destroyed.
TEST(ParallelIngestorTest, AdmissionAppliesThePolicyAndReleasesPlaces) {
  std::vector<ItemId> batch(64);
  for (size_t i = 0; i < batch.size(); ++i) batch[i] = i;
  for (const OverflowPolicy policy :
       {OverflowPolicy::kShed, OverflowPolicy::kSample}) {
    IngestOptions opts;
    opts.threads = 1;
    opts.batch_items = 64;
    opts.queue_batches = 1;
    opts.push_timeout_ms = 1;
    opts.overflow_policy = policy;
    opts.sample_keep_one_in = 4;
    auto ingestor = ParallelIngestor<CountSketch>::Make(SketchFactory(), opts);
    ASSERT_TRUE(ingestor.ok());
    {
      // Hold the only place: the next admission misses its deadline.
      auto held = (*ingestor)->Admit(batch);
      ASSERT_TRUE(held.ok());
      EXPECT_EQ(held->items().size(), batch.size());
      if (policy == OverflowPolicy::kShed) {
        auto shed = (*ingestor)->Admit(batch);
        ASSERT_TRUE(shed.ok());
        EXPECT_TRUE(shed->items().empty());
      }
    }  // `held` gives its place back unused
    if (policy == OverflowPolicy::kSample) {
      auto held = (*ingestor)->Admit(batch);
      ASSERT_TRUE(held.ok());
      std::thread release([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        auto unused = std::move(*held);
      });
      auto sampled = (*ingestor)->Admit(batch);
      release.join();
      ASSERT_TRUE(sampled.ok());
      EXPECT_EQ(sampled->items().size(), batch.size() / 4);
      (*ingestor)->Enqueue(std::move(*sampled));
    }
    auto merged = (*ingestor)->Finish();
    ASSERT_TRUE(merged.ok());
    const IngestStats stats = (*ingestor)->Stats();
    EXPECT_EQ(stats.items_ingested,
              policy == OverflowPolicy::kShed ? 0u : batch.size() / 4);
  }
}

}  // namespace
}  // namespace streamfreq
