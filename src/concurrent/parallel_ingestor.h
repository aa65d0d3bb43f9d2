// ParallelIngestor<CountSketch>: sharded multi-threaded stream ingestion
// into a Count-Sketch.
//
// The paper's additivity observation ("sketches for two streams can be
// directly added") is the whole parallelization strategy: N worker threads
// each own a private sketch built from the same parameters and seed, the
// producer shards the stream into batches over a bounded queue, and worker
// results are folded by Merge. No counter is ever touched by two threads.
//
//   producers --Ingest(span)--> BatchQueue --> worker 0: local sketch
//                                          --> worker 1: local sketch
//                                          ...
//              periodic + final folds (merge mutex):
//                  latest' = worker's local + latest --> latest
//                             publication --> SnapshotCell (epoch, pinned
//                                             readers)
//                  worker's new local = superseded latest, cleared
//
// The latest merged sketch is itself the published snapshot (immutable,
// shared with readers). A fold adds it into the folding worker's own
// private sketch and publishes that sketch as the new latest: counters add
// mod 2^64, so local + latest is the next merged sketch bit for bit, and
// nothing is copied. The worker's next private sketch is the superseded
// snapshot, cleared, handed back by its shared_ptr deleter once no reader
// pins it; only while a reader still pins it does a fold allocate a new
// zeroed array. An ingestor holds threads + 1 counter arrays, plus one per
// superseded snapshot a reader pins. The merged result is bit-identical to
// single-threaded ingestion of the same multiset: the counters are a
// linear function of the input, so the partition is invisible.
//
// Reads never wait for a fold: Snapshot() pins the latest published merged
// sketch, an immutable copy (concurrent/snapshot.h), so queries run
// concurrently with ingestion at any thread count. A superseded copy is
// recycled or freed once no reader pins it, so memory does not grow with
// publications.
//
// Producers go through two steps, Admit and Enqueue. Admit reserves queue
// places, waiting if it must, and applies the overflow policy; Enqueue
// fills the reserved places and never blocks. Ingest is Admit + Enqueue
// per batch. A durable tenant journals the admitted items between the two
// steps under its own lock (server/snapshotter.h), so its journal holds
// exactly what the workers will fold, in queue order.
//
// Fold barrier (StartFold + AwaitFold): StartFold queues one fold token
// per worker behind every batch enqueued so far and never blocks. A worker
// that pops a token waits until every token of that barrier has been
// popped, so no worker takes a batch queued after the tokens. The last
// worker to arrive folds every worker's private sketch in one fold and
// pins the result: it covers exactly the batches enqueued before the
// tokens. A crashed worker requeues its batch at the front, ahead of the
// tokens, so the barrier still covers it.
//
// Degraded modes (docs/ROBUSTNESS.md): producers can bound their push wait
// (push_timeout_ms) and pick an OverflowPolicy for what happens when the
// deadline passes — fail the Ingest call, shed the batch, or downsample it.
// Workers detect simulated crashes (SFQ_FAILPOINT "ingestor.worker_batch"),
// requeue the in-flight batch, and respawn. Every dropped item is counted
// in IngestStats — and optionally recorded (record_shed) — so accuracy
// accounting can widen error bounds by exactly the shed mass.
//
// Every program that ingests in parallel does so into a CountSketch, so
// the ingestor is one concrete class: the header declares it and
// parallel_ingestor.cc defines it. It keeps the template spelling
// ParallelIngestor<CountSketch>, an explicit specialization of a template
// that has no other definition, and the factory form of Make, only because
// sfq_bench/layers.cc calls ParallelIngestor<CountSketch>::Make with a
// factory lambda; a rename and a Make that takes CountSketchParams can
// come once that caller changes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "concurrent/batch_queue.h"
#include "concurrent/overflow_policy.h"
#include "concurrent/snapshot.h"
#include "core/count_sketch.h"
#include "stream/types.h"
#include "util/mutex.h"
#include "util/result.h"

namespace streamfreq {

/// Degradation counters, all zero on a fault-free run. The conservation
/// invariant (checked by tests and the chaos harness) is
///   items offered == items_ingested + shed_items + sampled_items_dropped.
struct IngestStats {
  uint64_t items_ingested = 0;
  uint64_t deadline_misses = 0;   ///< push deadlines that expired
  uint64_t shed_batches = 0;      ///< kShed: whole batches dropped
  uint64_t shed_items = 0;
  uint64_t sampled_batches = 0;   ///< kSample: batches downsampled
  uint64_t sampled_items_dropped = 0;
  uint64_t worker_respawns = 0;   ///< crashed workers brought back
  uint64_t publish_failures = 0;  ///< snapshot publications skipped

  /// Total stream mass that never reached a sketch. Accuracy checkers must
  /// widen additive bounds by exactly this much (see docs/ROBUSTNESS.md).
  uint64_t DroppedItems() const { return shed_items + sampled_items_dropped; }
};

/// Tuning knobs for ParallelIngestor.
struct IngestOptions {
  /// Worker threads (>= 1). Each owns a full private sketch; with the
  /// latest merged sketch, memory is (threads + 1) x SpaceBytes() plus one
  /// per superseded snapshot a reader still pins.
  size_t threads = 4;
  /// Items per queued batch: the granularity of sharding and of the
  /// BatchAdd fast path. Larger batches amortize queue locking further but
  /// add latency before work reaches idle workers.
  size_t batch_items = 8192;
  /// Bound on in-flight batches (backpressure for producers).
  size_t queue_batches = 64;
  /// When > 0, a worker folds its private sketch into the latest merged
  /// sketch and publishes a fresh snapshot after ingesting this
  /// many batches. 0 publishes only at fold barriers and at Finish.
  size_t publish_every_batches = 0;
  /// Producer push deadline in milliseconds. 0 = block indefinitely
  /// (classic backpressure); > 0 = a miss triggers overflow_policy.
  uint64_t push_timeout_ms = 0;
  /// What to do when the push deadline expires.
  OverflowPolicy overflow_policy = OverflowPolicy::kBlock;
  /// kSample keeps one item in this many (clamped to >= 2).
  size_t sample_keep_one_in = 8;
  /// Record every dropped item so callers (the chaos harness) can compute
  /// the exact effective stream. Off by default: it buffers shed mass.
  bool record_shed = false;
};

/// Declared only: CountSketch is the one sketch the ingestor runs.
template <typename>
class ParallelIngestor;

/// Shards a stream across worker threads that each ingest into a private
/// CountSketch, folding results into a concurrently readable merged
/// snapshot.
template <>
class ParallelIngestor<CountSketch> {
 public:
  /// Builds the workers' sketches and the empty epoch-0 snapshot. Capture
  /// shared params + seed so the results merge.
  using Factory = std::function<Result<CountSketch>()>;

  /// Validates options, builds every worker's private sketch up front (the
  /// factory is not called after Make, so its errors surface here),
  /// publishes an empty epoch-0 snapshot, and starts the workers.
  ///
  /// When `initial` is set it is the epoch-0 snapshot instead of an empty
  /// sketch, so every later fold includes that state. This is the
  /// crash-recovery seam — the server seeds a recovered sketch here and
  /// then replays only the journal tail (sketch linearity makes the result
  /// identical to re-ingesting the whole stream). `initial` must be
  /// mergeable with the factory's sketches (same geometry and seed).
  static Result<std::unique_ptr<ParallelIngestor>> Make(
      Factory factory, IngestOptions options,
      std::optional<CountSketch> initial = std::nullopt);

  ~ParallelIngestor();

  ParallelIngestor(const ParallelIngestor&) = delete;
  ParallelIngestor& operator=(const ParallelIngestor&) = delete;

  /// Items that passed Admit, holding their queue places until Enqueue.
  /// Destroying one that was never enqueued gives the places back.
  class Admission {
   public:
    Admission() = default;
    Admission(Admission&& other) noexcept
        : queue_(std::exchange(other.queue_, nullptr)),
          slots_(std::exchange(other.slots_, 0)),
          items_(std::move(other.items_)) {}
    ~Admission() {
      if (slots_ > 0) queue_->Release(slots_);
    }

    /// What the workers will fold: every offered item, the kept sample
    /// (kSample), or nothing (kShed).
    std::span<const ItemId> items() const;

   private:
    friend class ParallelIngestor;

    BatchQueue* queue_ = nullptr;
    size_t slots_ = 0;
    std::vector<ItemId> items_;
  };

  /// The most items one Admit takes: a full queue of batches.
  size_t MaxAdmitItems() const;

  /// Reserves queue places for `items` (at most MaxAdmitItems()), blocking
  /// while the queue is full (up to push_timeout_ms when set, then
  /// applying overflow_policy), and copies what is admitted. Fails once
  /// Finish has been called, or under kBlock when the deadline passes.
  Result<Admission> Admit(std::span<const ItemId> items)
      SFQ_EXCLUDES(spill_mu_);

  /// Hands admitted items to the workers, in batches of batch_items, into
  /// the places Admit reserved. Never blocks; accepted even after Finish
  /// began, since the places were reserved before it.
  void Enqueue(Admission admission);

  /// Admits and enqueues `items` batch by batch. Safe to call from
  /// multiple producer threads. Fails once Finish has been called.
  Status Ingest(std::span<const ItemId> items);

  /// A started fold barrier: the generation whose tokens were queued, or
  /// `finished` when the queue had already closed.
  struct FoldTicket {
    uint64_t generation = 0;
    bool finished = false;
  };

  /// Queues one fold token per worker behind every batch enqueued so far.
  /// Never blocks, so a caller may hold its own lock; every ticket must be
  /// passed to AwaitFold.
  FoldTicket StartFold() SFQ_EXCLUDES(fold_mu_);

  /// Waits for `ticket`'s barrier and pins the merged sketch of exactly the
  /// batches enqueued before its tokens, whether or not the ingestor.publish
  /// failpoint withheld that sketch from readers. A ticket taken after
  /// Finish began waits for the drain and pins the final sketch. Fails when
  /// a fold failed.
  Result<std::shared_ptr<const CountSketch>> AwaitFold(FoldTicket ticket)
      SFQ_EXCLUDES(fold_mu_, drain_mu_, merge_mu_);

  /// Drains the queue, joins the workers, folds every worker's remaining
  /// delta and publishes the final snapshot. Idempotent; returns the first
  /// internal error, if any.
  Status Drain();

  /// Drain, then a copy of the merged sketch.
  Result<CountSketch> Finish();

  /// Pins the latest published merged sketch: it stays valid and unchanged
  /// for as long as the caller holds the pointer, and is recycled or freed
  /// once it is superseded and unpinned. Never null: an empty sketch is
  /// published at construction. When `epoch` is given it receives the
  /// epoch of this snapshot, read together with it.
  std::shared_ptr<const CountSketch> Snapshot(uint64_t* epoch = nullptr) const {
    return snapshot_.Read(epoch);
  }

  /// Publication count: 1 after construction, +1 per periodic or final
  /// fold. A reader that remembers the epoch can poll for freshness.
  uint64_t SnapshotEpoch() const { return snapshot_.Epoch(); }

  /// Items ingested by workers so far (relaxed; exact after Finish).
  uint64_t ItemsIngested() const {
    return items_ingested_.load(std::memory_order_relaxed);
  }

  /// Degradation counters (relaxed reads; exact after Finish).
  IngestStats Stats() const;

  /// Every item dropped so far, in drop order (requires record_shed; empty
  /// otherwise). Call after Finish for the complete spill.
  std::vector<ItemId> SpilledItems() const {
    MutexLock lock(spill_mu_);
    return spill_;
  }

 private:
  /// Holds the last superseded snapshot that no reader pins any more: the
  /// next fold clears it and hands it to its worker as that worker's new
  /// private sketch. Shared with the deleter of every published snapshot,
  /// so a pin that outlives the ingestor still has somewhere to go.
  struct Recycler {
    Mutex mu;
    std::unique_ptr<CountSketch> spare SFQ_GUARDED_BY(mu);
  };

  /// One worker's private sketch and how many batches it holds that no
  /// fold has taken yet (kept across a simulated crash). A fold publishes
  /// the folding worker's sketch and gives it another one; the worker's
  /// end-of-stream fold leaves it none.
  struct Local {
    std::unique_ptr<CountSketch> sketch;
    size_t unfolded_batches = 0;
  };

  /// What a fold barrier pinned, or why it does not cover what was
  /// admitted.
  struct FoldOutcome {
    Status status;
    std::shared_ptr<const CountSketch> pin;
  };

  ParallelIngestor(const IngestOptions& options,
                   std::unique_ptr<CountSketch> latest,
                   std::vector<CountSketch> locals);

  /// Queue places for `items` items: one per batch.
  size_t SlotsFor(size_t items) const;

  void Admitted(Admission* admission, size_t slots,
                std::vector<ItemId> items);

  void RecordSpill(std::span<const ItemId> items) SFQ_EXCLUDES(spill_mu_);

  /// Worker thread body: respawn WorkerLoop after every simulated crash
  /// (the crashed iteration has already requeued its in-flight batch, so
  /// no mass is lost and the result stays bit-identical).
  void RunWorker(size_t w) SFQ_EXCLUDES(drain_mu_);

  /// Pops batches into this worker's private sketch; folds periodically
  /// when configured, at every fold token, and always once at
  /// end-of-stream. Returns false iff the worker "crashed" (fault
  /// injection) and must be respawned.
  bool WorkerLoop(size_t w);

  /// Worker `own`'s arrival at the oldest open fold barrier. Tokens of one
  /// barrier sit together in the queue and each arrival waits here until
  /// the barrier is done, so every worker takes exactly one of them. The
  /// last to arrive folds every worker's local into its own in one fold
  /// while the others stay parked and write nothing; it folds outside
  /// fold_mu_, so StartFold never waits for a fold.
  void ArriveAtFold(Local* own) SFQ_EXCLUDES(fold_mu_);

  /// The merged sketch so far, or the fold error that keeps it from
  /// covering what was admitted.
  FoldOutcome FoldResult() SFQ_EXCLUDES(merge_mu_);

  /// Shares `sketch`; its last owner hands it to the recycler as the next
  /// spare, which frees any older spare.
  std::shared_ptr<const CountSketch> Recyclable(
      std::unique_ptr<CountSketch> sketch);

  /// Adds the latest merged sketch and every other local in `locals` into
  /// the first local's sketch, publishes that sketch as the new latest,
  /// and clears the other locals for their next batches. With `refill` the
  /// first local gets the superseded snapshot, cleared, as its next sketch
  /// (the recycler's spare, or a new zeroed array while a reader pins
  /// every superseded snapshot); without it the first local is left with
  /// none. Serialized by merge_mu_; the publication itself never blocks
  /// readers. The caller guarantees nothing writes the locals meanwhile.
  void FoldAndPublish(std::span<Local* const> locals, bool refill)
      SFQ_EXCLUDES(merge_mu_);

  void RecordError(const Status& s) SFQ_EXCLUDES(merge_mu_);

  /// Closes the queue and joins the workers, which drain it first.
  void Shutdown() SFQ_EXCLUDES(drain_mu_);

  const IngestOptions options_;
  BatchQueue queue_;
  SnapshotCell<CountSketch> snapshot_;
  std::atomic<uint64_t> items_ingested_{0};
  std::atomic<uint64_t> deadline_misses_{0};
  std::atomic<uint64_t> shed_batches_{0};
  std::atomic<uint64_t> shed_items_{0};
  std::atomic<uint64_t> sampled_batches_{0};
  std::atomic<uint64_t> sampled_items_dropped_{0};
  std::atomic<uint64_t> worker_respawns_{0};
  std::atomic<uint64_t> publish_failures_{0};

  const std::shared_ptr<Recycler> recycler_;
  Mutex fold_mu_;
  CondVar fold_cv_;
  uint64_t folds_started_ SFQ_GUARDED_BY(fold_mu_) = 0;
  uint64_t folds_arrived_ SFQ_GUARDED_BY(fold_mu_) = 0;
  uint64_t folds_done_ SFQ_GUARDED_BY(fold_mu_) = 0;  ///< barriers released
  std::map<uint64_t, FoldOutcome> fold_results_ SFQ_GUARDED_BY(fold_mu_);

  Mutex merge_mu_;
  std::shared_ptr<const CountSketch> latest_ SFQ_GUARDED_BY(merge_mu_);
  Status first_error_ SFQ_GUARDED_BY(merge_mu_);

  mutable Mutex spill_mu_;
  std::vector<ItemId> spill_ SFQ_GUARDED_BY(spill_mu_);

  Mutex drain_mu_;
  CondVar drain_cv_;
  size_t active_workers_ SFQ_GUARDED_BY(drain_mu_) = 0;

  // Not lock-protected by design: slot w is written only by worker w, or
  // by the last worker at a fold barrier while worker w is parked there,
  // and the final read happens after the workers are joined.
  // NOLINTNEXTLINE(sfq-unguarded-member): single-writer-per-slot, joined before read
  std::vector<Local> locals_;
  std::vector<std::thread> workers_;
};

}  // namespace streamfreq
