// ParallelIngestor<SketchT>: sharded multi-threaded stream ingestion over
// mergeable summaries.
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
// superseded snapshot a reader pins.
//
// Linear sketches (CountSketch, CountMin) produce a merged result that is
// bit-identical to single-threaded ingestion of the same multiset — the
// counters are a linear function of the input, so the partition is
// invisible. Counter summaries (SpaceSaving, MisraGries) produce a
// guarantee-preserving merge instead (see their Merge contracts and
// docs/PARALLELISM.md); for those, prefer publish_every_batches = 0, since
// every intermediate fold adds a little merge slack.
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
// requeue the in-flight batch, and respawn; Finish can bound the shutdown
// drain (drain_timeout_ms), abandoning the backlog instead of hanging.
// Every dropped item is counted in IngestStats — and optionally recorded
// (record_shed) — so accuracy accounting can widen error bounds by exactly
// the shed mass.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "concurrent/batch_queue.h"
#include "concurrent/snapshot.h"
#include "core/count_sketch.h"
#include "stream/types.h"
#include "util/failpoint.h"
#include "util/mutex.h"
#include "util/result.h"

namespace streamfreq {

/// What a producer does with a batch the queue would not accept within its
/// deadline (only consulted when push_timeout_ms > 0).
enum class OverflowPolicy : uint8_t {
  /// Fail the Ingest call with IoError. The default: overload is loud.
  kBlock,
  /// Drop the whole batch, count it (shed_batches/shed_items), continue.
  kShed,
  /// Keep every sample_keep_one_in-th item of the batch and enqueue the
  /// remainder with a blocking push; count the rest as
  /// sampled_items_dropped. Trades a bounded accuracy hit for liveness.
  kSample,
};

/// Degradation counters, all zero on a fault-free run. The conservation
/// invariant (checked by tests and the chaos harness) is
///   items offered == items_ingested + shed_items + sampled_items_dropped
///                    + abandoned_items.
struct IngestStats {
  uint64_t items_ingested = 0;
  uint64_t deadline_misses = 0;   ///< push deadlines that expired
  uint64_t shed_batches = 0;      ///< kShed: whole batches dropped
  uint64_t shed_items = 0;
  uint64_t sampled_batches = 0;   ///< kSample: batches downsampled
  uint64_t sampled_items_dropped = 0;
  uint64_t worker_respawns = 0;   ///< crashed workers brought back
  uint64_t abandoned_batches = 0; ///< drain timeout: backlog discarded
  uint64_t abandoned_items = 0;
  uint64_t publish_failures = 0;  ///< snapshot publications skipped

  /// Total stream mass that never reached a sketch. Accuracy checkers must
  /// widen additive bounds by exactly this much (see docs/ROBUSTNESS.md).
  uint64_t DroppedItems() const {
    return shed_items + sampled_items_dropped + abandoned_items;
  }
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
  /// many batches. 0 publishes only at Finish — the right setting for
  /// counter summaries, whose merges accrue slack.
  size_t publish_every_batches = 0;
  /// Producer push deadline in milliseconds. 0 = block indefinitely
  /// (classic backpressure); > 0 = a miss triggers overflow_policy.
  uint64_t push_timeout_ms = 0;
  /// What to do when the push deadline expires.
  OverflowPolicy overflow_policy = OverflowPolicy::kBlock;
  /// kSample keeps one item in this many (clamped to >= 2).
  size_t sample_keep_one_in = 8;
  /// Bound on the Finish-time backlog drain in milliseconds. 0 = drain
  /// everything; > 0 = batches still queued at the deadline are discarded
  /// and counted as abandoned.
  uint64_t drain_timeout_ms = 0;
  /// Record every dropped item so callers (the chaos harness) can compute
  /// the exact effective stream. Off by default: it buffers shed mass.
  bool record_shed = false;
};

/// Shards a stream across worker threads that each ingest into a private
/// SketchT, folding results into a concurrently readable merged snapshot.
///
/// SketchT must be copyable and provide BatchAdd(span<const ItemId>),
/// Status Merge(const SketchT&) and Clear(); all sketches in src/core/ that
/// the ingestor is used with satisfy this.
template <typename SketchT>
class ParallelIngestor {
 public:
  /// Builds the workers' sketches and the empty epoch-0 snapshot. Capture
  /// shared params + seed so the results merge.
  using Factory = std::function<Result<SketchT>()>;

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
      std::optional<SketchT> initial = std::nullopt);

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
    std::span<const ItemId> items() const { return items_; }

   private:
    friend class ParallelIngestor;

    BatchQueue* queue_ = nullptr;
    size_t slots_ = 0;
    std::vector<ItemId> items_;
  };

  /// The most items one Admit takes: a full queue of batches.
  size_t MaxAdmitItems() const {
    const size_t batches = std::max<size_t>(1, options_.queue_batches);
    const size_t max = std::numeric_limits<size_t>::max();
    if (options_.batch_items > max / batches) return max;
    return options_.batch_items * batches;
  }

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
  /// a fold failed or a drain deadline abandoned batches.
  Result<std::shared_ptr<const SketchT>> AwaitFold(FoldTicket ticket)
      SFQ_EXCLUDES(fold_mu_, drain_mu_, merge_mu_);

  /// Drains the queue, joins the workers, folds every worker's remaining
  /// delta, publishes the final snapshot, and returns a copy of the merged
  /// sketch. Idempotent; the first internal error (if any) wins.
  Result<SketchT> Finish();

  /// Pins the latest published merged sketch: it stays valid and unchanged
  /// for as long as the caller holds the pointer, and is recycled or freed
  /// once it is superseded and unpinned. Never null: an empty sketch is
  /// published at construction. When `epoch` is given it receives the
  /// epoch of this snapshot, read together with it.
  std::shared_ptr<const SketchT> Snapshot(uint64_t* epoch = nullptr) const {
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

  size_t threads() const { return options_.threads; }

 private:
  /// Holds the last superseded snapshot that no reader pins any more: the
  /// next fold clears it and hands it to its worker as that worker's new
  /// private sketch. Shared with the deleter of every published snapshot,
  /// so a pin that outlives the ingestor still has somewhere to go.
  struct Recycler {
    Mutex mu;
    std::unique_ptr<SketchT> spare SFQ_GUARDED_BY(mu);
  };

  /// One worker's private sketch and how many batches it holds that no
  /// fold has taken yet (kept across a simulated crash). A fold publishes
  /// the folding worker's sketch and gives it another one; the worker's
  /// end-of-stream fold leaves it none.
  struct Local {
    std::unique_ptr<SketchT> sketch;
    size_t unfolded_batches = 0;
  };

  ParallelIngestor(const IngestOptions& options,
                   std::unique_ptr<SketchT> latest,
                   std::vector<SketchT> locals);

  /// Queue places for `items` items: one per batch.
  size_t SlotsFor(size_t items) const {
    return (items + options_.batch_items - 1) / options_.batch_items;
  }

  void Admitted(Admission* admission, size_t slots,
                std::vector<ItemId> items) {
    admission->queue_ = &queue_;
    admission->slots_ = slots;
    admission->items_ = std::move(items);
  }

  static Status AlreadyFinished() {
    return Status::InvalidArgument(
        "ParallelIngestor::Ingest: already finished");
  }

  void RecordSpill(std::span<const ItemId> items) SFQ_EXCLUDES(spill_mu_);

  /// Worker thread body: respawn WorkerLoop after every simulated crash
  /// (the crashed iteration has already requeued its in-flight batch, so
  /// no mass is lost and linear-sketch results stay bit-identical).
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

  /// What a fold barrier pinned, or why it does not cover what was
  /// admitted.
  struct FoldOutcome {
    Status status;
    std::shared_ptr<const SketchT> pin;
  };

  /// The merged sketch so far, or why it does not cover what was admitted.
  FoldOutcome FoldResult() SFQ_EXCLUDES(merge_mu_);

  static Result<std::shared_ptr<const SketchT>> Unpack(FoldOutcome outcome) {
    if (!outcome.status.ok()) return outcome.status;
    return std::move(outcome.pin);
  }

  /// Shares `sketch`; its last owner hands it to the recycler as the next
  /// spare, which frees any older spare.
  std::shared_ptr<const SketchT> Recyclable(std::unique_ptr<SketchT> sketch);

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

  void Shutdown() SFQ_EXCLUDES(drain_mu_);

  const IngestOptions options_;
  BatchQueue queue_;
  SnapshotCell<SketchT> snapshot_;
  std::atomic<uint64_t> items_ingested_{0};
  std::atomic<uint64_t> deadline_misses_{0};
  std::atomic<uint64_t> shed_batches_{0};
  std::atomic<uint64_t> shed_items_{0};
  std::atomic<uint64_t> sampled_batches_{0};
  std::atomic<uint64_t> sampled_items_dropped_{0};
  std::atomic<uint64_t> worker_respawns_{0};
  std::atomic<uint64_t> abandoned_batches_{0};
  std::atomic<uint64_t> abandoned_items_{0};
  std::atomic<uint64_t> publish_failures_{0};
  std::atomic<bool> abort_drain_{false};

  const std::shared_ptr<Recycler> recycler_;
  Mutex fold_mu_;
  CondVar fold_cv_;
  uint64_t folds_started_ SFQ_GUARDED_BY(fold_mu_) = 0;
  uint64_t folds_arrived_ SFQ_GUARDED_BY(fold_mu_) = 0;
  uint64_t folds_done_ SFQ_GUARDED_BY(fold_mu_) = 0;  ///< barriers released
  std::map<uint64_t, FoldOutcome> fold_results_ SFQ_GUARDED_BY(fold_mu_);

  Mutex merge_mu_;
  std::shared_ptr<const SketchT> latest_ SFQ_GUARDED_BY(merge_mu_);
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

template <typename SketchT>
ParallelIngestor<SketchT>::~ParallelIngestor() {
  Shutdown();
}

template <typename SketchT>
ParallelIngestor<SketchT>::ParallelIngestor(const IngestOptions& options,
                                            std::unique_ptr<SketchT> latest,
                                            std::vector<SketchT> locals)
    : options_(options),
      queue_(options.queue_batches),
      recycler_(std::make_shared<Recycler>()),
      latest_(Recyclable(std::move(latest))) {
  locals_.reserve(locals.size());
  for (SketchT& local : locals) {
    locals_.push_back(Local{std::make_unique<SketchT>(std::move(local))});
  }
  snapshot_.Publish(latest_);
  workers_.reserve(options_.threads);
  {
    MutexLock lock(drain_mu_);
    active_workers_ = options_.threads;
  }
  for (size_t w = 0; w < options_.threads; ++w) {
    workers_.emplace_back([this, w] { RunWorker(w); });
  }
}

template <typename SketchT>
auto ParallelIngestor<SketchT>::Make(Factory factory, IngestOptions options,
                                     std::optional<SketchT> initial)
    -> Result<std::unique_ptr<ParallelIngestor>> {
  if (options.threads == 0) {
    return Status::InvalidArgument("ParallelIngestor: threads must be >= 1");
  }
  if (options.batch_items == 0) {
    return Status::InvalidArgument(
        "ParallelIngestor: batch_items must be >= 1");
  }
  if (!factory) {
    return Status::InvalidArgument("ParallelIngestor: factory is empty");
  }
  options.sample_keep_one_in = std::max<size_t>(2, options.sample_keep_one_in);
  if (!initial) {
    STREAMFREQ_ASSIGN_OR_RETURN(SketchT empty, factory());
    initial = std::move(empty);
  }
  auto latest = std::make_unique<SketchT>(std::move(*initial));
  std::vector<SketchT> locals;
  locals.reserve(options.threads);
  for (size_t i = 0; i < options.threads; ++i) {
    STREAMFREQ_ASSIGN_OR_RETURN(SketchT local, factory());
    locals.push_back(std::move(local));
  }
  return std::unique_ptr<ParallelIngestor>(new ParallelIngestor(
      options, std::move(latest), std::move(locals)));
}

template <typename SketchT>
auto ParallelIngestor<SketchT>::Admit(std::span<const ItemId> items)
    -> Result<Admission> {
  Admission admission;
  if (items.empty()) return admission;
  if (items.size() > MaxAdmitItems()) {
    return Status::InvalidArgument(
        "ParallelIngestor::Admit: more items than the queue holds");
  }
  std::optional<std::chrono::milliseconds> timeout;
  if (options_.push_timeout_ms > 0) {
    timeout = std::chrono::milliseconds(options_.push_timeout_ms);
  }
  const size_t slots = SlotsFor(items.size());
  const QueuePushResult result = queue_.Reserve(slots, timeout);
  if (result == QueuePushResult::kClosed) return AlreadyFinished();
  if (result == QueuePushResult::kOk) {
    Admitted(&admission, slots,
             std::vector<ItemId>(items.begin(), items.end()));
    return admission;
  }

  deadline_misses_.fetch_add(1, std::memory_order_relaxed);
  switch (options_.overflow_policy) {
    case OverflowPolicy::kBlock:
      return Status::IoError(
          "ParallelIngestor::Ingest: push deadline exceeded "
          "(queue full; consumer stalled?)");
    case OverflowPolicy::kShed:
      shed_batches_.fetch_add(slots, std::memory_order_relaxed);
      shed_items_.fetch_add(items.size(), std::memory_order_relaxed);
      RecordSpill(items);
      return admission;
    case OverflowPolicy::kSample: {
      // Deterministic 1-in-k decimation within each batch: keep batch
      // indices 0, k, 2k, ...
      sampled_batches_.fetch_add(slots, std::memory_order_relaxed);
      std::vector<ItemId> kept;
      std::vector<ItemId> dropped;
      kept.reserve(items.size() / options_.sample_keep_one_in + 1);
      for (size_t i = 0; i < items.size(); ++i) {
        if (i % options_.batch_items % options_.sample_keep_one_in == 0) {
          kept.push_back(items[i]);
        } else {
          dropped.push_back(items[i]);
        }
      }
      sampled_items_dropped_.fetch_add(dropped.size(),
                                       std::memory_order_relaxed);
      RecordSpill(dropped);
      // The decimated batch goes in with classic backpressure: it is
      // 1/k of the load, and dropping it too would be double shedding.
      const size_t kept_slots = SlotsFor(kept.size());
      if (queue_.Reserve(kept_slots, std::nullopt) !=
          QueuePushResult::kOk) {
        return AlreadyFinished();
      }
      Admitted(&admission, kept_slots, std::move(kept));
      return admission;
    }
  }
  return Status::Internal("ParallelIngestor: unreachable overflow policy");
}

template <typename SketchT>
void ParallelIngestor<SketchT>::Enqueue(Admission admission) {
  if (admission.slots_ == 1) {
    admission.slots_ = 0;
    queue_.Commit(std::move(admission.items_));
    return;
  }
  std::span<const ItemId> rest = admission.items_;
  while (admission.slots_ > 0) {
    const size_t take = std::min(rest.size(), options_.batch_items);
    --admission.slots_;
    queue_.Commit(std::vector<ItemId>(rest.begin(), rest.begin() + take));
    rest = rest.subspan(take);
  }
}

template <typename SketchT>
Status ParallelIngestor<SketchT>::Ingest(std::span<const ItemId> items) {
  while (!items.empty()) {
    const size_t take = std::min(items.size(), options_.batch_items);
    STREAMFREQ_ASSIGN_OR_RETURN(Admission admission,
                                Admit(items.first(take)));
    Enqueue(std::move(admission));
    items = items.subspan(take);
  }
  return Status::OK();
}

template <typename SketchT>
auto ParallelIngestor<SketchT>::StartFold() -> FoldTicket {
  MutexLock lock(fold_mu_);
  if (!queue_.PushTokens(options_.threads)) return FoldTicket{0, true};
  return FoldTicket{folds_started_++, false};
}

template <typename SketchT>
Result<std::shared_ptr<const SketchT>> ParallelIngestor<SketchT>::AwaitFold(
    FoldTicket ticket) {
  if (ticket.finished) {
    {
      MutexLock lock(drain_mu_);
      while (active_workers_ > 0) drain_cv_.Wait(drain_mu_);
    }
    return Unpack(FoldResult());
  }
  FoldOutcome outcome;
  {
    MutexLock lock(fold_mu_);
    auto it = fold_results_.find(ticket.generation);
    while (it == fold_results_.end()) {
      fold_cv_.Wait(fold_mu_);
      it = fold_results_.find(ticket.generation);
    }
    outcome = std::move(it->second);
    fold_results_.erase(it);
  }
  return Unpack(std::move(outcome));
}

template <typename SketchT>
Result<SketchT> ParallelIngestor<SketchT>::Finish() {
  Shutdown();
  MutexLock lock(merge_mu_);
  if (!first_error_.ok()) return first_error_;
  return *latest_;
}

template <typename SketchT>
IngestStats ParallelIngestor<SketchT>::Stats() const {
  IngestStats stats;
  stats.items_ingested = items_ingested_.load(std::memory_order_relaxed);
  stats.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
  stats.shed_batches = shed_batches_.load(std::memory_order_relaxed);
  stats.shed_items = shed_items_.load(std::memory_order_relaxed);
  stats.sampled_batches = sampled_batches_.load(std::memory_order_relaxed);
  stats.sampled_items_dropped =
      sampled_items_dropped_.load(std::memory_order_relaxed);
  stats.worker_respawns = worker_respawns_.load(std::memory_order_relaxed);
  stats.abandoned_batches =
      abandoned_batches_.load(std::memory_order_relaxed);
  stats.abandoned_items = abandoned_items_.load(std::memory_order_relaxed);
  stats.publish_failures = publish_failures_.load(std::memory_order_relaxed);
  return stats;
}

template <typename SketchT>
void ParallelIngestor<SketchT>::RecordSpill(std::span<const ItemId> items) {
  if (!options_.record_shed || items.empty()) return;
  MutexLock lock(spill_mu_);
  spill_.insert(spill_.end(), items.begin(), items.end());
}

template <typename SketchT>
void ParallelIngestor<SketchT>::RunWorker(size_t w) {
  while (!WorkerLoop(w)) {
    worker_respawns_.fetch_add(1, std::memory_order_relaxed);
  }
  MutexLock lock(drain_mu_);
  --active_workers_;
  drain_cv_.NotifyAll();
}

template <typename SketchT>
bool ParallelIngestor<SketchT>::WorkerLoop(size_t w) {
  Local* local = &locals_[w];  // single-writer: only this thread
  while (auto batch = queue_.Pop()) {
    if (batch->empty()) {
      ArriveAtFold(local);  // a fold token
      continue;
    }
    if (abort_drain_.load(std::memory_order_relaxed)) {
      // Drain deadline passed: discard the backlog instead of hanging.
      abandoned_batches_.fetch_add(1, std::memory_order_relaxed);
      abandoned_items_.fetch_add(batch->size(), std::memory_order_relaxed);
      RecordSpill(*batch);
      continue;
    }
    if (const FailDecision fp = SFQ_FAILPOINT("ingestor.worker_batch"); fp) {
      if (fp.action == FailAction::kStall) {
        std::this_thread::sleep_for(std::chrono::milliseconds(fp.param));
      } else if (fp.action == FailAction::kCrash) {
        // Die before touching the sketch; the batch goes back first so
        // the respawned worker (or a peer) re-processes it exactly once.
        queue_.Requeue(std::move(*batch));
        return false;
      } else if (fp.action == FailAction::kError) {
        RecordError(Status::Internal(
            "injected failure: ingestor.worker_batch"));
      }
    }
    local->sketch->BatchAdd(std::span<const ItemId>(*batch));
    items_ingested_.fetch_add(batch->size(), std::memory_order_relaxed);
    if (++local->unfolded_batches == options_.publish_every_batches) {
      // The fold runs on this worker's thread, so nothing writes the
      // local while it is read.
      FoldAndPublish(std::span<Local* const>(&local, 1), /*refill=*/true);
    }
  }
  // The queue is closed and drained, and every fold barrier is done (each
  // took one token from this worker), so nothing reads this local again.
  FoldAndPublish(std::span<Local* const>(&local, 1), /*refill=*/false);
  return true;
}

template <typename SketchT>
void ParallelIngestor<SketchT>::ArriveAtFold(Local* own) {
  uint64_t generation;
  {
    MutexLock lock(fold_mu_);
    generation = folds_arrived_ / options_.threads;
    if (++folds_arrived_ < (generation + 1) * options_.threads) {
      while (folds_done_ <= generation) fold_cv_.Wait(fold_mu_);
      return;
    }
  }
  // This worker's local takes the fold: it goes first.
  std::vector<Local*> unfolded{own};
  for (Local& local : locals_) {
    if (&local != own && local.unfolded_batches > 0) {
      unfolded.push_back(&local);
    }
  }
  if (own->unfolded_batches > 0 || unfolded.size() > 1) {
    FoldAndPublish(unfolded, /*refill=*/true);
  }
  // Everything before the tokens is folded and nothing after them has
  // been taken: the merged sketch is exactly the cut.
  FoldOutcome outcome = FoldResult();
  {
    MutexLock lock(fold_mu_);
    fold_results_.emplace(generation, std::move(outcome));
    folds_done_ = generation + 1;
  }
  fold_cv_.NotifyAll();
}

template <typename SketchT>
auto ParallelIngestor<SketchT>::FoldResult() -> FoldOutcome {
  if (abandoned_items_.load(std::memory_order_relaxed) > 0) {
    return {Status::IoError(
                "ParallelIngestor: drain deadline abandoned admitted batches"),
            nullptr};
  }
  MutexLock lock(merge_mu_);
  if (!first_error_.ok()) return {first_error_, nullptr};
  return {Status::OK(), latest_};
}

template <typename SketchT>
std::shared_ptr<const SketchT> ParallelIngestor<SketchT>::Recyclable(
    std::unique_ptr<SketchT> sketch) {
  return std::shared_ptr<SketchT>(
      sketch.release(), [recycler = recycler_](SketchT* done) {
        std::unique_ptr<SketchT> older;
        MutexLock lock(recycler->mu);
        older = std::exchange(recycler->spare,
                              std::unique_ptr<SketchT>(done));
      });
}

template <typename SketchT>
void ParallelIngestor<SketchT>::FoldAndPublish(std::span<Local* const> locals,
                                              bool refill) {
  MutexLock lock(merge_mu_);
  Local* own = locals.front();
  // A linear sketch's counters add mod 2^64, so the latest sketch added
  // into this local is the next merged sketch, bit for bit. The locals
  // share the factory's parameters, so once latest_ merges (a recovered
  // `initial` is checked here) so do they, and a failed fold has changed
  // nothing.
  Status s = own->sketch->Merge(*latest_);
  for (Local* other : locals.subspan(1)) {
    if (!s.ok()) break;
    s = own->sketch->Merge(*other->sketch);
  }
  if (!s.ok()) {
    if (first_error_.ok()) first_error_ = s;
    return;
  }
  for (Local* local : locals) {
    if (local != own) local->sketch->Clear();
    local->unfolded_batches = 0;
  }
  std::shared_ptr<const SketchT> superseded =
      std::exchange(latest_, Recyclable(std::move(own->sketch)));
  // A publish fault degrades freshness, never correctness: the merged
  // mass is kept in latest_, readers just keep the previous snapshot.
  if (const FailDecision fp = SFQ_FAILPOINT("ingestor.publish");
      fp.action == FailAction::kError) {
    publish_failures_.fetch_add(1, std::memory_order_relaxed);
  } else {
    snapshot_.Publish(latest_);
  }
  if (!refill) return;
  // Unless a reader pins it, the superseded snapshot goes to the recycler
  // here and comes straight back as this worker's next sketch.
  superseded.reset();
  {
    MutexLock recycler_lock(recycler_->mu);
    own->sketch = std::move(recycler_->spare);
  }
  if (own->sketch == nullptr) {
    own->sketch = std::make_unique<SketchT>(*latest_);
  }
  own->sketch->Clear();
}

template <typename SketchT>
void ParallelIngestor<SketchT>::RecordError(const Status& s) {
  MutexLock lock(merge_mu_);
  if (first_error_.ok()) first_error_ = s;
}

template <typename SketchT>
void ParallelIngestor<SketchT>::Shutdown() {
  queue_.Close();
  if (options_.drain_timeout_ms > 0) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.drain_timeout_ms);
    MutexLock lock(drain_mu_);
    while (active_workers_ > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        // Tell workers to discard what remains; they exit promptly since
        // Pop never blocks after Close.
        abort_drain_.store(true, std::memory_order_relaxed);
        break;
      }
      (void)drain_cv_.WaitFor(
          drain_mu_, std::chrono::duration_cast<std::chrono::milliseconds>(
                         deadline - now) +
                         std::chrono::milliseconds(1));
    }
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

// The served tenants, the durable store, the CLI and the benchmarks all run
// a CountSketch ingestor: it is compiled once, in parallel_ingestor.cc,
// rather than in every file that uses it.
extern template class ParallelIngestor<CountSketch>;

/// Wraps shared construction parameters into a Factory: every sketch the
/// ingestor builds shares params (and therefore seed and hash functions),
/// which is exactly the Merge compatibility requirement. Works for any
/// SketchT with a static Make(ParamsT) — CountSketch(CountSketchParams),
/// CountMin(CountMinParams), SpaceSaving/MisraGries(capacity).
template <typename SketchT, typename ParamsT>
typename ParallelIngestor<SketchT>::Factory MakeSharedParamsFactory(
    ParamsT params) {
  return [params]() -> Result<SketchT> { return SketchT::Make(params); };
}

/// One-shot convenience: shards `stream` across options.threads workers and
/// returns the merged sketch. For linear sketches the result is identical
/// to sequential ingestion of `stream` at every thread count.
template <typename SketchT>
Result<SketchT> ParallelIngest(std::span<const ItemId> stream,
                               typename ParallelIngestor<SketchT>::Factory factory,
                               const IngestOptions& options) {
  STREAMFREQ_ASSIGN_OR_RETURN(
      std::unique_ptr<ParallelIngestor<SketchT>> ingestor,
      ParallelIngestor<SketchT>::Make(std::move(factory), options));
  STREAMFREQ_RETURN_NOT_OK(ingestor->Ingest(stream));
  return ingestor->Finish();
}

}  // namespace streamfreq
