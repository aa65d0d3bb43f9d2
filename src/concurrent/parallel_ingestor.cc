#include "concurrent/parallel_ingestor.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "util/failpoint.h"

namespace streamfreq {

namespace {

Status AlreadyFinished() {
  return Status::InvalidArgument("ParallelIngestor::Ingest: already finished");
}

}  // namespace

std::span<const ItemId> ParallelIngestor<CountSketch>::Admission::items()
    const {
  return items_;
}

ParallelIngestor<CountSketch>::~ParallelIngestor() { Shutdown(); }

ParallelIngestor<CountSketch>::ParallelIngestor(
    const IngestOptions& options, std::unique_ptr<CountSketch> latest,
    std::vector<CountSketch> locals)
    : options_(options),
      queue_(options.queue_batches),
      recycler_(std::make_shared<Recycler>()),
      latest_(Recyclable(std::move(latest))) {
  locals_.reserve(locals.size());
  for (CountSketch& local : locals) {
    locals_.push_back(Local{std::make_unique<CountSketch>(std::move(local))});
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

auto ParallelIngestor<CountSketch>::Make(Factory factory,
                                         IngestOptions options,
                                         std::optional<CountSketch> initial)
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
    STREAMFREQ_ASSIGN_OR_RETURN(CountSketch empty, factory());
    initial = std::move(empty);
  }
  auto latest = std::make_unique<CountSketch>(std::move(*initial));
  std::vector<CountSketch> locals;
  locals.reserve(options.threads);
  for (size_t i = 0; i < options.threads; ++i) {
    STREAMFREQ_ASSIGN_OR_RETURN(CountSketch local, factory());
    locals.push_back(std::move(local));
  }
  return std::unique_ptr<ParallelIngestor>(new ParallelIngestor(
      options, std::move(latest), std::move(locals)));
}

size_t ParallelIngestor<CountSketch>::MaxAdmitItems() const {
  const size_t batches = std::max<size_t>(1, options_.queue_batches);
  const size_t max = std::numeric_limits<size_t>::max();
  if (options_.batch_items > max / batches) return max;
  return options_.batch_items * batches;
}

size_t ParallelIngestor<CountSketch>::SlotsFor(size_t items) const {
  return (items + options_.batch_items - 1) / options_.batch_items;
}

void ParallelIngestor<CountSketch>::Admitted(Admission* admission,
                                             size_t slots,
                                             std::vector<ItemId> items) {
  admission->queue_ = &queue_;
  admission->slots_ = slots;
  admission->items_ = std::move(items);
}

auto ParallelIngestor<CountSketch>::Admit(std::span<const ItemId> items)
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

void ParallelIngestor<CountSketch>::Enqueue(Admission admission) {
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

Status ParallelIngestor<CountSketch>::Ingest(std::span<const ItemId> items) {
  while (!items.empty()) {
    const size_t take = std::min(items.size(), options_.batch_items);
    STREAMFREQ_ASSIGN_OR_RETURN(Admission admission,
                                Admit(items.first(take)));
    Enqueue(std::move(admission));
    items = items.subspan(take);
  }
  return Status::OK();
}

auto ParallelIngestor<CountSketch>::StartFold() -> FoldTicket {
  MutexLock lock(fold_mu_);
  if (!queue_.PushTokens(options_.threads)) return FoldTicket{0, true};
  return FoldTicket{folds_started_++, false};
}

Result<std::shared_ptr<const CountSketch>>
ParallelIngestor<CountSketch>::AwaitFold(FoldTicket ticket) {
  FoldOutcome outcome;
  if (ticket.finished) {
    {
      MutexLock lock(drain_mu_);
      while (active_workers_ > 0) drain_cv_.Wait(drain_mu_);
    }
    outcome = FoldResult();
  } else {
    MutexLock lock(fold_mu_);
    auto it = fold_results_.find(ticket.generation);
    while (it == fold_results_.end()) {
      fold_cv_.Wait(fold_mu_);
      it = fold_results_.find(ticket.generation);
    }
    outcome = std::move(it->second);
    fold_results_.erase(it);
  }
  if (!outcome.status.ok()) return outcome.status;
  return std::move(outcome.pin);
}

Status ParallelIngestor<CountSketch>::Drain() {
  Shutdown();
  MutexLock lock(merge_mu_);
  return first_error_;
}

Result<CountSketch> ParallelIngestor<CountSketch>::Finish() {
  STREAMFREQ_RETURN_NOT_OK(Drain());
  MutexLock lock(merge_mu_);
  return *latest_;
}

IngestStats ParallelIngestor<CountSketch>::Stats() const {
  IngestStats stats;
  stats.items_ingested = items_ingested_.load(std::memory_order_relaxed);
  stats.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
  stats.shed_batches = shed_batches_.load(std::memory_order_relaxed);
  stats.shed_items = shed_items_.load(std::memory_order_relaxed);
  stats.sampled_batches = sampled_batches_.load(std::memory_order_relaxed);
  stats.sampled_items_dropped =
      sampled_items_dropped_.load(std::memory_order_relaxed);
  stats.worker_respawns = worker_respawns_.load(std::memory_order_relaxed);
  stats.publish_failures = publish_failures_.load(std::memory_order_relaxed);
  return stats;
}

void ParallelIngestor<CountSketch>::RecordSpill(
    std::span<const ItemId> items) {
  if (!options_.record_shed || items.empty()) return;
  MutexLock lock(spill_mu_);
  spill_.insert(spill_.end(), items.begin(), items.end());
}

void ParallelIngestor<CountSketch>::RunWorker(size_t w) {
  while (!WorkerLoop(w)) {
    worker_respawns_.fetch_add(1, std::memory_order_relaxed);
  }
  MutexLock lock(drain_mu_);
  --active_workers_;
  drain_cv_.NotifyAll();
}

bool ParallelIngestor<CountSketch>::WorkerLoop(size_t w) {
  Local* local = &locals_[w];  // single-writer: only this thread
  while (auto batch = queue_.Pop()) {
    if (batch->empty()) {
      ArriveAtFold(local);  // a fold token
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

void ParallelIngestor<CountSketch>::ArriveAtFold(Local* own) {
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

auto ParallelIngestor<CountSketch>::FoldResult() -> FoldOutcome {
  MutexLock lock(merge_mu_);
  if (!first_error_.ok()) return {first_error_, nullptr};
  return {Status::OK(), latest_};
}

std::shared_ptr<const CountSketch> ParallelIngestor<CountSketch>::Recyclable(
    std::unique_ptr<CountSketch> sketch) {
  return std::shared_ptr<CountSketch>(
      sketch.release(), [recycler = recycler_](CountSketch* done) {
        std::unique_ptr<CountSketch> older;
        MutexLock lock(recycler->mu);
        older = std::exchange(recycler->spare,
                              std::unique_ptr<CountSketch>(done));
      });
}

void ParallelIngestor<CountSketch>::FoldAndPublish(
    std::span<Local* const> locals, bool refill) {
  MutexLock lock(merge_mu_);
  Local* own = locals.front();
  // Counters add mod 2^64, so the latest sketch added into this local is
  // the next merged sketch, bit for bit. The locals share the factory's
  // parameters, so once latest_ merges (a recovered `initial` is checked
  // here) so do they, and a failed fold has changed nothing.
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
  std::shared_ptr<const CountSketch> superseded =
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
    own->sketch = std::make_unique<CountSketch>(*latest_);
  }
  own->sketch->Clear();
}

void ParallelIngestor<CountSketch>::RecordError(const Status& s) {
  MutexLock lock(merge_mu_);
  if (first_error_.ok()) first_error_ = s;
}

void ParallelIngestor<CountSketch>::Shutdown() {
  queue_.Close();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

}  // namespace streamfreq
