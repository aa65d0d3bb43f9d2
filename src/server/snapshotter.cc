#include "server/snapshotter.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <string_view>
#include <thread>
#include <utility>

#include "core/sketch_io.h"
#include "util/bytes.h"
#include "util/failpoint.h"

namespace streamfreq {

namespace {

constexpr char kSnapshotFile[] = "snapshot.sfs";
constexpr std::string_view kJournalPrefix = "journal.";
constexpr std::string_view kJournalSuffix = ".sfw";
// The single journal of a directory written before segments existed.
constexpr char kLegacyJournalFile[] = "journal.sfw";

/// The journal segments in `dir`, oldest first: the pre-segment
/// `journal.sfw`, then `journal.<first seqno>.sfw` by first seqno.
Result<std::vector<std::string>> ListJournalSegments(const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name == kLegacyJournalFile) {
      found.emplace_back(0, entry.path().string());
      continue;
    }
    if (name.size() <= kJournalPrefix.size() + kJournalSuffix.size() ||
        !name.starts_with(kJournalPrefix) || !name.ends_with(kJournalSuffix)) {
      continue;
    }
    const std::string_view middle = std::string_view(name).substr(
        kJournalPrefix.size(),
        name.size() - kJournalPrefix.size() - kJournalSuffix.size());
    uint64_t first = 0;
    const auto [end, err] =
        std::from_chars(middle.data(), middle.data() + middle.size(), first);
    if (err != std::errc() || end != middle.data() + middle.size() ||
        first == 0) {
      continue;  // not a segment name
    }
    found.emplace_back(first, entry.path().string());
  }
  if (ec) {
    return Status::IoError("tenant store: cannot list dir: " + dir + ": " +
                           ec.message());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  for (auto& [first, path] : found) paths.push_back(std::move(path));
  return paths;
}

}  // namespace

IngestOptions IngestOptionsFor(const TenantSpec& spec) {
  IngestOptions options;
  options.threads = static_cast<size_t>(spec.threads);
  options.batch_items = static_cast<size_t>(spec.batch_items);
  options.queue_batches = static_cast<size_t>(spec.queue_batches);
  options.publish_every_batches =
      static_cast<size_t>(spec.publish_every_batches);
  options.push_timeout_ms = spec.push_timeout_ms;
  options.overflow_policy = spec.policy;
  options.sample_keep_one_in = static_cast<size_t>(spec.sample_keep_one_in);
  return options;
}

std::string TenantStore::SnapshotPath(const std::string& dir) {
  return dir + "/" + kSnapshotFile;
}

std::string TenantStore::JournalPath(const std::string& dir,
                                     uint64_t first_seqno) {
  return dir + "/" + std::string(kJournalPrefix) +
         std::to_string(first_seqno) + std::string(kJournalSuffix);
}

void TenantLedger::EncodeTo(ByteWriter& w) const {
  w.PutU64(rejected_items);
  w.PutU64(rejected_requests);
  w.PutU64(queries);
  w.PutU64(stale_serves);
  w.PutU64(sealed ? 1 : 0);
}

Status TenantLedger::DecodeFrom(ByteReader& r) {
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&rejected_items));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&rejected_requests));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&queries));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&stale_serves));
  uint64_t flag;
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&flag));
  if (flag > 1) return Status::Corruption("snapshot: sealed flag not boolean");
  sealed = flag == 1;
  return Status::OK();
}

Status WriteTenantSnapshot(const std::string& path, const TenantSnapshot& snap,
                           const CountSketch& sketch) {
  if (const FailDecision fp = SFQ_FAILPOINT("snapshot.publish"); fp) {
    MaybeDieAtFailpoint(fp);  // power cut before the commit rename
    if (fp.action == FailAction::kStall) {
      std::this_thread::sleep_for(std::chrono::milliseconds(fp.param));
    } else if (fp.action == FailAction::kError) {
      return Status::IoError("injected failure: snapshot.publish: " + path);
    }
  }
  // Everything before the counter rows goes into one small head buffer;
  // the rows are written straight from the sketch.
  std::string head;
  ByteWriter w(&head);
  w.PutU64(kSnapshotVersion);
  snap.spec.EncodeTo(w);
  w.PutU64(snap.wal_seqno);
  w.PutU64(snap.durable_items);
  snap.ledger.EncodeTo(w);
  w.PutU64(snap.candidate_capacity);
  w.PutU64(snap.candidates.size());
  for (const SpaceSavingEntry& e : snap.candidates) {
    w.PutU64(e.item);
    w.PutI64(e.count);
    w.PutI64(e.error);
  }
  // PutString's layout: the length prefix, then the serialized sketch.
  w.PutU64(sketch.SerializedSize());
  sketch.AppendSerializedHeader(&head);
  return WriteBlobFileAtomic(path, kSnapshotMagic,
                             PiecesWithSketch(head, sketch));
}

Result<LoadedSnapshot> ReadTenantSnapshot(const std::string& path) {
  STREAMFREQ_ASSIGN_OR_RETURN(const std::string payload,
                              ReadBlobFileVerified(path, kSnapshotMagic));
  ByteReader r(payload);
  TenantSnapshot snap;
  uint64_t version;
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&version));
  if (version != kSnapshotVersion) {
    return Status::Corruption("snapshot: unknown version: " + path);
  }
  STREAMFREQ_RETURN_NOT_OK(snap.spec.DecodeFrom(r));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&snap.wal_seqno));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&snap.durable_items));
  STREAMFREQ_RETURN_NOT_OK(snap.ledger.DecodeFrom(r));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&snap.candidate_capacity));
  uint64_t count;
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&count));
  // Entry count checked against the bytes actually present BEFORE any
  // allocation (sketch_io discipline), and against the declared capacity.
  if (count > snap.candidate_capacity || count * 24 > r.remaining()) {
    return Status::Corruption("snapshot: candidate count mismatch: " + path);
  }
  snap.candidates.resize(static_cast<size_t>(count));
  for (SpaceSavingEntry& e : snap.candidates) {
    STREAMFREQ_RETURN_NOT_OK(r.GetU64(&e.item));
    int64_t v;
    STREAMFREQ_RETURN_NOT_OK(r.GetI64(&v));
    e.count = static_cast<Count>(v);
    STREAMFREQ_RETURN_NOT_OK(r.GetI64(&v));
    e.error = static_cast<Count>(v);
  }
  std::string_view sketch_blob;
  STREAMFREQ_RETURN_NOT_OK(r.GetStringView(&sketch_blob));
  if (r.remaining() != 0) {
    return Status::Corruption("snapshot: trailing bytes: " + path);
  }
  STREAMFREQ_ASSIGN_OR_RETURN(CountSketch sketch,
                              CountSketch::Deserialize(sketch_blob));
  return LoadedSnapshot{std::move(snap), std::move(sketch)};
}

TenantStore::TenantStore(std::string dir, TenantSpec spec,
                         std::unique_ptr<Ingestor> ingestor, WalWriter wal,
                         WalFsync fsync, uint64_t snapshot_every_items,
                         uint64_t seqno, uint64_t durable_items)
    : dir_(std::move(dir)),
      spec_(std::move(spec)),
      fsync_(fsync),
      snapshot_every_items_(snapshot_every_items),
      ingestor_(std::move(ingestor)),
      wal_(std::move(wal)),
      segment_first_(seqno + 1),
      seqno_(seqno),
      durable_items_(durable_items),
      snapshot_items_(durable_items) {}

TenantStore::~TenantStore() = default;

Result<std::unique_ptr<TenantStore>> TenantStore::Create(
    std::string dir, const TenantSpec& spec, const CountSketchParams& params,
    WalFsync fsync, uint64_t snapshot_every_items) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("tenant store: cannot create dir: " + dir + ": " +
                           ec.message());
  }
  if (std::filesystem::exists(SnapshotPath(dir))) {
    return Status::InvalidArgument(
        "tenant store: directory already holds a snapshot: " + dir);
  }

  STREAMFREQ_ASSIGN_OR_RETURN(
      std::unique_ptr<Ingestor> ingestor,
      Ingestor::Make([params] { return CountSketch::Make(params); },
                     IngestOptionsFor(spec)));
  TenantSnapshot snap;
  snap.spec = spec;
  snap.candidate_capacity = spec.tracked;
  // The initial snapshot lands before any ingest is acknowledged, so a
  // journal can never exist without its base state: WAL-without-snapshot
  // at recovery is corruption, not a fresh tenant. Its sketch is the
  // ingestor's empty epoch-0 snapshot.
  STREAMFREQ_RETURN_NOT_OK(
      WriteTenantSnapshot(SnapshotPath(dir), snap, *ingestor->Snapshot()));
  STREAMFREQ_ASSIGN_OR_RETURN(WalWriter wal,
                              WalWriter::Open(JournalPath(dir, 1), fsync));
  return std::unique_ptr<TenantStore>(
      new TenantStore(std::move(dir), spec, std::move(ingestor),
                      std::move(wal), fsync, snapshot_every_items, 0, 0));
}

Result<TenantStore::Opened> TenantStore::Open(std::string dir, WalFsync fsync,
                                              uint64_t snapshot_every_items) {
  STREAMFREQ_ASSIGN_OR_RETURN(LoadedSnapshot loaded,
                              ReadTenantSnapshot(SnapshotPath(dir)));
  TenantSnapshot& snap = loaded.state;
  CountSketch& sketch = loaded.sketch;
  STREAMFREQ_ASSIGN_OR_RETURN(
      SpaceSaving candidates,
      SpaceSaving::FromEntries(
          static_cast<size_t>(snap.candidate_capacity),
          std::span<const SpaceSavingEntry>(snap.candidates)));

  TenantRecovery recovery;
  recovery.recovered = true;
  recovery.snapshot_seqno = snap.wal_seqno;
  uint64_t replayed_items = 0;
  STREAMFREQ_ASSIGN_OR_RETURN(const std::vector<std::string> segments,
                              ListJournalSegments(dir));
  STREAMFREQ_ASSIGN_OR_RETURN(
      const WalReplayStats replay,
      ReplayWalSegments(segments, snap.wal_seqno,
                        [&](uint64_t /*seqno*/, std::span<const ItemId> items) {
                          sketch.BatchAdd(items);
                          candidates.BatchAdd(items);
                          replayed_items += items.size();
                          return Status::OK();
                        }));
  recovery.replayed_records = replay.records_applied;
  recovery.replayed_items = replayed_items;
  recovery.duplicates_skipped = replay.duplicates_skipped;
  recovery.torn_tail = replay.torn_tail;
  recovery.discarded_bytes = replay.discarded_bytes;

  // Fold the replayed tail into a fresh snapshot and drop every segment
  // right away: appending after a torn tail would put new records behind
  // bytes replay refuses to cross.
  snap.wal_seqno = replay.last_seqno;
  snap.durable_items += replayed_items;
  snap.candidates = candidates.Entries();
  recovery.base_items = snap.durable_items;
  STREAMFREQ_RETURN_NOT_OK(
      WriteTenantSnapshot(SnapshotPath(dir), snap, sketch));
  for (const std::string& segment : segments) {
    std::error_code ec;
    std::filesystem::remove(segment, ec);
    if (ec) {
      return Status::IoError("tenant store: cannot drop replayed segment: " +
                             segment + ": " + ec.message());
    }
  }
  STREAMFREQ_ASSIGN_OR_RETURN(
      WalWriter wal,
      WalWriter::Open(JournalPath(dir, replay.last_seqno + 1), fsync));

  // The recovered sketch becomes the ingestor's epoch-0 snapshot by move:
  // linearity makes (recovered state + later live stream) bit-identical to
  // one uninterrupted ingest of the same items.
  const CountSketchParams params = sketch.params();
  STREAMFREQ_ASSIGN_OR_RETURN(
      std::unique_ptr<Ingestor> ingestor,
      Ingestor::Make([params] { return CountSketch::Make(params); },
                     IngestOptionsFor(snap.spec), std::move(sketch)));
  std::unique_ptr<TenantStore> store(new TenantStore(
      std::move(dir), snap.spec, std::move(ingestor), std::move(wal), fsync,
      snapshot_every_items, replay.last_seqno, snap.durable_items));
  return Opened{std::move(store), std::move(snap), std::move(candidates),
                recovery};
}

Status TenantStore::Append(std::span<const ItemId> items) {
  if (poisoned()) {
    return Status::IoError("tenant store poisoned (journal untrusted): " +
                           dir_);
  }
  const size_t most = ingestor_->MaxAdmitItems();
  while (!items.empty()) {
    const size_t take = std::min(items.size(), most);
    STREAMFREQ_RETURN_NOT_OK(AppendAdmitted(items.first(take)));
    items = items.subspan(take);
  }
  return Status::OK();
}

Status TenantStore::AppendAdmitted(std::span<const ItemId> items) {
  // Admit with no lock held: this is where a producer waits for queue room.
  STREAMFREQ_ASSIGN_OR_RETURN(Ingestor::Admission admission,
                              ingestor_->Admit(items));
  if (admission.items().empty()) return Status::OK();  // shed
  MutexLock lock(mu_);
  if (poisoned_) {
    return Status::IoError("tenant store poisoned (journal untrusted): " +
                           dir_);
  }
  const uint64_t next = seqno_ + 1;
  const Status status = wal_.Append(next, admission.items());
  if (!status.ok()) {
    // Partial bytes may have reached the journal; nothing after them could
    // be replayed, so the store stops accepting appends. The admission's
    // places go back to the queue unused.
    poisoned_ = true;
    return status;
  }
  seqno_ = next;
  durable_items_ += admission.items().size();
  // Still under the lock, so the queue order is the journal order.
  ingestor_->Enqueue(std::move(admission));
  return Status::OK();
}

bool TenantStore::SnapshotDue() const {
  MutexLock lock(mu_);
  return !poisoned_ && !publishing_ && snapshot_every_items_ > 0 &&
         durable_items_ - snapshot_items_ >= snapshot_every_items_;
}

Status TenantStore::Cut(uint64_t* seqno, uint64_t* items) {
  *seqno = seqno_;
  *items = durable_items_;
  if (segment_first_ == seqno_ + 1) return Status::OK();  // nothing to close
  STREAMFREQ_ASSIGN_OR_RETURN(
      WalWriter next, WalWriter::Open(JournalPath(dir_, seqno_ + 1), fsync_));
  closed_segments_.push_back(wal_.path());
  wal_ = std::move(next);
  segment_first_ = seqno_ + 1;
  return Status::OK();
}

Status TenantStore::WriteSnapshot(const LedgerSample& sample) {
  MutexLock publish(publish_mu_);
  uint64_t seqno = 0;
  uint64_t items = 0;
  Ingestor::FoldTicket ticket;
  {
    MutexLock lock(mu_);
    STREAMFREQ_RETURN_NOT_OK(Cut(&seqno, &items));
    ticket = ingestor_->StartFold();
    publishing_ = true;
  }
  const auto done = [&](Status status) {
    MutexLock lock(mu_);
    publishing_ = false;
    if (status.ok()) {
      ++snapshots_written_;
      snapshot_items_ = items;
    }
    return status;
  };

  Status cut_fault;
  if (const FailDecision fp = SFQ_FAILPOINT("snapshot.cut"); fp) {
    MaybeDieAtFailpoint(fp);  // death with the journal cut, no snapshot yet
    if (fp.action == FailAction::kError) {
      cut_fault = Status::IoError("injected failure: snapshot.cut: " + dir_);
    }
  }
  // Outside the store lock: appends go on while the workers fold.
  Result<std::shared_ptr<const CountSketch>> pin =
      ingestor_->AwaitFold(ticket);
  if (ticket.finished) {
    // The queue had closed before the tokens: admissions reserved before
    // that may have been journaled after the cut. The drain is over, so no
    // append can follow; the final fold ends at the journal's end.
    MutexLock lock(mu_);
    const Status recut = Cut(&seqno, &items);
    if (!recut.ok()) return done(recut);
  }
  if (!cut_fault.ok()) return done(cut_fault);
  // A failed fold keeps every segment: recovery still has the journal.
  if (!pin.ok()) return done(pin.status());

  const TenantSnapshot snap{spec_, seqno, items, sample.ledger,
                            sample.candidate_capacity, sample.candidates};
  // A failed write is benign: the segments still cover everything past
  // the previous snapshot, so recovery is unaffected.
  const Status written =
      WriteTenantSnapshot(SnapshotPath(dir_), snap, **pin);
  if (!written.ok()) return done(written);

  if (const FailDecision fp = SFQ_FAILPOINT("snapshot.unlink"); fp) {
    MaybeDieAtFailpoint(fp);  // death after the rename: replay dedups
    if (fp.action == FailAction::kError) return done(Status::OK());
  }
  // Covered segments that cannot be unlinked stay listed; the next publish
  // retries them, and replay skips their records as duplicates meanwhile.
  std::vector<std::string> kept;
  for (std::string& segment : closed_segments_) {
    std::error_code ec;
    std::filesystem::remove(segment, ec);
    if (ec) kept.push_back(std::move(segment));
  }
  closed_segments_ = std::move(kept);
  return done(Status::OK());
}

uint64_t TenantStore::last_seqno() const {
  MutexLock lock(mu_);
  return seqno_;
}

uint64_t TenantStore::durable_items() const {
  MutexLock lock(mu_);
  return durable_items_;
}

bool TenantStore::poisoned() const {
  MutexLock lock(mu_);
  return poisoned_;
}

uint64_t TenantStore::snapshots_written() const {
  MutexLock lock(mu_);
  return snapshots_written_;
}

}  // namespace streamfreq
