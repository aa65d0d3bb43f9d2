#include "server/snapshotter.h"

#include <filesystem>
#include <utility>

#include "core/sketch_io.h"
#include "util/bytes.h"
#include "util/failpoint.h"

namespace streamfreq {

namespace {

constexpr char kSnapshotFile[] = "snapshot.sfs";
constexpr char kJournalFile[] = "journal.sfw";

}  // namespace

std::string TenantStore::SnapshotPath(const std::string& dir) {
  return dir + "/" + kSnapshotFile;
}

std::string TenantStore::JournalPath(const std::string& dir) {
  return dir + "/" + kJournalFile;
}

Status WriteTenantSnapshot(const std::string& path, const TenantSnapshot& snap,
                           const CountSketch& sketch) {
  if (const FailDecision fp = SFQ_FAILPOINT("snapshot.publish"); fp) {
    MaybeDieAtFailpoint(fp);  // power cut before the commit rename
    if (fp.action == FailAction::kError) {
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
  w.PutU64(snap.rejected_items);
  w.PutU64(snap.rejected_requests);
  w.PutU64(snap.queries);
  w.PutU64(snap.stale_serves);
  w.PutU64(snap.sealed ? 1 : 0);
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
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&snap.rejected_items));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&snap.rejected_requests));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&snap.queries));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&snap.stale_serves));
  uint64_t sealed;
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&sealed));
  if (sealed > 1) {
    return Status::Corruption("snapshot: sealed flag not boolean: " + path);
  }
  snap.sealed = sealed == 1;
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

TenantStore::TenantStore(std::string dir, TenantSpec spec, CountSketch exact,
                         WalWriter wal, uint64_t snapshot_every_items)
    : dir_(std::move(dir)),
      spec_(std::move(spec)),
      snapshot_every_items_(snapshot_every_items),
      exact_(std::move(exact)),
      wal_(std::move(wal)) {}

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

  STREAMFREQ_ASSIGN_OR_RETURN(CountSketch exact, CountSketch::Make(params));
  TenantSnapshot snap;
  snap.spec = spec;
  snap.candidate_capacity = spec.tracked;
  // The initial snapshot lands before any ingest is acknowledged, so a
  // journal can never exist without its base state: WAL-without-snapshot
  // at recovery is corruption, not a fresh tenant.
  STREAMFREQ_RETURN_NOT_OK(WriteTenantSnapshot(SnapshotPath(dir), snap, exact));
  STREAMFREQ_ASSIGN_OR_RETURN(WalWriter wal,
                              WalWriter::Open(JournalPath(dir), fsync));
  return std::unique_ptr<TenantStore>(
      new TenantStore(std::move(dir), spec, std::move(exact), std::move(wal),
                      snapshot_every_items));
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
  STREAMFREQ_ASSIGN_OR_RETURN(
      const WalReplayStats replay,
      ReplayWal(JournalPath(dir), snap.wal_seqno,
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

  // Fold the replayed tail into a fresh snapshot and truncate the journal
  // right away: appending after a torn tail would put new records behind
  // bytes replay refuses to cross.
  snap.wal_seqno = replay.last_seqno;
  snap.durable_items += replayed_items;
  snap.candidates = candidates.Entries();
  recovery.base_items = snap.durable_items;
  STREAMFREQ_RETURN_NOT_OK(
      WriteTenantSnapshot(SnapshotPath(dir), snap, sketch));
  STREAMFREQ_ASSIGN_OR_RETURN(WalWriter wal,
                              WalWriter::Open(JournalPath(dir), fsync));
  STREAMFREQ_RETURN_NOT_OK(wal.Truncate());

  Opened opened{
      std::unique_ptr<TenantStore>(
          new TenantStore(std::move(dir), snap.spec, sketch, std::move(wal),
                          snapshot_every_items)),
      std::move(snap), std::move(sketch), std::move(candidates), recovery};
  MutexLock lock(opened.store->mu_);
  opened.store->seqno_ = replay.last_seqno;
  opened.store->durable_items_ = opened.state.durable_items;
  return opened;
}

Status TenantStore::Append(std::span<const ItemId> items) {
  MutexLock lock(mu_);
  if (poisoned_) {
    return Status::IoError("tenant store poisoned (journal untrusted): " +
                           dir_);
  }
  const uint64_t next = seqno_ + 1;
  const Status status = wal_.Append(next, items);
  if (!status.ok()) {
    // Partial bytes may have reached the journal; nothing after them could
    // be replayed, so the store stops accepting appends.
    poisoned_ = true;
    return status;
  }
  seqno_ = next;
  exact_.BatchAdd(items);
  durable_items_ += items.size();
  items_since_snapshot_ += items.size();
  return Status::OK();
}

bool TenantStore::SnapshotDue() const {
  MutexLock lock(mu_);
  return !poisoned_ && snapshot_every_items_ > 0 &&
         items_since_snapshot_ >= snapshot_every_items_;
}

Status TenantStore::WriteSnapshot(const LedgerSample& ledger) {
  MutexLock lock(mu_);
  TenantSnapshot snap;
  snap.spec = spec_;
  snap.wal_seqno = seqno_;
  snap.durable_items = durable_items_;
  snap.rejected_items = ledger.rejected_items;
  snap.rejected_requests = ledger.rejected_requests;
  snap.queries = ledger.queries;
  snap.stale_serves = ledger.stale_serves;
  snap.sealed = ledger.sealed;
  snap.candidate_capacity = ledger.candidate_capacity;
  snap.candidates = ledger.candidates;
  // A failed publish is benign: the journal still covers everything past
  // the previous snapshot, so recovery is unaffected.
  STREAMFREQ_RETURN_NOT_OK(
      WriteTenantSnapshot(SnapshotPath(dir_), snap, exact_));
  ++snapshots_written_;
  const Status truncated = wal_.Truncate();
  if (!truncated.ok()) {
    // The snapshot is live but the journal may still hold pre-snapshot
    // records; replay would dedup those, but an unwritable journal cannot
    // accept new appends.
    poisoned_ = true;
    return truncated;
  }
  items_since_snapshot_ = 0;
  return Status::OK();
}

void TenantStore::Poison() {
  MutexLock lock(mu_);
  poisoned_ = true;
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
