// Durable tenant state for `sfq serve`: epoch snapshots + the TenantStore
// that pairs them with the write-ahead journal (server/wal.h) and owns the
// tenant's ParallelIngestor.
//
// A snapshot is ONE file ("SFQSNP01" through the sketch_io atomic
// write-temp-then-rename path) carrying everything a tenant needs to come
// back: the TenantSpec, the journal sequence number the state covers, the
// durable ledger counters, the Space-Saving candidate triples, and the
// serialized Count-Sketch. One rename is one commit point — there is no
// window where a sketch and its manifest can disagree.
//
// Snapshot payload (little-endian, inside the blob-file framing):
//
//   u64 version (kSnapshotVersion)
//   TenantSpec               11 u64 fields (TenantSpec::EncodeTo)
//   u64 wal_seqno            highest journal record folded in
//   u64 durable_items        items covered (== sum of record sizes 1..seqno)
//   TenantLedger             u64 rejected_items | u64 rejected_requests |
//                            u64 queries | u64 stale_serves | u64 sealed(0/1)
//   u64 candidate_capacity | u64 candidate count |
//     count x (u64 item, i64 count, i64 error)
//   string sketch            CountSketch::SerializeTo bytes (u64 len prefix)
//
// One copy of the counters. The store owns the tenant's ingestor and keeps
// no sketch of its own: sketches that share depth, width and seeds add
// counter-wise, so the ingestor's merged fold is the durable state once it
// covers exactly a prefix of the journal. An append takes three steps:
//   1. Admit, no lock held: reserve queue places; the block/shed/sample
//      decision happens here.
//   2. Journal, store lock held: write exactly the admitted items.
//   3. Enqueue, store lock still held: fill the reserved places (never
//      blocks).
// Journal order is therefore queue order, and live state equals durable
// state under every overflow policy: shed items are in neither, a sampled
// batch is journaled as its kept sample.
//
// Publish (WriteSnapshot). Under the store lock only the journal is cut:
// record the current seqno S, start segment `journal.<S + 1>.sfw`, and queue
// one fold token per worker. Outside the lock the ingestor's fold barrier
// returns the merged sketch of exactly records <= S; the snapshot is written
// from it, and only after its rename are the segments up to S unlinked.
// Appends continue during a publish. Publishes are serialized by their own
// mutex, which appends never take.
//
// Recovery (TenantStore::Open): read the snapshot, replay every journal
// segment oldest first (a pre-segment `journal.sfw` is the oldest) with
// duplicate dedup (records <= wal_seqno were already folded in — the crash
// window between a snapshot's rename and the unlink of its segments), then
// immediately re-snapshot and drop every segment so a torn tail can never
// precede new appends. The recovered sketch seeds the ingestor by move.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "concurrent/parallel_ingestor.h"
#include "core/count_sketch.h"
#include "core/space_saving.h"
#include "server/protocol.h"
#include "server/wal.h"
#include "util/mutex.h"
#include "util/result.h"

namespace streamfreq {

/// Magic tag of tenant snapshot files ("SFQSNP01").
inline constexpr uint64_t kSnapshotMagic = 0x3130504E53515153ULL;
inline constexpr uint64_t kSnapshotVersion = 1;

/// The counters a durable tenant persists beside its sketch. The service
/// keeps one per tenant, every snapshot carries a copy, and recovery seeds
/// the tenant from it.
struct TenantLedger {
  uint64_t rejected_items = 0;
  uint64_t rejected_requests = 0;
  uint64_t queries = 0;
  uint64_t stale_serves = 0;
  bool sealed = false;

  /// Fixed layout: five u64 fields in declaration order, sealed as 0/1.
  void EncodeTo(ByteWriter& w) const;
  Status DecodeFrom(ByteReader& r);
};

/// Everything one snapshot file carries besides the sketch.
struct TenantSnapshot {
  TenantSpec spec;
  uint64_t wal_seqno = 0;
  uint64_t durable_items = 0;
  TenantLedger ledger;
  uint64_t candidate_capacity = 0;
  std::vector<SpaceSavingEntry> candidates;
};

/// Encodes `snap` into a small head buffer and writes it atomically with
/// `sketch`'s counter rows straight from counter memory (no sketch-sized
/// staging copy). Carries the `snapshot.publish` failpoint (error, stall,
/// process death) in front of the sketch_io write path.
Status WriteTenantSnapshot(const std::string& path, const TenantSnapshot& snap,
                           const CountSketch& sketch);

/// A snapshot file's contents.
struct LoadedSnapshot {
  TenantSnapshot state;
  CountSketch sketch;
};

/// Reads and fully validates a snapshot file (framing CRC via sketch_io,
/// then field-by-field decode with trailing-byte rejection, then the
/// sketch's own decode).
Result<LoadedSnapshot> ReadTenantSnapshot(const std::string& path);

/// Ledger + candidate sample the service captures under the tenant mutex
/// and hands to WriteSnapshot.
struct LedgerSample {
  TenantLedger ledger;
  uint64_t candidate_capacity = 0;
  std::vector<SpaceSavingEntry> candidates;
};

/// What startup recovery found for one tenant (kRecoveryInfo surfaces it).
struct TenantRecovery {
  bool recovered = false;  ///< state came from disk, not a fresh create
  uint64_t snapshot_seqno = 0;
  uint64_t replayed_records = 0;
  uint64_t replayed_items = 0;
  uint64_t duplicates_skipped = 0;
  bool torn_tail = false;
  uint64_t discarded_bytes = 0;
  uint64_t base_items = 0;  ///< durable items after replay
};

/// The ingest pipeline a tenant spec asks for.
IngestOptions IngestOptionsFor(const TenantSpec& spec);

/// One tenant's durability engine: owns the journal writer, the tenant's
/// ingestor (whose merged fold is the durable state; see the file comment)
/// and the snapshot cadence. Thread-safe; the service calls Append outside
/// its own tenant lock.
class TenantStore {
 public:
  using Ingestor = ParallelIngestor<CountSketch>;

  /// Creates a fresh tenant directory and its ingestor: writes the initial
  /// snapshot (seqno 0, empty sketch) BEFORE any ingest is acknowledged,
  /// then opens the journal. A directory that already has a snapshot is
  /// refused.
  static Result<std::unique_ptr<TenantStore>> Create(
      std::string dir, const TenantSpec& spec, const CountSketchParams& params,
      WalFsync fsync, uint64_t snapshot_every_items);

  /// Recovery result: the store (its ingestor seeded with the recovered
  /// sketch) plus the state the service seeds its in-memory tenant from.
  struct Opened {
    std::unique_ptr<TenantStore> store;
    TenantSnapshot state;       ///< ledger/spec fields post-replay
    SpaceSaving candidates;     ///< restored + replayed
    TenantRecovery recovery;
  };

  /// Recovers a tenant directory: snapshot load, journal replay with dedup,
  /// then re-snapshot and a fresh segment (see the file comment). Any
  /// missing or corrupt snapshot fails — a journal without its snapshot has
  /// no base state and silent re-creation would hide data loss.
  static Result<Opened> Open(std::string dir, WalFsync fsync,
                             uint64_t snapshot_every_items);

  /// Admits, journals and enqueues `items` (see the file comment), one
  /// journal record per admission of up to a queue's worth of batches.
  /// Items the overflow policy sheds are neither journaled nor folded. A
  /// journal failure poisons the store: the journal tail can no longer be
  /// trusted, so every later append is refused. Its batch was not enqueued,
  /// so live state still equals the journal's intact prefix.
  Status Append(std::span<const ItemId> items) SFQ_EXCLUDES(mu_);

  /// True when enough items accumulated since the last snapshot and no
  /// publish is under way.
  bool SnapshotDue() const SFQ_EXCLUDES(mu_);

  /// Publishes a snapshot of the durable state + `sample`, then unlinks
  /// the journal segments it covers. A failed fold or write keeps every
  /// segment (recovery still works from the previous snapshot).
  Status WriteSnapshot(const LedgerSample& sample)
      SFQ_EXCLUDES(publish_mu_, mu_);

  /// Drains the ingestor's workers (no snapshot is written: what was
  /// journaled is recoverable).
  ~TenantStore();

  /// The tenant's ingestor: queries read its snapshots, Seal finishes it.
  Ingestor& ingestor() const { return *ingestor_; }

  uint64_t last_seqno() const SFQ_EXCLUDES(mu_);
  uint64_t durable_items() const SFQ_EXCLUDES(mu_);
  bool poisoned() const SFQ_EXCLUDES(mu_);
  uint64_t snapshots_written() const SFQ_EXCLUDES(mu_);
  const std::string& dir() const { return dir_; }

  /// Paths inside a tenant directory.
  static std::string SnapshotPath(const std::string& dir);
  /// The journal segment whose first record is `first_seqno`.
  static std::string JournalPath(const std::string& dir, uint64_t first_seqno);

 private:
  TenantStore(std::string dir, TenantSpec spec,
              std::unique_ptr<Ingestor> ingestor, WalWriter wal,
              WalFsync fsync, uint64_t snapshot_every_items, uint64_t seqno,
              uint64_t durable_items);

  Status AppendAdmitted(std::span<const ItemId> items) SFQ_EXCLUDES(mu_);
  /// Reads the cut point and, unless the live segment is still empty,
  /// starts a new segment after it.
  Status Cut(uint64_t* seqno, uint64_t* items)
      SFQ_REQUIRES(publish_mu_, mu_);

  const std::string dir_;
  const TenantSpec spec_;
  const WalFsync fsync_;
  const uint64_t snapshot_every_items_;
  const std::unique_ptr<Ingestor> ingestor_;

  Mutex publish_mu_;
  /// Segments a cut closed; unlinked once a snapshot covers them.
  std::vector<std::string> closed_segments_ SFQ_GUARDED_BY(publish_mu_);

  mutable Mutex mu_ SFQ_ACQUIRED_AFTER(publish_mu_);
  WalWriter wal_ SFQ_GUARDED_BY(mu_);
  uint64_t segment_first_ SFQ_GUARDED_BY(mu_);  ///< live segment's first seqno
  uint64_t seqno_ SFQ_GUARDED_BY(mu_);
  uint64_t durable_items_ SFQ_GUARDED_BY(mu_);
  uint64_t snapshot_items_ SFQ_GUARDED_BY(mu_);  ///< durable items published
  uint64_t snapshots_written_ SFQ_GUARDED_BY(mu_) = 0;
  bool publishing_ SFQ_GUARDED_BY(mu_) = false;
  bool poisoned_ SFQ_GUARDED_BY(mu_) = false;
};

}  // namespace streamfreq
