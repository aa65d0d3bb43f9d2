// Durable tenant state for `sfq serve`: epoch snapshots + the TenantStore
// that pairs them with the write-ahead journal (server/wal.h).
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
//   u64 rejected_items | u64 rejected_requests | u64 queries |
//   u64 stale_serves | u64 sealed(0/1)
//   u64 candidate_capacity | u64 candidate count |
//     count x (u64 item, i64 count, i64 error)
//   string sketch            CountSketch::SerializeTo bytes (u64 len prefix)
//
// Recovery protocol (TenantStore::Open): read the snapshot, rebuild the
// exact sketch and candidates, replay the journal tail with duplicate
// dedup (records <= wal_seqno were already folded in — the crash window
// between snapshot publish and journal truncation), then immediately
// re-snapshot and truncate so a torn journal tail can never precede new
// appends. The WAL-before-ingest ordering in the service makes the durable
// state a prefix-closed superset of everything acknowledged.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

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

/// Everything one snapshot file carries besides the sketch.
struct TenantSnapshot {
  TenantSpec spec;
  uint64_t wal_seqno = 0;
  uint64_t durable_items = 0;
  uint64_t rejected_items = 0;
  uint64_t rejected_requests = 0;
  uint64_t queries = 0;
  uint64_t stale_serves = 0;
  bool sealed = false;
  uint64_t candidate_capacity = 0;
  std::vector<SpaceSavingEntry> candidates;
};

/// Encodes `snap` into a small head buffer and writes it atomically with
/// `sketch`'s counter rows straight from counter memory (no sketch-sized
/// staging copy). Carries the `snapshot.publish` failpoint (error, process
/// death) in front of the sketch_io write path.
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
  uint64_t rejected_items = 0;
  uint64_t rejected_requests = 0;
  uint64_t queries = 0;
  uint64_t stale_serves = 0;
  bool sealed = false;
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

/// One tenant's durability engine: owns the journal writer, the exact
/// durable accumulator (a Count-Sketch updated synchronously with every
/// append, so a snapshot never has to quiesce the async ingestor), and the
/// snapshot cadence. Thread-safe; the service calls Append outside its own
/// tenant lock.
class TenantStore {
 public:
  /// Creates a fresh tenant directory: writes the initial snapshot
  /// (seqno 0, empty sketch) BEFORE any ingest is acknowledged, then opens
  /// the journal. A directory that already has a snapshot is refused.
  static Result<std::unique_ptr<TenantStore>> Create(
      std::string dir, const TenantSpec& spec, const CountSketchParams& params,
      WalFsync fsync, uint64_t snapshot_every_items);

  /// Recovery result: the store plus the state the service seeds its
  /// in-memory tenant from.
  struct Opened {
    std::unique_ptr<TenantStore> store;
    TenantSnapshot state;       ///< ledger/spec fields post-replay
    CountSketch sketch;         ///< snapshot sketch + replayed journal tail
    SpaceSaving candidates;     ///< restored + replayed
    TenantRecovery recovery;
  };

  /// Recovers a tenant directory: snapshot load, journal replay with dedup,
  /// then re-snapshot + truncate (see the file comment). Any missing or
  /// corrupt snapshot fails — a journal without its snapshot has no base
  /// state and silent re-creation would hide data loss.
  static Result<Opened> Open(std::string dir, WalFsync fsync,
                             uint64_t snapshot_every_items);

  /// Journals one accepted batch (assigning the next sequence number) and
  /// folds it into the durable accumulator. On failure the store is
  /// poisoned: the journal tail can no longer be trusted, so every later
  /// append is refused and the service rejects the tenant's ingests.
  Status Append(std::span<const ItemId> items) SFQ_EXCLUDES(mu_);

  /// True when enough items accumulated since the last snapshot.
  bool SnapshotDue() const SFQ_EXCLUDES(mu_);

  /// Publishes a snapshot of the durable state + `ledger`, then truncates
  /// the journal. A failed write leaves the journal intact (recovery still
  /// works from the previous snapshot); a failed truncation poisons the
  /// store.
  Status WriteSnapshot(const LedgerSample& ledger) SFQ_EXCLUDES(mu_);

  /// Marks the store unusable (the service calls this when a journaled
  /// batch failed to apply live, so durable and live state diverged).
  void Poison() SFQ_EXCLUDES(mu_);

  uint64_t last_seqno() const SFQ_EXCLUDES(mu_);
  uint64_t durable_items() const SFQ_EXCLUDES(mu_);
  bool poisoned() const SFQ_EXCLUDES(mu_);
  uint64_t snapshots_written() const SFQ_EXCLUDES(mu_);
  const std::string& dir() const { return dir_; }

  /// Paths inside a tenant directory.
  static std::string SnapshotPath(const std::string& dir);
  static std::string JournalPath(const std::string& dir);

 private:
  TenantStore(std::string dir, TenantSpec spec, CountSketch exact,
              WalWriter wal, uint64_t snapshot_every_items);

  const std::string dir_;
  const TenantSpec spec_;
  const uint64_t snapshot_every_items_;

  mutable Mutex mu_;
  CountSketch exact_ SFQ_GUARDED_BY(mu_);
  WalWriter wal_ SFQ_GUARDED_BY(mu_);
  uint64_t seqno_ SFQ_GUARDED_BY(mu_) = 0;
  uint64_t durable_items_ SFQ_GUARDED_BY(mu_) = 0;
  uint64_t items_since_snapshot_ SFQ_GUARDED_BY(mu_) = 0;
  uint64_t snapshots_written_ SFQ_GUARDED_BY(mu_) = 0;
  bool poisoned_ SFQ_GUARDED_BY(mu_) = false;
};

}  // namespace streamfreq
