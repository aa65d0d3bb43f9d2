// SketchService: the tenant registry behind `sfq serve`.
//
// Each tenant is an independent sketch namespace: a ParallelIngestor over a
// CountSketch (the paper's linear sketch, so concurrent sharded ingest is
// bit-identical to sequential) plus a Space-Saving candidate set that turns
// the sketch's point estimates into top-k answers — the paper's
// sketch-plus-tracked-heap pattern, with the all-time heavy hitters as the
// candidate pool. Queries are snapshot-isolated: they read the tenant's
// latest epoch-published merged sketch (SnapshotCell) and never block
// ingest.
//
// Admission control is the PR-4 overflow machinery, selected per tenant at
// creation: kBlock (backpressure, loud overload), kShed (drop whole
// batches, counted), kSample (downsample, counted). The per-tenant
// counters exposed through TenantsJson() satisfy, for shed/sample tenants
// (whose ingest path never fails mid-request),
//
//   offered_items - rejected_items == items_ingested + DroppedItems()
//
// once the tenant is sealed — the server-side half of the chaos harness's
// mass reconciliation. For kBlock tenants with a push timeout, a failed
// ingest may have been partially applied at batch granularity (the
// ingestor's request model; a durable tenant's granularity is one journal
// record of up to batch_items x queue_batches items); the offered/rejected
// counters keep that window visible instead of papering over it.
//
// A durable tenant's ingestor belongs to its TenantStore
// (server/snapshotter.h), which admits, journals and enqueues each request
// and publishes snapshots from that ingestor's fold.
//
// Thread model: the registry map is guarded by mu_; each tenant has its
// own mutex for candidate/bookkeeping state, while sketch ingest and
// snapshot reads go through the ingestor's own synchronization. Handlers
// hold shared_ptr<Tenant>, so DropTenant never races a request into freed
// memory.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "concurrent/parallel_ingestor.h"
#include "core/count_sketch.h"
#include "core/space_saving.h"
#include "server/protocol.h"
#include "server/snapshotter.h"
#include "server/wal.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/status.h"

namespace streamfreq {

/// Durability configuration. An empty data_dir runs the service exactly as
/// before this layer existed: no journal, no snapshots, no recovery.
struct ServiceOptions {
  /// Root directory for per-tenant durable state (one subdirectory per
  /// tenant). Empty = in-memory only.
  std::string data_dir;
  /// When journal appends are forced to stable storage.
  WalFsync fsync = WalFsync::kAlways;
  /// Snapshot (and truncate the journal) after this many journaled items.
  /// 0 snapshots only at create/seal/recovery boundaries.
  uint64_t snapshot_every_items = uint64_t{1} << 16;
};

class SketchService {
 public:
  SketchService() = default;
  explicit SketchService(ServiceOptions options)
      : options_(std::move(options)) {}
  ~SketchService() = default;

  SketchService(const SketchService&) = delete;
  SketchService& operator=(const SketchService&) = delete;

  /// Dispatches one decoded request. Tenant-level failures (unknown tenant,
  /// sealed tenant, admission rejections) come back as error Responses, not
  /// as transport errors. kStatsz and kShutdown are server-level concerns
  /// and return Unimplemented here.
  Response Handle(const Request& request);

  /// Per-tenant stats as a JSON object keyed by tenant name (the "tenants"
  /// section of /statsz). Tenant names are charset-restricted at creation,
  /// so no escaping is needed.
  std::string TenantsJson() const;

  /// Seals every tenant (drains workers, publishes final snapshots).
  /// Called on server shutdown so the final statsz numbers are exact.
  void SealAll();

  /// Number of registered tenants.
  size_t TenantCount() const;

  /// Recovers every tenant directory under data_dir (no-op when the
  /// service is not durable). Call once, before serving: loads the latest
  /// snapshot, replays the journal tail with duplicate dedup, and seeds the
  /// in-memory tenant — derived ledger, sketch, candidates, sealed flag —
  /// so the conservation law holds across the crash. A tenant whose state
  /// cannot be recovered is reported in recovery_failures(), never
  /// silently re-created.
  Status Recover() SFQ_EXCLUDES(mu_);

  /// Tenants that failed recovery, name -> error detail.
  std::map<std::string, std::string> recovery_failures() const
      SFQ_EXCLUDES(mu_);

  /// True when tenants persist under a data directory.
  bool durable() const { return !options_.data_dir.empty(); }

 private:
  struct Tenant;

  Response CreateTenant(const Request& request);
  Response DropTenant(const Request& request);
  Response Ingest(Tenant& tenant, const Request& request);
  Response Seal(Tenant& tenant);
  Response TopK(Tenant& tenant, const Request& request);
  Response Estimate(Tenant& tenant, const Request& request);
  Response MarkEpoch(Tenant& tenant);
  Response MaxChange(Tenant& tenant, const Request& request);
  Response Export(Tenant& tenant);
  Response RecoveryInfo(Tenant& tenant);

  Status RecoverTenant(const std::string& name, const std::string& dir)
      SFQ_EXCLUDES(mu_);
  /// Captures the durable ledger + candidate triples, then publishes a
  /// snapshot through the tenant's store. Failures degrade (counted in
  /// snapshot_failures), they never fail the triggering request.
  void MaybeSnapshot(Tenant& tenant);

  std::shared_ptr<Tenant> Find(const std::string& name) const
      SFQ_EXCLUDES(mu_);

  const ServiceOptions options_;

  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<Tenant>> tenants_ SFQ_GUARDED_BY(mu_);
  std::map<std::string, std::string> recovery_failures_ SFQ_GUARDED_BY(mu_);
};

}  // namespace streamfreq
