#include "server/service.h"

#include <cmath>
#include <filesystem>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/max_change.h"
#include "util/failpoint.h"

namespace streamfreq {

namespace {

// Bounds on per-tenant knobs: a hostile or confused client must not be able
// to ask one tenant for unbounded threads, candidate slots or counters.
constexpr uint64_t kMaxTenantThreads = 16;
constexpr uint64_t kMaxTracked = 4096;
// Counters across the arrays one tenant holds: a sketch per worker and the
// latest snapshot (threads + 1, all allocated and pre-faulted at create,
// before any item arrives), plus one superseded snapshot that a mark, a
// query in flight or a snapshot write still pins. create's threads + 2
// counts that pin. A durable tenant holds no more: its snapshots come from
// the same ingestor. 2^25 int64 counters are 256 MiB.
constexpr uint64_t kMaxTenantCounters = uint64_t{1} << 25;
constexpr uint64_t kMaxBatchItems = uint64_t{1} << 20;

void AppendJsonKey(std::string* out, const char* key, uint64_t value) {
  out->append("\"");
  out->append(key);
  out->append("\":");
  out->append(std::to_string(value));
}

void AppendJsonBool(std::string* out, const char* key, bool value) {
  out->append("\"");
  out->append(key);
  out->append("\":");
  out->append(value ? "true" : "false");
}

// Resolves the wire geometry: zero means the library default, so the wire
// never carries magic dimensions.
CountSketchParams ResolveParams(const TenantSpec& spec) {
  CountSketchParams params;
  if (spec.depth > 0) params.depth = static_cast<size_t>(spec.depth);
  if (spec.width > 0) params.width = static_cast<size_t>(spec.width);
  params.seed = spec.seed;
  return params;
}

// ValidTenantName admits "." and ".." (dots are legal name bytes); as
// directory names those escape the data_dir, so durable mode refuses them.
bool SafeDurableTenantName(const std::string& name) {
  return name != "." && name != "..";
}

}  // namespace

/// One tenant namespace. The ingestor is set once at construction and
/// never reassigned (the ingestor itself is internally synchronized);
/// everything mutable sits behind the tenant mutex.
struct SketchService::Tenant {
  /// An in-memory tenant: it owns its ingestor.
  Tenant(TenantSpec spec_in, CountSketchParams params_in,
         std::unique_ptr<ParallelIngestor<CountSketch>> ingestor_in,
         std::unique_ptr<SpaceSaving> candidates_in)
      : spec(std::move(spec_in)),
        params(params_in),
        owned_ingestor(std::move(ingestor_in)),
        ingestor(owned_ingestor.get()) {
    MutexLock lock(mu);
    candidates = std::move(candidates_in);
  }

  /// A durable tenant: its store owns the ingestor.
  Tenant(TenantSpec spec_in, CountSketchParams params_in,
         std::unique_ptr<TenantStore> store_in,
         std::unique_ptr<SpaceSaving> candidates_in,
         TenantRecovery recovery_in = {})
      : spec(std::move(spec_in)),
        params(params_in),
        store(std::move(store_in)),
        ingestor(&store->ingestor()),
        recovery(recovery_in) {
    MutexLock lock(mu);
    candidates = std::move(candidates_in);
  }

  const TenantSpec spec;
  const CountSketchParams params;  ///< resolved geometry (defaults applied)
  /// Durability engine (journal, snapshots and the tenant's ingestor); null
  /// when the service has no data_dir. Internally synchronized.
  const std::unique_ptr<TenantStore> store;
  const std::unique_ptr<ParallelIngestor<CountSketch>> owned_ingestor;
  ParallelIngestor<CountSketch>* const ingestor;
  /// What startup recovery found. Its base_items were folded into the
  /// ingestor's recovered seed sketch; the ingestor's own items_ingested
  /// counts only post-recovery work, so the conservation law reads
  /// base_items + items_ingested (statsz: base_ingested).
  const TenantRecovery recovery{};

  mutable Mutex mu;
  /// All-time heavy-hitter candidates; top-k scores them on the snapshot.
  std::unique_ptr<SpaceSaving> candidates SFQ_GUARDED_BY(mu);
  /// Marked snapshot for max-change (kMarkEpoch pins the served snapshot,
  /// kMaxChange subtracts it — the paper's two-pass algorithm across live
  /// epochs). Snapshots are immutable, so the pin is the mark; no copy.
  std::shared_ptr<const CountSketch> marked SFQ_GUARDED_BY(mu);
  /// Serving cache backing the server.publish degraded path: the snapshot
  /// every query the fault hits is served, pinned by the first of them
  /// since the last query it spared (or by Seal and recovery: the final
  /// snapshot). A spared query drops it, so between queries a tenant the
  /// fault leaves alone pins nothing and its folds recycle every array.
  std::shared_ptr<const CountSketch> served SFQ_GUARDED_BY(mu);
  uint64_t served_epoch SFQ_GUARDED_BY(mu) = 0;
  /// Admission bookkeeping (see the header's conservation contract).
  uint64_t offered_items SFQ_GUARDED_BY(mu) = 0;
  TenantLedger ledger SFQ_GUARDED_BY(mu);  ///< what snapshots persist
  uint64_t snapshot_failures SFQ_GUARDED_BY(mu) = 0;

  /// The candidate slate a k-result query scores: Space-Saving's best 3k.
  /// Its own counts are upper bounds with merge slack; the sketch estimate
  /// is the paper's unbiased median. 3k saturates, so a wire k above
  /// SIZE_MAX / 3 asks for every candidate instead of wrapping.
  std::vector<ItemId> Slate(uint64_t k) const SFQ_REQUIRES(mu) {
    const size_t max = std::numeric_limits<size_t>::max();
    const size_t slate = k > max / 3 ? max : static_cast<size_t>(k) * 3;
    std::vector<ItemId> ids;
    for (const ItemCount& c : candidates->Candidates(slate)) {
      ids.push_back(c.item);
    }
    return ids;
  }

  /// The snapshot a query answers from, and its epoch: the latest one,
  /// unless the server.publish failpoint withholds the refresh. Then the
  /// query is served the cached pin (taking one if none is held) and
  /// counted in stale_serves, so the served epoch stays frozen for as long
  /// as the fault keeps firing. Stale is fine, wrong never is: the cache
  /// pins what it serves.
  std::shared_ptr<const CountSketch> Serving(uint64_t* epoch)
      SFQ_REQUIRES(mu) {
    if (const FailDecision fp = SFQ_FAILPOINT("server.publish");
        fp.action == FailAction::kError) {
      ++ledger.stale_serves;
      if (served == nullptr) served = ingestor->Snapshot(&served_epoch);
      *epoch = served_epoch;
      return served;
    }
    served.reset();
    return ingestor->Snapshot(epoch);
  }
};

Response SketchService::Handle(const Request& request) {
  if (OpcodeNeedsTenant(request.op) && !ValidTenantName(request.tenant)) {
    return Response::FromStatus(Status::InvalidArgument(
        std::string(OpcodeName(request.op)) + ": missing or invalid tenant"));
  }
  switch (request.op) {
    case Opcode::kPing:
      return Response{};
    case Opcode::kCreateTenant:
      return CreateTenant(request);
    case Opcode::kDropTenant:
      return DropTenant(request);
    case Opcode::kStatsz:
    case Opcode::kShutdown:
      return Response::FromStatus(Status::Unimplemented(
          std::string(OpcodeName(request.op)) + ": server-level request"));
    default:
      break;
  }
  const std::shared_ptr<Tenant> tenant = Find(request.tenant);
  if (tenant == nullptr) {
    return Response::FromStatus(
        Status::NotFound("unknown tenant: " + request.tenant));
  }
  switch (request.op) {
    case Opcode::kIngest:
      return Ingest(*tenant, request);
    case Opcode::kSeal:
      return Seal(*tenant);
    case Opcode::kTopK:
      return TopK(*tenant, request);
    case Opcode::kEstimate:
      return Estimate(*tenant, request);
    case Opcode::kMarkEpoch:
      return MarkEpoch(*tenant);
    case Opcode::kMaxChange:
      return MaxChange(*tenant, request);
    case Opcode::kExport:
      return Export(*tenant);
    case Opcode::kRecoveryInfo:
      return RecoveryInfo(*tenant);
    default:
      return Response::FromStatus(Status::Internal(
          std::string("unhandled opcode: ") + OpcodeName(request.op)));
  }
}

Response SketchService::CreateTenant(const Request& request) {
  const TenantSpec& spec = request.spec;
  if (spec.threads == 0 || spec.threads > kMaxTenantThreads) {
    return Response::FromStatus(Status::InvalidArgument(
        "create: threads must be in [1, " +
        std::to_string(kMaxTenantThreads) + "]"));
  }
  if (spec.batch_items == 0 || spec.batch_items > kMaxBatchItems) {
    return Response::FromStatus(
        Status::InvalidArgument("create: batch_items out of range"));
  }
  if (spec.queue_batches == 0) {
    return Response::FromStatus(
        Status::InvalidArgument("create: queue_batches must be >= 1"));
  }
  if (spec.tracked == 0 || spec.tracked > kMaxTracked) {
    return Response::FromStatus(Status::InvalidArgument(
        "create: tracked must be in [1, " + std::to_string(kMaxTracked) +
        "]"));
  }

  const CountSketchParams params = ResolveParams(spec);
  const uint64_t arrays = spec.threads + 2;
  if (params.width > kMaxTenantCounters / arrays / params.depth) {
    return Response::FromStatus(Status::InvalidArgument(
        "create: (threads + 2) x depth x width must be at most " +
        std::to_string(kMaxTenantCounters) + " counters"));
  }
  auto candidates = SpaceSaving::Make(static_cast<size_t>(spec.tracked));
  if (!candidates.ok()) return Response::FromStatus(candidates.status());
  auto tracked = std::make_unique<SpaceSaving>(std::move(*candidates));

  std::shared_ptr<Tenant> tenant;
  if (durable()) {
    if (!SafeDurableTenantName(request.tenant)) {
      return Response::FromStatus(Status::InvalidArgument(
          "create: tenant name is not a safe directory name: " +
          request.tenant));
    }
    // Check the registry before touching the disk: a duplicate create must
    // not disturb the existing tenant's directory. (TenantStore::Create
    // independently refuses a directory that already holds a snapshot, so
    // the lock-free window between this check and the emplace below cannot
    // produce two stores over one directory.)
    if (Find(request.tenant) != nullptr) {
      return Response::FromStatus(
          Status::InvalidArgument("tenant already exists: " + request.tenant));
    }
    auto created = TenantStore::Create(
        options_.data_dir + "/" + request.tenant, spec, params,
        options_.fsync, options_.snapshot_every_items);
    if (!created.ok()) return Response::FromStatus(created.status());
    tenant = std::make_shared<Tenant>(spec, params, std::move(*created),
                                      std::move(tracked));
  } else {
    auto ingestor = ParallelIngestor<CountSketch>::Make(
        [params]() { return CountSketch::Make(params); },
        IngestOptionsFor(spec));
    if (!ingestor.ok()) return Response::FromStatus(ingestor.status());
    tenant = std::make_shared<Tenant>(spec, params, std::move(*ingestor),
                                      std::move(tracked));
  }

  MutexLock lock(mu_);
  const auto [it, inserted] = tenants_.emplace(request.tenant, tenant);
  if (!inserted) {
    // The losing ingestor drains its (empty) workers on destruction.
    return Response::FromStatus(
        Status::InvalidArgument("tenant already exists: " + request.tenant));
  }
  Response resp;
  resp.epoch = tenant->ingestor->SnapshotEpoch();
  return resp;
}

Response SketchService::DropTenant(const Request& request) {
  std::shared_ptr<Tenant> tenant;
  {
    MutexLock lock(mu_);
    const auto it = tenants_.find(request.tenant);
    if (it == tenants_.end()) {
      return Response::FromStatus(
          Status::NotFound("unknown tenant: " + request.tenant));
    }
    tenant = it->second;
    tenants_.erase(it);
  }
  // Drain outside the registry lock; in-flight handlers still hold valid
  // shared_ptrs and finish against the sealed ingestor.
  Result<CountSketch> merged = tenant->ingestor->Finish();
  if (tenant->store != nullptr) {
    // The tenant is gone from the registry; its durable state goes with it.
    // Best-effort: a directory that survives in full re-registers the
    // tenant on restart (drop-then-crash keeps the data), while a partial
    // leftover fails recovery loudly instead of resurrecting stale state.
    std::error_code ec;
    std::filesystem::remove_all(tenant->store->dir(), ec);
  }
  if (!merged.ok()) return Response::FromStatus(merged.status());
  return Response{};
}

Response SketchService::Ingest(Tenant& tenant, const Request& request) {
  {
    MutexLock lock(tenant.mu);
    tenant.offered_items += request.items.size();
    if (tenant.ledger.sealed) {
      tenant.ledger.rejected_items += request.items.size();
      ++tenant.ledger.rejected_requests;
      return Response::FromStatus(
          Status::InvalidArgument("ingest: tenant is sealed"));
    }
  }
  // A durable tenant admits, journals and enqueues in one step (see
  // server/snapshotter.h): what the workers fold is exactly what the
  // journal holds, under every overflow policy, so everything the client
  // can observe as acknowledged is recoverable and recovery equals live.
  const std::span<const ItemId> items(request.items);
  const Status status = tenant.store != nullptr
                            ? tenant.store->Append(items)
                            : tenant.ingestor->Ingest(items);
  {
    MutexLock lock(tenant.mu);
    if (!status.ok()) {
      tenant.ledger.rejected_items += request.items.size();
      ++tenant.ledger.rejected_requests;
      return Response::FromStatus(status);
    }
    tenant.candidates->BatchAdd(items);
  }
  if (tenant.store != nullptr && tenant.store->SnapshotDue()) {
    MaybeSnapshot(tenant);
  }
  Response resp;
  resp.value = static_cast<Count>(request.items.size());
  return resp;
}

Response SketchService::Seal(Tenant& tenant) {
  // Finish drains the queue and publishes the final fold; afterwards the
  // tenant serves read-only traffic from an exact snapshot.
  Result<CountSketch> merged = tenant.ingestor->Finish();
  uint64_t epoch;
  {
    MutexLock lock(tenant.mu);
    tenant.ledger.sealed = true;
    // Pin the serving cache to the final snapshot so post-seal queries are
    // exact even when server.publish withholds refreshes.
    tenant.served = tenant.ingestor->Snapshot(&tenant.served_epoch);
    epoch = tenant.served_epoch;
  }
  // Persist the sealed state so a post-seal restart recovers a read-only
  // tenant with its final ledger.
  if (tenant.store != nullptr) MaybeSnapshot(tenant);
  if (!merged.ok()) return Response::FromStatus(merged.status());
  Response resp;
  resp.epoch = epoch;
  return resp;
}

Response SketchService::TopK(Tenant& tenant, const Request& request) {
  if (request.k == 0) {
    return Response::FromStatus(
        Status::InvalidArgument("topk: k must be >= 1"));
  }
  MutexLock lock(tenant.mu);
  ++tenant.ledger.queries;
  Response resp;
  const std::shared_ptr<const CountSketch> snapshot =
      tenant.Serving(&resp.epoch);
  resp.entries = RankByEstimate(tenant.Slate(request.k), *snapshot,
                                static_cast<size_t>(request.k),
                                /*absolute=*/false);
  return resp;
}

Response SketchService::Estimate(Tenant& tenant, const Request& request) {
  MutexLock lock(tenant.mu);
  ++tenant.ledger.queries;
  Response resp;
  const std::shared_ptr<const CountSketch> snapshot =
      tenant.Serving(&resp.epoch);
  resp.value = snapshot->Estimate(request.item);
  return resp;
}

Response SketchService::MarkEpoch(Tenant& tenant) {
  MutexLock lock(tenant.mu);
  ++tenant.ledger.queries;
  Response resp;
  const std::shared_ptr<const CountSketch> snapshot =
      tenant.Serving(&resp.epoch);
  tenant.marked = snapshot;
  return resp;
}

Response SketchService::MaxChange(Tenant& tenant, const Request& request) {
  if (request.k == 0) {
    return Response::FromStatus(
        Status::InvalidArgument("maxchange: k must be >= 1"));
  }
  MutexLock lock(tenant.mu);
  ++tenant.ledger.queries;
  if (tenant.marked == nullptr) {
    return Response::FromStatus(Status::InvalidArgument(
        "maxchange: no marked epoch (send mark first)"));
  }
  Response resp;
  const std::shared_ptr<const CountSketch> snapshot =
      tenant.Serving(&resp.epoch);
  // The paper's two-pass max-change via the group structure: subtract the
  // marked sketch from the current one and rank candidates by |delta|.
  Result<std::vector<ItemCount>> changes =
      EpochMaxChange(*snapshot, tenant.marked.get(), tenant.Slate(request.k),
                     static_cast<size_t>(request.k));
  if (!changes.ok()) return Response::FromStatus(changes.status());
  resp.entries = std::move(*changes);
  return resp;
}

Response SketchService::Export(Tenant& tenant) {
  MutexLock lock(tenant.mu);
  ++tenant.ledger.queries;
  Response resp;
  const std::shared_ptr<const CountSketch> snapshot =
      tenant.Serving(&resp.epoch);
  snapshot->SerializeTo(&resp.blob);
  return resp;
}

void SketchService::MaybeSnapshot(Tenant& tenant) {
  LedgerSample sample;
  {
    MutexLock lock(tenant.mu);
    sample = {tenant.ledger, tenant.candidates->capacity(),
              tenant.candidates->Entries()};
  }
  // Candidate triples and ledger are sampled under the tenant lock while
  // appends continue under the store lock, so a snapshot's candidates may
  // trail its sketch by the batches in flight — benign for an approximate
  // structure (replay re-adds everything past the snapshot seqno).
  const Status status = tenant.store->WriteSnapshot(sample);
  if (!status.ok()) {
    MutexLock lock(tenant.mu);
    ++tenant.snapshot_failures;
  }
}

Response SketchService::RecoveryInfo(Tenant& tenant) {
  if (tenant.store == nullptr) {
    return Response::FromStatus(Status::InvalidArgument(
        "recoveryinfo: tenant is not durable (no data dir)"));
  }
  std::string out = "{";
  AppendJsonBool(&out, "recovered", tenant.recovery.recovered);
  out += ",";
  AppendJsonKey(&out, "snapshot_seqno", tenant.recovery.snapshot_seqno);
  out += ",";
  AppendJsonKey(&out, "replayed_records", tenant.recovery.replayed_records);
  out += ",";
  AppendJsonKey(&out, "replayed_items", tenant.recovery.replayed_items);
  out += ",";
  AppendJsonKey(&out, "duplicates_skipped",
                tenant.recovery.duplicates_skipped);
  out += ",";
  AppendJsonBool(&out, "torn_tail", tenant.recovery.torn_tail);
  out += ",";
  AppendJsonKey(&out, "discarded_bytes", tenant.recovery.discarded_bytes);
  out += ",";
  AppendJsonKey(&out, "base_items", tenant.recovery.base_items);
  out += ",";
  AppendJsonKey(&out, "last_seqno", tenant.store->last_seqno());
  out += ",";
  AppendJsonKey(&out, "durable_items", tenant.store->durable_items());
  out += ",";
  AppendJsonKey(&out, "snapshots_written", tenant.store->snapshots_written());
  out += ",";
  AppendJsonBool(&out, "poisoned", tenant.store->poisoned());
  out += "}";
  Response resp;
  resp.blob = std::move(out);
  return resp;
}

Status SketchService::Recover() {
  if (!durable()) return Status::OK();
  std::error_code ec;
  std::filesystem::create_directories(options_.data_dir, ec);
  if (ec) {
    return Status::IoError("recover: cannot create data dir: " +
                           options_.data_dir + ": " + ec.message());
  }
  std::filesystem::directory_iterator it(options_.data_dir, ec);
  if (ec) {
    return Status::IoError("recover: cannot list data dir: " +
                           options_.data_dir + ": " + ec.message());
  }
  for (const std::filesystem::directory_entry& entry : it) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (!ValidTenantName(name) || !SafeDurableTenantName(name)) {
      MutexLock lock(mu_);
      recovery_failures_[name] = "not a valid tenant name";
      continue;
    }
    const Status recovered = RecoverTenant(name, entry.path().string());
    if (!recovered.ok()) {
      MutexLock lock(mu_);
      recovery_failures_[name] = recovered.ToString();
    }
  }
  return Status::OK();
}

Status SketchService::RecoverTenant(const std::string& name,
                                    const std::string& dir) {
  STREAMFREQ_ASSIGN_OR_RETURN(
      TenantStore::Opened opened,
      TenantStore::Open(dir, options_.fsync, options_.snapshot_every_items));
  const TenantSpec spec = opened.state.spec;
  // The recovered sketch is the store's ingestor's epoch-0 snapshot.
  const CountSketchParams params =
      opened.store->ingestor().Snapshot()->params();
  auto tenant = std::make_shared<Tenant>(
      spec, params, std::move(opened.store),
      std::make_unique<SpaceSaving>(std::move(opened.candidates)),
      opened.recovery);
  {
    MutexLock lock(tenant->mu);
    // Derived ledger: everything durable counts as offered-and-ingested,
    // persisted rejections count as offered-and-rejected. Requests in
    // flight at the crash (offered, never journaled) and items the
    // overflow policy dropped before it (never journaled either) are
    // forgotten on BOTH sides of the equation, so conservation holds by
    // construction.
    tenant->offered_items =
        opened.state.ledger.rejected_items + opened.state.durable_items;
    tenant->ledger = opened.state.ledger;
    if (tenant->ledger.sealed) {
      // A recovered sealed tenant serves read-only from its seed snapshot.
      tenant->served = tenant->ingestor->Snapshot(&tenant->served_epoch);
    }
  }
  MutexLock lock(mu_);
  tenants_.emplace(name, std::move(tenant));
  return Status::OK();
}

std::map<std::string, std::string> SketchService::recovery_failures() const {
  MutexLock lock(mu_);
  return recovery_failures_;
}

std::shared_ptr<SketchService::Tenant> SketchService::Find(
    const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second;
}

std::string SketchService::TenantsJson() const {
  std::vector<std::pair<std::string, std::shared_ptr<Tenant>>> tenants;
  {
    MutexLock lock(mu_);
    tenants.assign(tenants_.begin(), tenants_.end());
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [name, tenant] : tenants) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":{";
    const IngestStats stats = tenant->ingestor->Stats();
    out += "\"policy\":\"";
    out += PolicyName(tenant->spec.policy);
    out += "\",";
    AppendJsonKey(&out, "depth", tenant->params.depth);
    out += ",";
    AppendJsonKey(&out, "width", tenant->params.width);
    out += ",";
    AppendJsonKey(&out, "seed", tenant->params.seed);
    out += ",";
    AppendJsonKey(&out, "threads", tenant->spec.threads);
    out += ",";
    AppendJsonKey(&out, "epoch", tenant->ingestor->SnapshotEpoch());
    out += ",";
    AppendJsonKey(&out, "items_ingested", stats.items_ingested);
    out += ",";
    AppendJsonKey(&out, "dropped_items", stats.DroppedItems());
    out += ",";
    AppendJsonKey(&out, "shed_items", stats.shed_items);
    out += ",";
    AppendJsonKey(&out, "sampled_items_dropped", stats.sampled_items_dropped);
    out += ",";
    AppendJsonKey(&out, "deadline_misses", stats.deadline_misses);
    out += ",";
    AppendJsonKey(&out, "worker_respawns", stats.worker_respawns);
    out += ",";
    AppendJsonKey(&out, "publish_failures", stats.publish_failures);
    out += ",";
    if (tenant->store != nullptr) {
      AppendJsonBool(&out, "durable", true);
      out += ",";
      AppendJsonKey(&out, "base_ingested", tenant->recovery.base_items);
      out += ",";
      AppendJsonKey(&out, "wal_seqno", tenant->store->last_seqno());
      out += ",";
      AppendJsonKey(&out, "durable_items", tenant->store->durable_items());
      out += ",";
      AppendJsonKey(&out, "snapshots_written",
                    tenant->store->snapshots_written());
      out += ",";
      AppendJsonBool(&out, "poisoned", tenant->store->poisoned());
      out += ",";
    }
    MutexLock lock(tenant->mu);
    AppendJsonKey(&out, "offered_items", tenant->offered_items);
    out += ",";
    AppendJsonKey(&out, "rejected_items", tenant->ledger.rejected_items);
    out += ",";
    AppendJsonKey(&out, "rejected_requests", tenant->ledger.rejected_requests);
    out += ",";
    AppendJsonKey(&out, "queries", tenant->ledger.queries);
    out += ",";
    AppendJsonKey(&out, "stale_serves", tenant->ledger.stale_serves);
    out += ",";
    AppendJsonKey(&out, "snapshot_failures", tenant->snapshot_failures);
    out += ",";
    AppendJsonBool(&out, "sealed", tenant->ledger.sealed);
    out += "}";
  }
  out += "}";
  return out;
}

void SketchService::SealAll() {
  std::vector<std::shared_ptr<Tenant>> tenants;
  {
    MutexLock lock(mu_);
    for (const auto& [name, tenant] : tenants_) tenants.push_back(tenant);
  }
  for (const std::shared_ptr<Tenant>& tenant : tenants) {
    const Response resp = Seal(*tenant);
    // Shutdown-path drain: an already-sealed tenant or a degraded drain is
    // fine here; the per-tenant counters carry the detail.
    (void)resp;
  }
}

size_t SketchService::TenantCount() const {
  MutexLock lock(mu_);
  return tenants_.size();
}

}  // namespace streamfreq
