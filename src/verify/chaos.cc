#include "verify/chaos.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "concurrent/parallel_ingestor.h"
#include "core/count_sketch.h"
#include "core/sketch_io.h"
#include "dist/merge_tree.h"
#include "dist/tree.h"
#include "hash/random.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "stream/types.h"
#include "stream/zipf.h"
#include "util/failpoint.h"
#include "util/macros.h"
#include "verify/checkers.h"
#include "verify/oracle.h"
#include "verify/program.h"

namespace streamfreq {

namespace {

constexpr uint64_t kProgramSalt = 0xC4A05C4A05ULL;
constexpr uint64_t kScheduleSalt = 0x5C4EDC4EDULL;
constexpr uint64_t kMix = 0x9E3779B97F4A7C15ULL;

/// The input multiset minus the recorded spill, in input order. Order is
/// irrelevant to the oracle (it counts), so any linearization works.
Stream EffectiveStream(const Stream& stream, const std::vector<ItemId>& spill) {
  if (spill.empty()) return stream;
  std::map<ItemId, uint64_t> dropped;
  for (const ItemId id : spill) ++dropped[id];
  Stream effective;
  effective.reserve(stream.size() - spill.size());
  for (const ItemId id : stream) {
    const auto it = dropped.find(id);
    if (it != dropped.end() && it->second > 0) {
      --it->second;
      continue;
    }
    effective.push_back(id);
  }
  return effective;
}

/// What one iteration ended as. The iteration adds its own counters straight
/// into the report; the campaign loop tallies only these three.
struct Iteration {
  ChaosOutcome outcome = ChaosOutcome::kVerified;
  std::string detail;
  bool faulted = false;  ///< >= 1 fault fired (restart: >= 1 process death)
};

/// Adds the armed schedule's fires to the report and says whether any fired.
/// Call it while the ScopedFailpoints is alive: disarming clears the counts.
bool CountFires(ChaosReport* report) {
  const uint64_t fires = FailpointRegistry::Global().TotalFires();
  report->fault_fires += fires;
  return fires > 0;
}

/// `<io_dir>/<prefix><seed>_<index>`: where an iteration keeps its files.
std::string IterationPath(const std::string& io_dir, const char* prefix,
                          uint64_t seed, uint64_t index) {
  return io_dir + "/" + prefix + std::to_string(seed) + "_" +
         std::to_string(index);
}

/// What the four schedule functions share: coin flips from an rng seeded by
/// (seed, index, stream) and the ';' join. `stream` keeps the schedules'
/// draws apart.
class ScheduleBuilder {
 public:
  ScheduleBuilder(uint64_t seed, uint64_t index, uint64_t stream)
      : rng_(seed ^ kScheduleSalt ^ ((index + stream) * kMix)) {}

  bool Chance(uint64_t percent) { return rng_.UniformBelow(100) < percent; }
  uint64_t Below(uint64_t n) { return rng_.UniformBelow(n); }

  void Add(const std::string& clause) {
    if (!spec_.empty()) spec_ += ';';
    spec_ += clause;
  }
  bool empty() const { return spec_.empty(); }
  const std::string& spec() const { return spec_; }

 private:
  Xoshiro256 rng_;
  std::string spec_;
};

/// An iteration's input stream, the MakeVerifySetup knobs its checks use,
/// and the Count-Sketch sized for the full stream (what a production
/// deployment would provision for); degraded runs are judged later against
/// what actually arrived.
struct Workload {
  Stream stream;
  size_t k = 0;  ///< the top-k target before MakeVerifySetup clamps it
  VerifySetup setup;  ///< of the full stream; its knobs also drive Check
  VerifySketchPlan plan;

  /// The Lemma 4/5 check of `sketch` against the oracle of `reached`, the
  /// items that actually reached it: the bounds widen by exactly the lost
  /// mass, nothing more. Returns the first violation as "guarantee:
  /// detail", or "" when the sketch is clean (or nothing reached it).
  std::string Check(const CountSketch& sketch, const Stream& reached) const {
    if (reached.empty()) return "";
    const Oracle oracle(reached);
    const std::vector<Violation> violations = CheckCountSketchAgainstOracle(
        sketch, oracle,
        MakeVerifySetup(k, setup.epsilon, setup.width_scale, setup.seed,
                        oracle),
        plan.lemma_width);
    if (violations.empty()) return "";
    return violations.front().guarantee + ": " + violations.front().detail;
  }
};

Result<Workload> MakeWorkload(Stream stream, size_t k, double epsilon,
                              double width_scale, uint64_t seed) {
  Workload work{std::move(stream), k, {}, {}};
  work.setup =
      MakeVerifySetup(k, epsilon, width_scale, seed, Oracle(work.stream));
  STREAMFREQ_ASSIGN_OR_RETURN(work.plan, PlanVerifyCountSketch(work.setup));
  return work;
}

/// The fuzz program the ingest and tree scenarios replay at `index`; its
/// FormatProgram is a failure's `sfq verify --program` line.
FuzzProgram ChaosProgram(uint64_t seed, uint64_t index) {
  return ProgramFromSeed(seed ^ kProgramSalt, index);
}

Result<Workload> FuzzWorkload(const FuzzProgram& program) {
  STREAMFREQ_ASSIGN_OR_RETURN(Stream stream, MaterializeStream(program));
  return MakeWorkload(std::move(stream), program.k, program.epsilon,
                      program.width_scale, program.seed);
}

/// The served scenarios' workload: `n` Zipf(1.0) items over 2000 ids.
Result<Workload> ZipfWorkload(size_t n, uint64_t stream_seed,
                              uint64_t setup_seed) {
  auto gen = ZipfGenerator::Make(2000, 1.0, stream_seed);
  STREAMFREQ_RETURN_NOT_OK(gen.status());
  return MakeWorkload(gen->Take(n), /*k=*/10, /*epsilon=*/0.2,
                      /*width_scale=*/1.0, setup_seed);
}

Result<Iteration> RunIngestIteration(const ChaosOptions& options,
                                     const std::string& io_dir,
                                     uint64_t index,
                                     const std::string& schedule,
                                     ChaosReport* report) {
  STREAMFREQ_ASSIGN_OR_RETURN(
      const Workload work, FuzzWorkload(ChaosProgram(options.seed, index)));
  const Stream& stream = work.stream;

  ScopedFailpoints failpoints(schedule, options.seed ^ ((index + 1) * kMix));
  STREAMFREQ_RETURN_NOT_OK(failpoints.status());

  Xoshiro256 rng(options.seed ^ ((index + 7) * kMix));
  IngestOptions ingest;
  ingest.threads = 2 + static_cast<size_t>(rng.UniformBelow(2));
  ingest.batch_items = size_t{256} << rng.UniformBelow(3);
  ingest.queue_batches = 4;
  ingest.push_timeout_ms = 5;
  ingest.overflow_policy = rng.UniformBelow(2) == 0 ? OverflowPolicy::kShed
                                                    : OverflowPolicy::kSample;
  ingest.sample_keep_one_in = 4;
  ingest.record_shed = true;

  auto ingestor = ParallelIngestor<CountSketch>::Make(
      [&work]() { return CountSketch::Make(work.plan.params); }, ingest);
  if (!ingestor.ok()) {
    return Iteration{ChaosOutcome::kCleanError, ingestor.status().ToString(),
                     CountFires(report)};
  }
  const Status ingest_status =
      (*ingestor)->Ingest(std::span<const ItemId>(stream));
  Result<CountSketch> merged = (*ingestor)->Finish();
  const IngestStats stats = (*ingestor)->Stats();
  report->worker_respawns += stats.worker_respawns;
  report->dropped_items += stats.DroppedItems();
  const std::vector<ItemId> spill = (*ingestor)->SpilledItems();

  if (!ingest_status.ok() || !merged.ok()) {
    return Iteration{
        ChaosOutcome::kCleanError,
        (!ingest_status.ok() ? ingest_status : merged.status()).ToString(),
        CountFires(report)};
  }

  // Conservation: every offered item is either in a sketch or accounted
  // dropped, and the recorded spill is exactly the dropped mass.
  if (stats.items_ingested + stats.DroppedItems() != stream.size() ||
      spill.size() != stats.DroppedItems()) {
    return Iteration{ChaosOutcome::kGuaranteeFailure,
                     "mass accounting broken: offered " +
                         std::to_string(stream.size()) + ", ingested " +
                         std::to_string(stats.items_ingested) +
                         ", dropped " + std::to_string(stats.DroppedItems()) +
                         ", spill " + std::to_string(spill.size()),
                     CountFires(report)};
  }

  // Guarantee check against the effective stream.
  if (std::string bad = work.Check(*merged, EffectiveStream(stream, spill));
      !bad.empty()) {
    return Iteration{ChaosOutcome::kGuaranteeFailure, std::move(bad),
                     CountFires(report)};
  }

  // Round-trip the surviving sketch through persistence with the
  // sketch_io.* failpoints still armed: outcomes are a clean Status or a
  // loaded sketch whose estimates match the in-memory one exactly.
  Iteration result;
  if (options.exercise_io) {
    ++report->io_round_trips;
    const std::string path =
        IterationPath(io_dir, "sfq_chaos_", options.seed, index) + ".skf";
    const Status write_status = WriteSketchFile(path, *merged);
    if (!write_status.ok()) {
      ++report->io_faults;
    } else {
      Result<CountSketch> loaded = ReadSketchFile(path);
      if (!loaded.ok()) {
        ++report->io_faults;
      } else {
        for (const ItemId q : work.setup.probes) {
          if (loaded->Estimate(q) != merged->Estimate(q)) {
            result.outcome = ChaosOutcome::kGuaranteeFailure;
            result.detail =
                "persistence round trip changed the estimate of item " +
                std::to_string(q);
            break;
          }
        }
      }
    }
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }

  result.faulted = CountFires(report);
  return result;
}

// ---------------------------------------------------------------------------
// Server campaign (`sfq chaos --server`): the same contract, but the fault
// surface is a real SfqServer behind real client connections.
// ---------------------------------------------------------------------------

// Any of these on a request means the connection died under us (the server
// severed it at a failpoint, or accept dropped it). In this harness every
// tenant exists before ingest starts, so NotFound can only be net.cc's
// "connection closed".
bool IsSever(const Status& status) {
  return status.IsNotFound() || status.IsCorruption() || status.IsIoError();
}

// Pulls `"field":<integer>` out of one tenant's flat object inside the
// TenantsJson()/statsz JSON.
int64_t TenantJsonField(const std::string& json, const std::string& tenant,
                        const std::string& field) {
  const size_t tenant_at = json.find("\"" + tenant + "\":{");
  if (tenant_at == std::string::npos) return -1;
  const size_t scope_end = json.find('}', tenant_at);
  const size_t field_at = json.find("\"" + field + "\":", tenant_at);
  if (field_at == std::string::npos || field_at > scope_end) return -1;
  return std::strtoll(json.c_str() + field_at + field.size() + 3, nullptr,
                      10);
}

/// One tenant's conservation ledger as TenantsJson()/statsz report it. A
/// field the document lacks reads -1; base_ingested exists only for durable
/// tenants.
struct TenantLedger {
  int64_t offered = -1;
  int64_t rejected = -1;
  int64_t ingested = -1;
  int64_t dropped = -1;
  int64_t base_ingested = -1;
  int64_t respawns = -1;
  int64_t stale = -1;

  bool Complete() const {
    return offered >= 0 && rejected >= 0 && ingested >= 0 && dropped >= 0;
  }
  /// Nothing was rejected, dropped or lost in flight: the served sketch
  /// must equal the sequential reference over all `sent` items.
  bool LossFree(size_t sent) const {
    return offered == static_cast<int64_t>(sent) && rejected == 0 &&
           dropped == 0;
  }

  /// The reconciliation of a sealed tenant that was sent `sent` items and
  /// acknowledged `acked` of them: the conservation law (a durable tenant's
  /// recovered prefix sits in base_ingested), acks never exceed offers, and
  /// offers never exceed what was sent. Returns the failure, or "".
  std::string Reconcile(const std::string& tenant, uint64_t acked,
                        size_t sent) const {
    const int64_t base = std::max<int64_t>(0, base_ingested);
    if (offered - rejected != base + ingested + dropped) {
      return "conservation broken on " + tenant + ": offered " +
             std::to_string(offered) + " - rejected " +
             std::to_string(rejected) + " != base " + std::to_string(base) +
             " + ingested " + std::to_string(ingested) + " + dropped " +
             std::to_string(dropped);
    }
    if (static_cast<int64_t>(acked) > offered) {
      return "acks exceed offers on " + tenant + ": acked " +
             std::to_string(acked) + ", offered " + std::to_string(offered);
    }
    if (offered > static_cast<int64_t>(sent)) {
      return "offers exceed the stream on " + tenant + ": offered " +
             std::to_string(offered) + ", sent " + std::to_string(sent);
    }
    return "";
  }
};

TenantLedger ReadTenantLedger(const std::string& json,
                              const std::string& tenant) {
  TenantLedger ledger;
  ledger.offered = TenantJsonField(json, tenant, "offered_items");
  ledger.rejected = TenantJsonField(json, tenant, "rejected_items");
  ledger.ingested = TenantJsonField(json, tenant, "items_ingested");
  ledger.dropped = TenantJsonField(json, tenant, "dropped_items");
  ledger.base_ingested = TenantJsonField(json, tenant, "base_ingested");
  ledger.respawns = TenantJsonField(json, tenant, "worker_respawns");
  ledger.stale = TenantJsonField(json, tenant, "stale_serves");
  return ledger;
}

/// The tenant both server scenarios create: the workload's sketch behind a
/// small ingest pipeline whose admission control trips easily.
TenantSpec ChaosTenantSpec(const CountSketchParams& params,
                           OverflowPolicy policy) {
  TenantSpec spec;
  spec.depth = params.depth;
  spec.width = params.width;
  spec.seed = params.seed;
  spec.threads = 2;
  spec.batch_items = 512;
  spec.queue_batches = 4;
  spec.push_timeout_ms = 2;
  spec.policy = policy;
  spec.tracked = 256;
  return spec;
}

/// A create can be applied and then severed before the ack, so "already
/// exists" on the retry is success.
bool TenantCreated(const Status& status) {
  return status.ok() ||
         (status.IsInvalidArgument() &&
          status.message().find("already exists") != std::string::npos);
}

/// The served-sketch check: a loss-free export must be byte-identical to a
/// sequential CountSketch over the whole stream (Count-Sketch linearity
/// makes recovery and parallel ingest exact, not approximate) and clean
/// under the Lemma 4/5 check. Returns the failure, or "".
Result<std::string> CheckServedSketch(const CountSketch& exported,
                                      const Workload& work) {
  STREAMFREQ_ASSIGN_OR_RETURN(CountSketch reference,
                              CountSketch::Make(work.plan.params));
  for (const ItemId q : work.stream) reference.Add(q, 1);
  std::string exported_bytes;
  std::string reference_bytes;
  exported.SerializeTo(&exported_bytes);
  reference.SerializeTo(&reference_bytes);
  if (exported_bytes != reference_bytes) {
    return std::string(
        "served sketch is not bit-identical to the sequential reference");
  }
  return work.Check(exported, work.stream);
}

/// An iteration's socket and data dir, `base` + ".sock" / ".data", removed
/// on construction (a previous run's leftovers) and on every return path.
class IterationFiles {
 public:
  explicit IterationFiles(const std::string& base)
      : socket_path(base + ".sock"), data_dir(base + ".data") {
    Remove();
  }
  ~IterationFiles() { Remove(); }
  STREAMFREQ_DISALLOW_COPY_AND_ASSIGN(IterationFiles);

  const std::string socket_path;
  const std::string data_dir;

 private:
  void Remove() const {
    std::error_code ec;
    std::filesystem::remove_all(data_dir, ec);
    std::remove(socket_path.c_str());
  }
};

// One tenant's client-side ingest state: its own connection (SfqClient is
// single-threaded by contract) plus the ack ledger the reconciliation
// checks against.
struct TenantDriver {
  std::string name;
  OverflowPolicy policy = OverflowPolicy::kShed;
  std::unique_ptr<SfqClient> client;
  uint64_t acked_items = 0;
  uint64_t last_epoch = 0;
};

// (Re)connects a driver. Connect only fails if the listener is gone —
// which no schedule in this campaign does on purpose, so that IS a dead
// server and the caller turns it into a guarantee failure.
Status Reconnect(const std::string& socket_path, TenantDriver* driver) {
  auto client = SfqClient::Connect(socket_path);
  STREAMFREQ_RETURN_NOT_OK(client.status());
  driver->client = std::make_unique<SfqClient>(std::move(*client));
  return Status::OK();
}

Result<Iteration> RunServerIteration(const ChaosOptions& options,
                                     const std::string& io_dir,
                                     uint64_t index,
                                     const std::string& schedule,
                                     ChaosReport* report) {
  bool faulted = false;
  const auto fail = [&faulted](std::string detail) {
    return Iteration{ChaosOutcome::kGuaranteeFailure, std::move(detail),
                     faulted};
  };

  // Seeded workload: one zipf stream, every tenant receives all of it.
  Xoshiro256 rng(options.seed ^ ((index + 3) * kMix));
  const size_t n = 16384 + static_cast<size_t>(rng.UniformBelow(16384));
  STREAMFREQ_ASSIGN_OR_RETURN(
      const Workload work,
      ZipfWorkload(n, options.seed ^ (index * kMix),
                   options.seed ^ ((index + 11) * kMix)));
  const Stream& stream = work.stream;

  const IterationFiles files(
      IterationPath(io_dir, "sfq_chaos_srv_", options.seed, index));
  ServerOptions server_options;
  server_options.socket_path = files.socket_path;
  auto server = SfqServer::Start(server_options);
  if (!server.ok()) {
    return Iteration{ChaosOutcome::kCleanError, server.status().ToString(),
                     false};
  }

  std::vector<TenantDriver> drivers(2);
  drivers[0].name = "shed";
  drivers[1].name = "sample";
  drivers[1].policy = OverflowPolicy::kSample;

  {
    ScopedFailpoints failpoints(schedule, options.seed ^ ((index + 1) * kMix));
    STREAMFREQ_RETURN_NOT_OK(failpoints.status());

    // Tenant creation must survive severs.
    for (TenantDriver& driver : drivers) {
      const TenantSpec spec = ChaosTenantSpec(work.plan.params, driver.policy);
      bool created = false;
      for (int attempt = 0; attempt < 16 && !created; ++attempt) {
        const Status conn = Reconnect(server_options.socket_path, &driver);
        if (!conn.ok()) {
          return fail("server died during create: " + conn.ToString());
        }
        const Status status = driver.client->CreateTenant(driver.name, spec);
        if (TenantCreated(status)) {
          created = true;
        } else if (IsSever(status)) {
          ++report->server_severs;
        } else {
          return fail("create failed: " + status.ToString());
        }
      }
      if (!created) return fail("create never succeeded through the faults");
    }

    // Ingest in chunks, at most once each: after a sever the client cannot
    // know whether the chunk was applied (server.write) or lost before the
    // read (server.read), so it moves on and reconciliation trusts the
    // server-side ledger, never the ack count.
    constexpr size_t kChunkItems = 1024;
    for (TenantDriver& driver : drivers) {
      size_t chunk_index = 0;
      for (size_t begin = 0; begin < stream.size();
           begin += kChunkItems, ++chunk_index) {
        const size_t len = std::min(kChunkItems, stream.size() - begin);
        const std::span<const ItemId> chunk(stream.data() + begin, len);
        const Status status = driver.client->Ingest(driver.name, chunk);
        if (status.ok()) {
          driver.acked_items += len;
        } else if (IsSever(status)) {
          ++report->server_severs;
          const Status conn = Reconnect(server_options.socket_path, &driver);
          if (!conn.ok()) {
            return fail("server died mid-ingest: " + conn.ToString());
          }
        } else {
          // Admission control speaking (e.g. a kBlock timeout): an
          // explicit rejection, counted server-side as rejected_items.
          ++report->server_severs;
        }
        // Interleave snapshot reads so server.publish staleness is
        // actually exercised; epochs must never move backwards.
        if (chunk_index % 8 == 7) {
          uint64_t epoch = 0;
          auto top = driver.client->TopK(driver.name, 5, &epoch);
          if (top.ok()) {
            if (epoch < driver.last_epoch) {
              return fail("epoch went backwards on " + driver.name);
            }
            driver.last_epoch = epoch;
          } else if (IsSever(top.status())) {
            ++report->server_severs;
            const Status conn =
                Reconnect(server_options.socket_path, &driver);
            if (!conn.ok()) {
              return fail("server died mid-query: " + conn.ToString());
            }
          } else {
            return fail("query failed: " + top.status().ToString());
          }
        }
      }
    }

    // Seal in-process (the harness owns the server), then reconcile the
    // per-tenant ledgers while the faults are still armed — the numbers
    // must already be exact.
    (*server)->service().SealAll();
    const std::string tenants_json = (*server)->service().TenantsJson();
    for (TenantDriver& driver : drivers) {
      const TenantLedger ledger = ReadTenantLedger(tenants_json, driver.name);
      if (!ledger.Complete()) {
        return fail("tenant " + driver.name + " missing from statsz: " +
                    tenants_json);
      }
      report->dropped_items += static_cast<uint64_t>(ledger.dropped);
      report->worker_respawns += static_cast<uint64_t>(ledger.respawns);
      report->stale_serves += static_cast<uint64_t>(ledger.stale);
      if (std::string bad = ledger.Reconcile(driver.name, driver.acked_items,
                                             stream.size());
          !bad.empty()) {
        return fail(bad);
      }
    }
    faulted = CountFires(report);
  }  // failpoints disarm here; the server itself is still up

  // Fault-free epilogue: sealed tenants must answer, and when nothing made
  // the applied multiset ambiguous the served sketch must pass the
  // served-sketch check.
  const std::string tenants_json = (*server)->service().TenantsJson();
  auto epilogue = SfqClient::Connect(server_options.socket_path);
  if (!epilogue.ok()) {
    return fail("server dead after disarm: " + epilogue.status().ToString());
  }
  for (TenantDriver& driver : drivers) {
    uint64_t epoch = 0;
    auto top = epilogue->TopK(driver.name, 10, &epoch);
    if (!top.ok()) {
      return fail("sealed " + driver.name +
                  " stopped answering: " + top.status().ToString());
    }
    if (epoch < driver.last_epoch) {
      return fail("sealed epoch went backwards on " + driver.name);
    }
    if (!ReadTenantLedger(tenants_json, driver.name).LossFree(stream.size())) {
      continue;
    }
    auto exported = epilogue->Export(driver.name);
    if (!exported.ok()) {
      return fail("export failed on " + driver.name + ": " +
                  exported.status().ToString());
    }
    STREAMFREQ_ASSIGN_OR_RETURN(std::string bad,
                                CheckServedSketch(*exported, work));
    if (!bad.empty()) return fail(bad + " on " + driver.name);
  }

  report->server_requests += (*server)->Stats().requests;
  return Iteration{ChaosOutcome::kVerified, "", faulted};
}

// ---------------------------------------------------------------------------
// Kill-restart campaign (`sfq chaos --server-restart`): a real, durable
// `sfq serve` process that keeps dying — at armed failpoints (crash ==
// std::_Exit at the site) and under real SIGKILLs — and must keep coming
// back with its ledger intact.
// ---------------------------------------------------------------------------

/// One forked `sfq serve` child. The destructor kills and reaps it, so no
/// return path of an iteration leaves a daemon running.
struct ChildServer {
  pid_t pid = -1;
  int last_wstatus = 0;

  ChildServer() = default;
  ~ChildServer() { Kill(); }
  STREAMFREQ_DISALLOW_COPY_AND_ASSIGN(ChildServer);

  /// Non-blocking liveness probe; reaps the child when it has exited and
  /// remembers how it died (for diagnostics on unexpected deaths).
  bool Alive() {
    if (pid < 0) return false;
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, WNOHANG) == pid) {
      pid = -1;
      last_wstatus = wstatus;
      return false;
    }
    return true;
  }

  std::string DeathReason() const {
    if (WIFEXITED(last_wstatus)) {
      return "exit status " + std::to_string(WEXITSTATUS(last_wstatus));
    }
    if (WIFSIGNALED(last_wstatus)) {
      return "signal " + std::to_string(WTERMSIG(last_wstatus));
    }
    return "unknown wait status " + std::to_string(last_wstatus);
  }

  /// SIGKILL + reap (no-op when already gone).
  void Kill() {
    if (pid < 0) return;
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    pid = -1;
  }
};

/// Forks and execs `binary serve --socket ... --data-dir ...`. An empty
/// failpoint spec launches a clean (recovery-only) server. Child output is
/// routed to /dev/null so campaign output stays readable.
pid_t SpawnServe(const std::string& binary, const std::string& socket_path,
                 const std::string& data_dir, const std::string& failpoints,
                 uint64_t seed, const std::string& fsync_policy = "always") {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int devnull = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
  if (devnull >= 0) {
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(devnull, STDERR_FILENO);
    ::close(devnull);
  }
  std::vector<std::string> args = {binary,        "serve",
                                   "--socket",    socket_path,
                                   "--data-dir",  data_dir,
                                   "--snapshot-every", "2048",
                                   "--fsync",     fsync_policy,
                                   "--seed",      std::to_string(seed)};
  if (!failpoints.empty()) {
    args.push_back("--failpoints");
    args.push_back(failpoints);
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  ::execv(binary.c_str(), argv.data());
  std::_Exit(127);
}

/// Polls until the socket accepts a connection. A child that dies before
/// binding is an error — the caller decides whether that death was an armed
/// crash (relaunch) or a bug (fail the iteration).
Result<SfqClient> WaitReady(const std::string& socket_path,
                            ChildServer* child) {
  for (int attempt = 0; attempt < 2000; ++attempt) {
    auto client = SfqClient::Connect(socket_path);
    if (client.ok()) return client;
    if (!child->Alive()) {
      return Status::IoError("server process died before becoming ready (" +
                             child->DeathReason() + ")");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return Status::IoError("server never became ready on " + socket_path);
}

Result<Iteration> RunServerRestartIteration(const ChaosOptions& options,
                                            const std::string& io_dir,
                                            uint64_t index,
                                            const std::string& schedule,
                                            ChaosReport* report) {
  // Every relaunch follows a death: a failpoint exit or a real SIGKILL.
  const uint64_t deaths_before = report->crash_kills;
  const auto fail = [&](std::string detail) {
    return Iteration{ChaosOutcome::kGuaranteeFailure, std::move(detail),
                     report->crash_kills > deaths_before};
  };

  // Seeded workload, sized so one iteration (including a couple of process
  // restarts) stays well under a second.
  Xoshiro256 rng(options.seed ^ ((index + 13) * kMix));
  const size_t n = 4096 + static_cast<size_t>(rng.UniformBelow(4096));
  STREAMFREQ_ASSIGN_OR_RETURN(
      const Workload work,
      ZipfWorkload(n, options.seed ^ ((index + 17) * kMix),
                   options.seed ^ ((index + 19) * kMix)));
  const Stream& stream = work.stream;

  // Declared before the child, so the child is reaped before its files go.
  const IterationFiles files(
      IterationPath(io_dir, "sfq_chaos_rst_", options.seed, index));
  const std::string& socket_path = files.socket_path;

  // Rotate the WAL durability policy across iterations. Process kills (the
  // only death this campaign inflicts) preserve the page cache, so acked <=
  // offered must hold under every policy — including kBatch, whose bounded
  // ack-durability window only matters against a machine crash.
  const char* kFsyncPolicies[] = {"always", "never", "batch"};
  const std::string fsync_policy = kFsyncPolicies[rng.UniformBelow(3)];

  ChildServer child;
  // Masked to 63 bits: the CLI seed flag parses as a signed integer.
  child.pid = SpawnServe(options.server_binary, socket_path, files.data_dir,
                         schedule, (options.seed ^ ((index + 1) * kMix)) >> 1,
                         fsync_policy);
  if (child.pid < 0) return Status::Internal("chaos: fork failed");

  const std::string tenant = "dur";
  uint64_t acked_items = 0;
  uint64_t last_epoch = 0;

  // Relaunches the daemon WITHOUT failpoints over the same data dir, waits
  // for it, and records what recovery reported. Epochs reset with the
  // process, so the monotonicity baseline resets too.
  auto relaunch = [&]() -> Result<SfqClient> {
    ++report->crash_kills;
    ++report->server_restarts;
    std::remove(socket_path.c_str());
    child.pid = SpawnServe(options.server_binary, socket_path, files.data_dir,
                           /*failpoints=*/"", 0, fsync_policy);
    if (child.pid < 0) return Status::Internal("chaos: fork failed");
    STREAMFREQ_ASSIGN_OR_RETURN(SfqClient client,
                                WaitReady(socket_path, &child));
    last_epoch = 0;
    // A crash before the create was applied leaves no tenant — that is
    // the correct recovery of an unacknowledged create, not an error.
    auto info = client.RecoveryInfo(tenant);
    if (info.ok() && info->find("\"recovered\":true") != std::string::npos) {
      ++report->recoveries;
    }
    return client;
  };

  // After a sever: the child may be mid-exit (connection already dropped,
  // process not yet reapable), so poll liveness and the socket together
  // instead of trusting one snapshot of either.
  auto reconnect = [&]() -> Result<SfqClient> {
    auto conn = WaitReady(socket_path, &child);
    return conn.ok() || child.Alive() ? std::move(conn) : relaunch();
  };

  auto ready = WaitReady(socket_path, &child);
  if (!ready.ok()) {
    // Fresh dir, no tenants: nothing can fire before the bind, so a death
    // here is a bug, not an armed crash.
    return fail("server never came up: " + ready.status().ToString());
  }
  SfqClient client = std::move(*ready);

  // Counts a sever and moves `client` to a fresh connection. Returns the
  // failure detail when no server can be reached, "" otherwise.
  auto resume = [&](const char* during) -> std::string {
    ++report->server_severs;
    auto next = reconnect();
    if (!next.ok()) {
      return std::string("reconnect failed ") + during + ": " +
             next.status().ToString();
    }
    client = std::move(*next);
    return "";
  };

  // Create the durable tenant, surviving severs and armed crashes.
  const TenantSpec spec =
      ChaosTenantSpec(work.plan.params, OverflowPolicy::kShed);
  bool created = false;
  for (int attempt = 0; attempt < 16 && !created; ++attempt) {
    const Status status = client.CreateTenant(tenant, spec);
    if (TenantCreated(status)) {
      created = true;
    } else if (IsSever(status)) {
      if (std::string bad = resume("during create"); !bad.empty()) {
        return fail(bad);
      }
    } else {
      return fail("create failed: " + status.ToString());
    }
  }
  if (!created) return fail("create never succeeded through the faults");

  // At-most-once ingest: a severed chunk is never resent (retrying could
  // double-count an applied-but-unacked batch); reconciliation trusts the
  // server ledger. One randomized chunk boundary also takes a REAL SIGKILL
  // (50% of iterations), on top of whatever the armed schedule does.
  constexpr size_t kChunkItems = 512;
  const size_t total_chunks = (stream.size() + kChunkItems - 1) / kChunkItems;
  const uint64_t kill_at = rng.UniformBelow(total_chunks * 2);
  size_t chunk_index = 0;
  for (size_t begin = 0; begin < stream.size();
       begin += kChunkItems, ++chunk_index) {
    if (chunk_index == kill_at && child.Alive()) {
      child.Kill();
      auto next = relaunch();
      if (!next.ok()) {
        return fail("relaunch failed after SIGKILL: " +
                    next.status().ToString());
      }
      client = std::move(*next);
    }
    const size_t len = std::min(kChunkItems, stream.size() - begin);
    const std::span<const ItemId> chunk(stream.data() + begin, len);
    const Status status = client.Ingest(tenant, chunk);
    if (status.ok()) {
      acked_items += len;
    } else if (IsSever(status)) {
      if (std::string bad = resume("mid-ingest"); !bad.empty()) {
        return fail(bad);
      }
    }
    // else: an explicit server-side rejection (admission control or a
    // poisoned journal) — accounted in rejected_items, move on.

    if (chunk_index % 4 == 3) {
      uint64_t epoch = 0;
      auto top = client.TopK(tenant, 5, &epoch);
      if (top.ok()) {
        if (epoch < last_epoch) {
          return fail("epoch went backwards within one server process");
        }
        last_epoch = epoch;
      } else if (IsSever(top.status())) {
        if (std::string bad = resume("mid-query"); !bad.empty()) {
          return fail(bad);
        }
      } else {
        return fail("query failed: " + top.status().ToString());
      }
    }
  }

  // Seal + reconcile, surviving the schedule (the first process may still
  // be alive with benign faults armed).
  bool sealed = false;
  std::string statsz;
  for (int attempt = 0; attempt < 16 && !sealed; ++attempt) {
    auto epoch = client.Seal(tenant);
    if (epoch.ok()) {
      auto stats = client.Statsz();
      if (stats.ok()) {
        statsz = std::move(*stats);
        sealed = true;
        break;
      }
    }
    const Status bad = epoch.ok() ? Status::IoError("statsz severed")
                                  : epoch.status();
    if (!IsSever(bad)) return fail("seal failed: " + bad.ToString());
    if (std::string lost = resume("during seal"); !lost.empty()) {
      return fail(lost);
    }
  }
  if (!sealed) return fail("seal never succeeded through the faults");

  // Conservation across every crash: the recovered prefix sits in
  // base_ingested, the post-recovery live ingest in items_ingested.
  const TenantLedger ledger = ReadTenantLedger(statsz, tenant);
  if (!ledger.Complete() || ledger.base_ingested < 0) {
    return fail("tenant missing from statsz: " + statsz);
  }
  report->dropped_items += static_cast<uint64_t>(ledger.dropped);
  if (ledger.stale > 0) {
    report->stale_serves += static_cast<uint64_t>(ledger.stale);
  }
  // Acked batches were journaled before the ack (and a process kill keeps
  // the page cache), so no crash can make acks exceed the recovered offer;
  // offers beyond the stream would mean a duplicated replay.
  if (std::string bad = ledger.Reconcile(tenant, acked_items, stream.size());
      !bad.empty()) {
    return fail(bad);
  }

  // Loss-free iterations (every chunk applied exactly once, nothing shed)
  // must pass the served-sketch check.
  if (ledger.LossFree(stream.size())) {
    // The schedule can still sever the connection (or crash the daemon)
    // between the seal ack and this export; the seal snapshot is already
    // durable at that point, so reconnect and re-ask the recovered server.
    auto exported = client.Export(tenant);
    for (int attempt = 0;
         attempt < 16 && !exported.ok() && IsSever(exported.status());
         ++attempt) {
      if (std::string bad = resume("during export"); !bad.empty()) {
        return fail(bad);
      }
      exported = client.Export(tenant);
    }
    if (!exported.ok()) {
      return fail("export failed after seal: " +
                  exported.status().ToString());
    }
    STREAMFREQ_ASSIGN_OR_RETURN(std::string bad,
                                CheckServedSketch(*exported, work));
    if (!bad.empty()) return fail(bad);
    ++report->identity_checks;
  }

  report->server_requests += static_cast<uint64_t>(
      std::max<int64_t>(0, TenantJsonField(statsz, "server", "requests")));

  // Teardown: ask nicely; the child's destructor makes sure.
  const Status bye = client.Shutdown();
  (void)bye;
  for (int i = 0; i < 400 && child.Alive(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return Iteration{ChaosOutcome::kVerified, "",
                   report->crash_kills > deaths_before};
}

Result<Iteration> RunTreeIteration(const ChaosOptions& options,
                                   const std::string& /*io_dir*/,
                                   uint64_t index,
                                   const std::string& schedule,
                                   ChaosReport* report) {
  // Sized for the full stream; degraded runs are judged against the
  // covered (effective) stream, same discipline as the ingest scenario.
  STREAMFREQ_ASSIGN_OR_RETURN(
      const Workload work, FuzzWorkload(ChaosProgram(options.seed, index)));
  const Stream& stream = work.stream;

  // Randomized topology: flat star, balanced, or ragged random tree over
  // fanout 1..8 and depth 1..4.
  Xoshiro256 rng(options.seed ^ ((index + 11) * kMix));
  const uint64_t workers = 2 + rng.UniformBelow(7);
  const auto build_topology = [&]() -> Result<TreeTopology> {
    const uint64_t shape = rng.UniformBelow(3);
    if (shape == 0) return BuildBalancedTree(workers, 0);  // flat star
    if (shape == 1) return BuildBalancedTree(workers, 2 + rng.UniformBelow(3));
    return BuildRandomTree(workers, 1 + rng.UniformBelow(8),
                           1 + rng.UniformBelow(4), &rng);
  };
  STREAMFREQ_ASSIGN_OR_RETURN(const TreeTopology topo, build_topology());

  const size_t tracked = std::max<size_t>(16, 2 * work.k);
  STREAMFREQ_ASSIGN_OR_RETURN(
      MergeTreeSim sim, MergeTreeSim::Make(topo, work.plan.params, tracked));

  ScopedFailpoints failpoints(schedule, options.seed ^ ((index + 1) * kMix));
  STREAMFREQ_RETURN_NOT_OK(failpoints.status());

  // Every return path folds the sim's counters into the report.
  const auto finish = [&](ChaosOutcome outcome, std::string detail) {
    const MergeTreeStats& stats = sim.stats();
    report->deltas_shipped += stats.deltas_shipped;
    report->delta_dedups += stats.delta_dedups;
    report->severed_links += stats.severed_links;
    report->nodes_lost += stats.nodes_lost;
    const DistLedger root = sim.root_ledger();
    report->dropped_items += root.rejected + root.dropped;
    return Iteration{outcome, std::move(detail), CountFires(report)};
  };
  const auto fail = [&](std::string detail) {
    return finish(ChaosOutcome::kGuaranteeFailure, std::move(detail));
  };

  // Stripe the stream across the leaves in contiguous slices, then offer
  // interleaved batches with shipping rounds mixed in — deltas are in
  // flight while other leaves are still ingesting.
  const uint64_t leaves = topo.leaves.size();
  const uint64_t slice = (stream.size() + leaves - 1) / leaves;
  std::vector<uint64_t> offsets(leaves, 0);
  // What each leaf ingested, in order, rebuilt from this harness's own
  // stream: an Offer admits the prefix of its batch whose length is the
  // growth of the leaf's ingested count.
  std::map<uint64_t, Stream> ingested;
  const uint64_t batch = 128 + rng.UniformBelow(4) * 128;
  const uint64_t epoch_at = rng.UniformBelow(stream.size() + 1);
  uint64_t offered_so_far = 0;
  bool epoch_marked = false;
  bool exhausted = false;
  while (!exhausted) {
    exhausted = true;
    for (uint64_t li = 0; li < leaves; ++li) {
      const uint64_t begin = li * slice;
      const uint64_t end = std::min<uint64_t>(begin + slice, stream.size());
      const uint64_t len = end > begin ? end - begin : 0;
      if (offsets[li] >= len) continue;
      exhausted = false;
      const uint64_t leaf = topo.leaves[li];
      const uint64_t n = std::min<uint64_t>(batch, len - offsets[li]);
      if (!sim.alive(leaf)) {
        offsets[li] = len;  // a dead leaf's remaining slice is never offered
        continue;
      }
      const ItemId* const first = stream.data() + begin + offsets[li];
      const uint64_t before = sim.TotalLedger(leaf).ingested;
      const Status offer = sim.Offer(leaf, std::span<const ItemId>(first, n));
      const uint64_t admitted = sim.TotalLedger(leaf).ingested - before;
      ingested[leaf].insert(ingested[leaf].end(), first, first + admitted);
      offsets[li] += n;
      offered_so_far += n;
      if (!offer.ok() && !offer.IsNotFound()) {
        return finish(ChaosOutcome::kCleanError, offer.ToString());
      }
      if (!epoch_marked && offered_so_far >= epoch_at) {
        sim.MarkEpoch();
        epoch_marked = true;
      }
    }
    if (rng.UniformBelow(2) == 0) {
      const Result<bool> round = sim.ShipRound();
      if (!round.ok()) return fail("ship round: " + round.status().ToString());
    }
  }
  sim.Seal();
  const Status drained = sim.Drain(64 + 8 * topo.max_depth());
  if (!drained.ok()) return fail("drain: " + drained.ToString());

  // Exercise the root query surface (crash = failure; values are checked
  // below through the guarantee machinery).
  (void)sim.ApproxTop(work.k);
  const Result<std::vector<ItemCount>> change = sim.MaxChange(work.k);
  if (!change.ok()) return fail("max-change: " + change.status().ToString());

  // Law 1+2: conservation and composition at every node, and bit-identity
  // of every node's sketch against its covered-prefix reference.
  if (const Status invariants = sim.CheckInvariants(); !invariants.ok()) {
    return fail(invariants.ToString());
  }

  // Guarantee check over the effective (covered) stream.
  Stream effective;
  for (const CoverageEntry& cov : sim.RootCovered()) {
    const Stream& items = ingested[cov.leaf_id];
    if (cov.count > items.size()) {
      return fail("root covers more of leaf " + std::to_string(cov.leaf_id) +
                  " than it ingested");
    }
    effective.insert(effective.end(), items.begin(),
                     items.begin() + static_cast<ptrdiff_t>(cov.count));
  }
  if (std::string bad = work.Check(sim.root_sketch(), effective);
      !bad.empty()) {
    return fail(std::move(bad));
  }

  // Loss-free runs must be bit-identical to a flat one-shot Merge of all
  // leaf sketches over the full stream.
  const DistLedger root_ledger = sim.root_ledger();
  const bool loss_free = root_ledger.offered == stream.size() &&
                         root_ledger.rejected == 0 &&
                         root_ledger.dropped == 0 &&
                         root_ledger.ingested == stream.size();
  if (loss_free) {
    STREAMFREQ_ASSIGN_OR_RETURN(CountSketch flat,
                                CountSketch::Make(work.plan.params));
    for (uint64_t leaf : topo.leaves) {
      STREAMFREQ_ASSIGN_OR_RETURN(CountSketch leaf_sketch,
                                  CountSketch::Make(work.plan.params));
      leaf_sketch.BatchAdd(ingested[leaf]);
      STREAMFREQ_RETURN_NOT_OK(flat.Merge(leaf_sketch));
    }
    std::string want, got;
    flat.SerializeTo(&want);
    sim.root_sketch().SerializeTo(&got);
    if (want != got) {
      return fail("loss-free root sketch differs from flat one-shot merge");
    }
    ++report->identity_checks;
  }

  return finish(ChaosOutcome::kVerified, "");
}

/// A campaign: where its default schedules come from, what one iteration
/// does, and whether a failure replays as a fuzz program.
struct Scenario {
  std::string (*schedule)(uint64_t seed, uint64_t index);
  Result<Iteration> (*iteration)(const ChaosOptions& options,
                                 const std::string& io_dir, uint64_t index,
                                 const std::string& schedule,
                                 ChaosReport* report);
  bool replays_program;
};

Scenario ScenarioFor(ChaosScenario scenario) {
  switch (scenario) {
    case ChaosScenario::kIngest:
      return {ChaosScheduleForIteration, RunIngestIteration, true};
    case ChaosScenario::kServer:
      return {ServerChaosScheduleForIteration, RunServerIteration, false};
    case ChaosScenario::kServerRestart:
      return {ServerRestartScheduleForIteration, RunServerRestartIteration,
              false};
    case ChaosScenario::kTree:
      return {TreeChaosScheduleForIteration, RunTreeIteration, true};
  }
  return {ChaosScheduleForIteration, RunIngestIteration, true};
}

}  // namespace

std::string ChaosScheduleForIteration(uint64_t seed, uint64_t index) {
  ScheduleBuilder s(seed, index, 1);
  // Crash clauses ALWAYS carry a fire budget: an unbounded always-crash
  // worker would requeue and respawn forever.
  if (s.Chance(35)) {
    s.Add("ingestor.worker_batch=crash*" + std::to_string(1 + s.Below(3)));
  } else if (s.Chance(25)) {
    s.Add("ingestor.worker_batch=stall:1@0.02");
  }
  if (s.Chance(20)) s.Add("batch_queue.push=error@0.02");
  if (s.Chance(20)) s.Add("batch_queue.pop=stall:1@0.02");
  if (s.Chance(25)) s.Add("ingestor.publish=error@0.5");
  if (s.Chance(30)) {
    s.Add(std::string("sketch_io.write=") +
          (s.Chance(50) ? "torn*1" : "error*1"));
  }
  if (s.Chance(20)) s.Add("sketch_io.rename=error*1");
  if (s.Chance(30)) {
    s.Add(std::string("sketch_io.read=") +
          (s.Chance(50) ? "bitflip*1" : "error*1"));
  }
  if (s.empty()) s.Add("ingestor.worker_batch=crash*1");
  return s.spec();
}

std::string ServerChaosScheduleForIteration(uint64_t seed, uint64_t index) {
  ScheduleBuilder s(seed, index, 5);
  // Connection-level faults: each severs one conversation; the drivers
  // reconnect and reconciliation trusts the server-side ledger.
  if (s.Chance(40)) s.Add("server.accept=error@0.1");
  if (s.Chance(40)) s.Add("server.read=error@0.03");
  if (s.Chance(40)) s.Add("server.write=error@0.03");
  // Staleness: snapshot refreshes withheld on a coin flip.
  if (s.Chance(40)) s.Add("server.publish=error@0.5");
  // Back-pressure behind the protocol: stalled queues arm the tenants'
  // shed/sample admission control, crashed workers force respawns.
  if (s.Chance(25)) {
    s.Add("ingestor.worker_batch=crash*" + std::to_string(1 + s.Below(2)));
  }
  if (s.Chance(20)) s.Add("batch_queue.pop=stall:1@0.02");
  if (s.Chance(20)) s.Add("ingestor.publish=error@0.5");
  if (s.empty()) s.Add("server.write=error@0.05");
  return s.spec();
}

std::string ServerRestartScheduleForIteration(uint64_t seed, uint64_t index) {
  ScheduleBuilder s(seed, index, 9);
  // Exactly one process-death clause, probability-throttled and *1-budgeted
  // (each iteration dies at most once at a failpoint; the real SIGKILL in
  // the driver is on top). Each site leaves a different on-disk shape:
  //   wal.append       death before the record hits the journal
  //   wal.fsync        record written but not yet forced (page cache)
  //   snapshot.cut     journal cut to a new segment, no snapshot yet
  //   snapshot.publish death before the snapshot's commit rename
  //   sketch_io.write  death mid-blob-write (temp file only)
  //   sketch_io.rename temp fully written, rename never happened
  //   snapshot.unlink  snapshot renamed, covered segments not yet unlinked
  static constexpr const char* kDeathSites[] = {
      "wal.append",      "wal.fsync",        "snapshot.cut",
      "snapshot.publish", "sketch_io.write", "sketch_io.rename",
      "snapshot.unlink"};
  const std::string death =
      kDeathSites[s.Below(std::size(kDeathSites))];
  s.Add(death + "=crash@0.08*1");
  // Benign companions: severed acks (the applied-but-unacked ambiguity)
  // and, when the death site leaves wal.append free, one torn journal
  // record — which poisons the store into loud rejections, not corruption.
  if (s.Chance(25)) s.Add("server.write=error@0.02");
  if (s.Chance(15) && death != "wal.append") s.Add("wal.append=torn@0.05*1");
  return s.spec();
}

std::string TreeChaosScheduleForIteration(uint64_t seed, uint64_t index) {
  ScheduleBuilder s(seed, index, 13);
  // Admission faults at the leaves: rejected batches and recorded sheds —
  // the mass the conservation ledger must carry up the tree.
  if (s.Chance(30)) {
    s.Add("dist.ingest=error@0.05");
  } else if (s.Chance(25)) {
    s.Add("dist.ingest=torn@0.05");
  }
  // Uplink frame faults: severed, torn, or bit-flipped in flight. Torn and
  // flipped frames must die at the CRC and count as severs, never as
  // applied garbage.
  if (s.Chance(35)) {
    s.Add("dist.ship=error@0.08");
  } else if (s.Chance(25)) {
    s.Add("dist.ship=torn@0.06");
  } else if (s.Chance(20)) {
    s.Add("dist.ship=bitflip@0.05");
  }
  // Dropped deliveries re-ack the OLD seqno; lost acks force verbatim
  // resends — both must dedup exactly.
  if (s.Chance(30)) s.Add("dist.deliver=error@0.08");
  if (s.Chance(35)) s.Add("dist.ack=error@0.1");
  // Node loss ALWAYS carries a budget: an unbounded crash clause would
  // eventually kill every node and leave nothing to assert.
  if (s.Chance(30)) {
    s.Add("dist.node=crash@0.02*" + std::to_string(1 + s.Below(2)));
  }
  if (s.empty()) s.Add("dist.ack=error@0.1");
  return s.spec();
}

Result<ChaosReport> RunChaosCampaign(const ChaosOptions& options) {
  if (options.iterations == 0) {
    return Status::InvalidArgument("chaos: iterations must be >= 1");
  }
  if (options.scenario == ChaosScenario::kServerRestart &&
      options.server_binary.empty()) {
    return Status::InvalidArgument(
        "chaos: --server-restart needs the sfq binary path");
  }
  // A malformed spec is a harness error in every scenario, including the
  // one that only hands it to a child process.
  {
    const ScopedFailpoints probe(options.failpoints, options.seed);
    STREAMFREQ_RETURN_NOT_OK(probe.status());
  }
  std::string io_dir = options.io_dir;
  if (io_dir.empty()) {
    std::error_code ec;
    const std::filesystem::path tmp =
        std::filesystem::temp_directory_path(ec);
    if (ec) return Status::IoError("chaos: no temp directory: " + ec.message());
    io_dir = tmp.string();
  }

  const Scenario scenario = ScenarioFor(options.scenario);
  ChaosReport report;
  for (uint64_t index = 0; index < options.iterations; ++index) {
    const std::string schedule =
        options.failpoints.empty() ? scenario.schedule(options.seed, index)
                                   : options.failpoints;
    STREAMFREQ_ASSIGN_OR_RETURN(
        Iteration iteration,
        scenario.iteration(options, io_dir, index, schedule, &report));
    ++report.iterations;
    if (iteration.faulted) ++report.faulted_iterations;
    switch (iteration.outcome) {
      case ChaosOutcome::kVerified:
        ++report.verified;
        break;
      case ChaosOutcome::kCleanError:
        ++report.clean_errors;
        break;
      case ChaosOutcome::kGuaranteeFailure: {
        ++report.guarantee_failures;
        ChaosFailure failure;
        failure.index = index;
        if (scenario.replays_program) {
          failure.program = FormatProgram(ChaosProgram(options.seed, index));
        }
        failure.schedule = schedule;
        failure.detail = std::move(iteration.detail);
        report.failures.push_back(std::move(failure));
        break;
      }
    }
  }
  return report;
}

}  // namespace streamfreq
