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

struct IterationResult {
  ChaosOutcome outcome = ChaosOutcome::kVerified;
  std::string detail;
  IngestStats stats;
  uint64_t fires = 0;
  bool io_attempted = false;
  bool io_faulted = false;
};

Result<IterationResult> RunIteration(const ChaosOptions& options,
                                     const std::string& io_dir,
                                     uint64_t index) {
  const FuzzProgram program =
      ProgramFromSeed(options.seed ^ kProgramSalt, index);
  STREAMFREQ_ASSIGN_OR_RETURN(Stream stream, MaterializeStream(program));

  // Size the sketch for the full stream (what a production deployment
  // would provision for); degraded runs are judged later against what
  // actually arrived.
  const Oracle full_oracle(stream);
  const VerifySetup sizing = MakeVerifySetup(
      program.k, program.epsilon, program.width_scale, program.seed,
      full_oracle);
  STREAMFREQ_ASSIGN_OR_RETURN(VerifySketchPlan plan,
                              PlanVerifyCountSketch(sizing));

  const std::string schedule =
      options.failpoints.empty()
          ? ChaosScheduleForIteration(options.seed, index)
          : options.failpoints;
  ScopedFailpoints failpoints(schedule,
                              options.seed ^ ((index + 1) * kMix));
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

  IterationResult result;
  auto finish_fires = [&result] {
    result.fires = FailpointRegistry::Global().TotalFires();
  };

  const auto factory = [&plan]() { return CountSketch::Make(plan.params); };
  auto ingestor =
      ParallelIngestor<CountSketch>::Make(factory, ingest);
  if (!ingestor.ok()) {
    result.outcome = ChaosOutcome::kCleanError;
    result.detail = ingestor.status().ToString();
    finish_fires();
    return result;
  }
  const Status ingest_status =
      (*ingestor)->Ingest(std::span<const ItemId>(stream));
  Result<CountSketch> merged = (*ingestor)->Finish();
  result.stats = (*ingestor)->Stats();
  const std::vector<ItemId> spill = (*ingestor)->SpilledItems();

  if (!ingest_status.ok() || !merged.ok()) {
    result.outcome = ChaosOutcome::kCleanError;
    result.detail =
        (!ingest_status.ok() ? ingest_status : merged.status()).ToString();
    finish_fires();
    return result;
  }

  // Conservation: every offered item is either in a sketch or accounted
  // dropped, and the recorded spill is exactly the dropped mass.
  if (result.stats.items_ingested + result.stats.DroppedItems() !=
          stream.size() ||
      spill.size() != result.stats.DroppedItems()) {
    result.outcome = ChaosOutcome::kGuaranteeFailure;
    result.detail = "mass accounting broken: offered " +
                    std::to_string(stream.size()) + ", ingested " +
                    std::to_string(result.stats.items_ingested) +
                    ", dropped " +
                    std::to_string(result.stats.DroppedItems()) +
                    ", spill " + std::to_string(spill.size());
    finish_fires();
    return result;
  }

  // Guarantee check against the effective stream: the bounds widen by
  // exactly the shed mass, nothing more.
  const Stream effective = EffectiveStream(stream, spill);
  if (!effective.empty()) {
    const Oracle effective_oracle(effective);
    const VerifySetup check_setup = MakeVerifySetup(
        program.k, program.epsilon, program.width_scale, program.seed,
        effective_oracle);
    const std::vector<Violation> violations = CheckCountSketchAgainstOracle(
        *merged, effective_oracle, check_setup, plan.lemma_width);
    if (!violations.empty()) {
      result.outcome = ChaosOutcome::kGuaranteeFailure;
      result.detail = violations.front().guarantee + std::string(": ") +
                      violations.front().detail;
      finish_fires();
      return result;
    }
  }

  // Round-trip the surviving sketch through persistence with the
  // sketch_io.* failpoints still armed: outcomes are a clean Status or a
  // loaded sketch whose estimates match the in-memory one exactly.
  if (options.exercise_io) {
    result.io_attempted = true;
    const std::string path =
        io_dir + "/sfq_chaos_" + std::to_string(options.seed) + "_" +
        std::to_string(index) + ".skf";
    const Status write_status = WriteSketchFile(path, *merged);
    if (!write_status.ok()) {
      result.io_faulted = true;
    } else {
      Result<CountSketch> loaded = ReadSketchFile(path);
      if (!loaded.ok()) {
        result.io_faulted = true;
      } else {
        for (const ItemId q : sizing.probes) {
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

  finish_fires();
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

struct ServerIterationResult {
  ChaosOutcome outcome = ChaosOutcome::kVerified;
  std::string detail;
  uint64_t fires = 0;
  uint64_t requests = 0;
  uint64_t severs = 0;
  uint64_t stale_serves = 0;
  uint64_t dropped_items = 0;
  uint64_t worker_respawns = 0;
  uint64_t restarts = 0;         ///< daemon relaunches (restart campaign)
  uint64_t deaths = 0;           ///< failpoint exits + real SIGKILLs
  uint64_t recoveries = 0;       ///< relaunches reporting recovered state
  uint64_t identity_checks = 0;  ///< bit-identity verified this iteration
};

// One tenant's client-side ingest state: its own connection (SfqClient is
// single-threaded by contract) plus the ack ledger the reconciliation
// checks against.
struct TenantDriver {
  std::string name;
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

Result<ServerIterationResult> RunServerIteration(const ChaosOptions& options,
                                                 const std::string& io_dir,
                                                 uint64_t index) {
  ServerIterationResult result;
  const auto fail = [&result](std::string detail) {
    result.outcome = ChaosOutcome::kGuaranteeFailure;
    result.detail = std::move(detail);
    return result;
  };

  // Seeded workload: one zipf stream, every tenant receives all of it.
  Xoshiro256 rng(options.seed ^ ((index + 3) * kMix));
  const size_t n = 16384 + static_cast<size_t>(rng.UniformBelow(16384));
  auto gen = ZipfGenerator::Make(2000, 1.0, options.seed ^ (index * kMix));
  STREAMFREQ_RETURN_NOT_OK(gen.status());
  const Stream stream = gen->Take(n);
  const Oracle oracle(stream);
  const VerifySetup setup = MakeVerifySetup(
      /*k=*/10, /*epsilon=*/0.2, /*width_scale=*/1.0,
      options.seed ^ ((index + 11) * kMix), oracle);
  STREAMFREQ_ASSIGN_OR_RETURN(VerifySketchPlan plan,
                              PlanVerifyCountSketch(setup));

  ServerOptions server_options;
  server_options.socket_path = io_dir + "/sfq_chaos_srv_" +
                               std::to_string(options.seed) + "_" +
                               std::to_string(index) + ".sock";
  auto server = SfqServer::Start(server_options);
  if (!server.ok()) {
    result.outcome = ChaosOutcome::kCleanError;
    result.detail = server.status().ToString();
    return result;
  }

  TenantSpec spec;
  spec.depth = plan.params.depth;
  spec.width = plan.params.width;
  spec.seed = plan.params.seed;
  spec.threads = 2;
  spec.batch_items = 512;
  spec.queue_batches = 4;
  spec.push_timeout_ms = 2;
  spec.tracked = 256;
  std::vector<TenantDriver> drivers;
  {
    TenantDriver shed;
    shed.name = "shed";
    drivers.push_back(std::move(shed));
    TenantDriver sample;
    sample.name = "sample";
    drivers.push_back(std::move(sample));
  }

  const std::string schedule =
      options.failpoints.empty()
          ? ServerChaosScheduleForIteration(options.seed, index)
          : options.failpoints;

  {
    ScopedFailpoints failpoints(schedule,
                                options.seed ^ ((index + 1) * kMix));
    STREAMFREQ_RETURN_NOT_OK(failpoints.status());

    // Tenant creation must survive severs: a create can be applied and
    // then severed before the ack, so "already exists" on the retry is
    // success.
    for (TenantDriver& driver : drivers) {
      TenantSpec tenant_spec = spec;
      tenant_spec.policy = driver.name == "shed" ? OverflowPolicy::kShed
                                                 : OverflowPolicy::kSample;
      bool created = false;
      for (int attempt = 0; attempt < 16 && !created; ++attempt) {
        const Status conn = Reconnect(server_options.socket_path, &driver);
        if (!conn.ok()) {
          return fail("server died during create: " + conn.ToString());
        }
        const Status status =
            driver.client->CreateTenant(driver.name, tenant_spec);
        if (status.ok() ||
            (status.IsInvalidArgument() &&
             status.message().find("already exists") != std::string::npos)) {
          created = true;
        } else if (IsSever(status)) {
          ++result.severs;
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
          ++result.severs;
          const Status conn = Reconnect(server_options.socket_path, &driver);
          if (!conn.ok()) {
            return fail("server died mid-ingest: " + conn.ToString());
          }
        } else {
          // Admission control speaking (e.g. a kBlock timeout): an
          // explicit rejection, counted server-side as rejected_items.
          ++result.severs;
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
            ++result.severs;
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
      const int64_t offered =
          TenantJsonField(tenants_json, driver.name, "offered_items");
      const int64_t rejected =
          TenantJsonField(tenants_json, driver.name, "rejected_items");
      const int64_t ingested =
          TenantJsonField(tenants_json, driver.name, "items_ingested");
      const int64_t dropped =
          TenantJsonField(tenants_json, driver.name, "dropped_items");
      const int64_t respawns =
          TenantJsonField(tenants_json, driver.name, "worker_respawns");
      const int64_t stale =
          TenantJsonField(tenants_json, driver.name, "stale_serves");
      if (offered < 0 || rejected < 0 || ingested < 0 || dropped < 0) {
        return fail("tenant " + driver.name + " missing from statsz: " +
                    tenants_json);
      }
      result.dropped_items += static_cast<uint64_t>(dropped);
      result.worker_respawns += static_cast<uint64_t>(respawns);
      result.stale_serves += static_cast<uint64_t>(stale);
      if (offered - rejected != ingested + dropped) {
        return fail("conservation broken on " + driver.name + ": offered " +
                    std::to_string(offered) + " - rejected " +
                    std::to_string(rejected) + " != ingested " +
                    std::to_string(ingested) + " + dropped " +
                    std::to_string(dropped));
      }
      if (static_cast<int64_t>(driver.acked_items) > offered) {
        return fail("acks exceed offers on " + driver.name + ": acked " +
                    std::to_string(driver.acked_items) + ", offered " +
                    std::to_string(offered));
      }
      if (offered > static_cast<int64_t>(stream.size())) {
        return fail("offers exceed the stream on " + driver.name);
      }
    }
    result.fires = FailpointRegistry::Global().TotalFires();
  }  // failpoints disarm here; the server itself is still up

  // Fault-free epilogue: sealed tenants must answer, and when nothing made
  // the applied multiset ambiguous the served sketch must be bit-identical
  // to a sequential reference and clean under the Lemma 4/5 check.
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
    const int64_t offered =
        TenantJsonField(tenants_json, driver.name, "offered_items");
    const int64_t rejected =
        TenantJsonField(tenants_json, driver.name, "rejected_items");
    const int64_t dropped =
        TenantJsonField(tenants_json, driver.name, "dropped_items");
    const bool unambiguous = offered == static_cast<int64_t>(stream.size()) &&
                             rejected == 0 && dropped == 0;
    if (!unambiguous) continue;
    auto exported = epilogue->Export(driver.name);
    if (!exported.ok()) {
      return fail("export failed on " + driver.name + ": " +
                  exported.status().ToString());
    }
    auto reference = CountSketch::Make(plan.params);
    STREAMFREQ_RETURN_NOT_OK(reference.status());
    for (const ItemId q : stream) reference->Add(q, 1);
    std::string exported_bytes;
    std::string reference_bytes;
    exported->SerializeTo(&exported_bytes);
    reference->SerializeTo(&reference_bytes);
    if (exported_bytes != reference_bytes) {
      return fail("served sketch is not bit-identical to the sequential "
                  "reference on " + driver.name);
    }
    const std::vector<Violation> violations = CheckCountSketchAgainstOracle(
        *exported, oracle, setup, plan.lemma_width);
    if (!violations.empty()) {
      return fail(violations.front().guarantee + std::string(": ") +
                  violations.front().detail);
    }
  }

  result.requests = (*server)->Stats().requests;
  (*server)->RequestStop();
  server->reset();
  std::remove(server_options.socket_path.c_str());
  return result;
}

// ---------------------------------------------------------------------------
// Kill-restart campaign (`sfq chaos --server-restart`): a real, durable
// `sfq serve` process that keeps dying — at armed failpoints (crash ==
// std::_Exit at the site) and under real SIGKILLs — and must keep coming
// back with its ledger intact.
// ---------------------------------------------------------------------------

/// One forked `sfq serve` child.
struct ChildServer {
  pid_t pid = -1;
  int last_wstatus = 0;

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

Result<ServerIterationResult> RunServerRestartIteration(
    const ChaosOptions& options, const std::string& io_dir, uint64_t index) {
  ServerIterationResult result;
  const auto fail = [&result](std::string detail) {
    result.outcome = ChaosOutcome::kGuaranteeFailure;
    result.detail = std::move(detail);
    return result;
  };

  // Seeded workload, sized so one iteration (including a couple of process
  // restarts) stays well under a second.
  Xoshiro256 rng(options.seed ^ ((index + 13) * kMix));
  const size_t n = 4096 + static_cast<size_t>(rng.UniformBelow(4096));
  auto gen = ZipfGenerator::Make(2000, 1.0,
                                 options.seed ^ ((index + 17) * kMix));
  STREAMFREQ_RETURN_NOT_OK(gen.status());
  const Stream stream = gen->Take(n);
  const Oracle oracle(stream);
  const VerifySetup setup = MakeVerifySetup(
      /*k=*/10, /*epsilon=*/0.2, /*width_scale=*/1.0,
      options.seed ^ ((index + 19) * kMix), oracle);
  STREAMFREQ_ASSIGN_OR_RETURN(VerifySketchPlan plan,
                              PlanVerifyCountSketch(setup));

  const std::string base = io_dir + "/sfq_chaos_rst_" +
                           std::to_string(options.seed) + "_" +
                           std::to_string(index);
  const std::string data_dir = base + ".data";
  const std::string socket_path = base + ".sock";
  std::error_code ec;
  std::filesystem::remove_all(data_dir, ec);
  std::remove(socket_path.c_str());

  const std::string schedule =
      options.failpoints.empty()
          ? ServerRestartScheduleForIteration(options.seed, index)
          : options.failpoints;

  // Rotate the WAL durability policy across iterations. Process kills (the
  // only death this campaign inflicts) preserve the page cache, so acked <=
  // offered must hold under every policy — including kBatch, whose bounded
  // ack-durability window only matters against a machine crash.
  const char* kFsyncPolicies[] = {"always", "never", "batch"};
  const std::string fsync_policy = kFsyncPolicies[rng.UniformBelow(3)];

  ChildServer child;
  // Masked to 63 bits: the CLI seed flag parses as a signed integer.
  child.pid = SpawnServe(options.server_binary, socket_path, data_dir,
                         schedule,
                         (options.seed ^ ((index + 1) * kMix)) >> 1,
                         fsync_policy);
  if (child.pid < 0) return Status::Internal("chaos: fork failed");

  const std::string tenant = "dur";
  uint64_t acked_items = 0;
  uint64_t last_epoch = 0;

  // Relaunches the daemon WITHOUT failpoints over the same data dir, waits
  // for it, and records what recovery reported. Epochs reset with the
  // process, so the monotonicity baseline resets too.
  auto relaunch = [&]() -> Result<SfqClient> {
    ++result.deaths;
    ++result.restarts;
    std::remove(socket_path.c_str());
    child.pid = SpawnServe(options.server_binary, socket_path, data_dir,
                           /*failpoints=*/"", 0, fsync_policy);
    if (child.pid < 0) return Status::Internal("chaos: fork failed");
    STREAMFREQ_ASSIGN_OR_RETURN(SfqClient client,
                                WaitReady(socket_path, &child));
    last_epoch = 0;
    // A crash before the create was applied leaves no tenant — that is
    // the correct recovery of an unacknowledged create, not an error.
    auto info = client.RecoveryInfo(tenant);
    if (info.ok() && info->find("\"recovered\":true") != std::string::npos) {
      ++result.recoveries;
    }
    return client;
  };

  // After a sever: the child may be mid-exit (connection already dropped,
  // process not yet reapable), so poll liveness and the socket together
  // instead of trusting one snapshot of either.
  auto reconnect = [&]() -> Result<SfqClient> {
    for (int attempt = 0; attempt < 400; ++attempt) {
      if (!child.Alive()) return relaunch();
      auto conn = SfqClient::Connect(socket_path);
      if (conn.ok()) return conn;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return Status::IoError("server alive but unreachable on " + socket_path);
  };

  auto ready = WaitReady(socket_path, &child);
  if (!ready.ok()) {
    // Fresh dir, no tenants: nothing can fire before the bind, so a death
    // here is a bug, not an armed crash.
    child.Kill();
    return fail("server never came up: " + ready.status().ToString());
  }
  SfqClient client = std::move(*ready);

  // Create the durable tenant, surviving severs and armed crashes; a
  // create applied before the ack was lost answers "already exists" on the
  // retry, which is success.
  TenantSpec spec;
  spec.depth = plan.params.depth;
  spec.width = plan.params.width;
  spec.seed = plan.params.seed;
  spec.threads = 2;
  spec.batch_items = 512;
  spec.queue_batches = 4;
  spec.push_timeout_ms = 2;
  spec.policy = OverflowPolicy::kShed;
  spec.tracked = 256;
  bool created = false;
  for (int attempt = 0; attempt < 16 && !created; ++attempt) {
    const Status status = client.CreateTenant(tenant, spec);
    if (status.ok() ||
        (status.IsInvalidArgument() &&
         status.message().find("already exists") != std::string::npos)) {
      created = true;
    } else if (IsSever(status)) {
      ++result.severs;
      auto next = reconnect();
      if (!next.ok()) {
        return fail("reconnect failed during create: " +
                    next.status().ToString());
      }
      client = std::move(*next);
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
      ++result.severs;
      auto next = reconnect();
      if (!next.ok()) {
        return fail("reconnect failed mid-ingest: " +
                    next.status().ToString());
      }
      client = std::move(*next);
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
        ++result.severs;
        auto next = reconnect();
        if (!next.ok()) {
          return fail("reconnect failed mid-query: " +
                      next.status().ToString());
        }
        client = std::move(*next);
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
    ++result.severs;
    auto next = reconnect();
    if (!next.ok()) {
      return fail("reconnect failed during seal: " + next.status().ToString());
    }
    client = std::move(*next);
  }
  if (!sealed) return fail("seal never succeeded through the faults");

  // Conservation across every crash: the recovered prefix sits in
  // base_ingested, the post-recovery live ingest in items_ingested.
  const int64_t offered = TenantJsonField(statsz, tenant, "offered_items");
  const int64_t rejected = TenantJsonField(statsz, tenant, "rejected_items");
  const int64_t ingested = TenantJsonField(statsz, tenant, "items_ingested");
  const int64_t dropped = TenantJsonField(statsz, tenant, "dropped_items");
  const int64_t base_ingested =
      TenantJsonField(statsz, tenant, "base_ingested");
  const int64_t stale = TenantJsonField(statsz, tenant, "stale_serves");
  if (offered < 0 || rejected < 0 || ingested < 0 || dropped < 0 ||
      base_ingested < 0) {
    return fail("tenant missing from statsz: " + statsz);
  }
  result.dropped_items += static_cast<uint64_t>(dropped);
  if (stale > 0) result.stale_serves += static_cast<uint64_t>(stale);
  if (offered - rejected != base_ingested + ingested + dropped) {
    return fail("conservation broken across restarts: offered " +
                std::to_string(offered) + " - rejected " +
                std::to_string(rejected) + " != base " +
                std::to_string(base_ingested) + " + ingested " +
                std::to_string(ingested) + " + dropped " +
                std::to_string(dropped));
  }
  // fsync=always: every acked batch was journaled to stable storage before
  // the ack, so no crash can make acks exceed the durable offer.
  if (static_cast<int64_t>(acked_items) > offered) {
    return fail("acked items exceed recovered offers: acked " +
                std::to_string(acked_items) + ", offered " +
                std::to_string(offered));
  }
  if (offered > static_cast<int64_t>(stream.size())) {
    return fail("offers exceed the stream (duplicated replay?): offered " +
                std::to_string(offered) + ", sent " +
                std::to_string(stream.size()));
  }

  // Loss-free iterations (every chunk applied exactly once, nothing shed)
  // must serve a sketch bit-identical to the uninterrupted sequential run —
  // Count-Sketch linearity makes recovery exact, not approximate.
  if (offered == static_cast<int64_t>(stream.size()) && rejected == 0 &&
      dropped == 0) {
    // The schedule can still sever the connection (or crash the daemon)
    // between the seal ack and this export; the seal snapshot is already
    // durable at that point, so reconnect and re-ask the recovered server.
    auto exported = client.Export(tenant);
    for (int attempt = 0;
         attempt < 16 && !exported.ok() && IsSever(exported.status());
         ++attempt) {
      ++result.severs;
      auto next = reconnect();
      if (!next.ok()) {
        return fail("reconnect failed during export: " +
                    next.status().ToString());
      }
      client = std::move(*next);
      exported = client.Export(tenant);
    }
    if (!exported.ok()) {
      return fail("export failed after seal: " +
                  exported.status().ToString());
    }
    auto reference = CountSketch::Make(plan.params);
    STREAMFREQ_RETURN_NOT_OK(reference.status());
    for (const ItemId q : stream) reference->Add(q, 1);
    std::string exported_bytes;
    std::string reference_bytes;
    exported->SerializeTo(&exported_bytes);
    reference->SerializeTo(&reference_bytes);
    if (exported_bytes != reference_bytes) {
      return fail("recovered sketch is not bit-identical to the sequential "
                  "reference");
    }
    const std::vector<Violation> violations = CheckCountSketchAgainstOracle(
        *exported, oracle, setup, plan.lemma_width);
    if (!violations.empty()) {
      return fail(violations.front().guarantee + std::string(": ") +
                  violations.front().detail);
    }
    ++result.identity_checks;
  }

  result.requests = static_cast<uint64_t>(
      std::max<int64_t>(0, TenantJsonField(statsz, "server", "requests")));

  // Teardown: ask nicely, then make sure.
  const Status bye = client.Shutdown();
  (void)bye;
  for (int i = 0; i < 400 && child.Alive(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  child.Kill();
  std::filesystem::remove_all(data_dir, ec);
  std::remove(socket_path.c_str());
  return result;
}

}  // namespace

std::string ChaosScheduleForIteration(uint64_t seed, uint64_t index) {
  Xoshiro256 rng(seed ^ kScheduleSalt ^ ((index + 1) * kMix));
  const auto chance = [&rng](uint64_t percent) {
    return rng.UniformBelow(100) < percent;
  };
  std::vector<std::string> clauses;
  // Crash clauses ALWAYS carry a fire budget: an unbounded always-crash
  // worker would requeue and respawn forever.
  if (chance(35)) {
    clauses.push_back("ingestor.worker_batch=crash*" +
                      std::to_string(1 + rng.UniformBelow(3)));
  } else if (chance(25)) {
    clauses.push_back("ingestor.worker_batch=stall:1@0.02");
  }
  if (chance(20)) clauses.push_back("batch_queue.push=error@0.02");
  if (chance(20)) clauses.push_back("batch_queue.pop=stall:1@0.02");
  if (chance(25)) clauses.push_back("ingestor.publish=error@0.5");
  if (chance(30)) {
    clauses.push_back(std::string("sketch_io.write=") +
                      (chance(50) ? "torn*1" : "error*1"));
  }
  if (chance(20)) clauses.push_back("sketch_io.rename=error*1");
  if (chance(30)) {
    clauses.push_back(std::string("sketch_io.read=") +
                      (chance(50) ? "bitflip*1" : "error*1"));
  }
  if (clauses.empty()) clauses.push_back("ingestor.worker_batch=crash*1");

  std::string spec;
  for (const std::string& clause : clauses) {
    if (!spec.empty()) spec += ';';
    spec += clause;
  }
  return spec;
}

Result<ChaosReport> RunChaosCampaign(const ChaosOptions& options) {
  if (options.iterations == 0) {
    return Status::InvalidArgument("chaos: iterations must be >= 1");
  }
  std::string io_dir = options.io_dir;
  if (io_dir.empty()) {
    std::error_code ec;
    const std::filesystem::path tmp =
        std::filesystem::temp_directory_path(ec);
    if (ec) return Status::IoError("chaos: no temp directory: " + ec.message());
    io_dir = tmp.string();
  }

  ChaosReport report;
  for (uint64_t index = 0; index < options.iterations; ++index) {
    STREAMFREQ_ASSIGN_OR_RETURN(IterationResult iteration,
                                RunIteration(options, io_dir, index));
    ++report.iterations;
    report.fault_fires += iteration.fires;
    if (iteration.fires > 0) ++report.faulted_iterations;
    report.worker_respawns += iteration.stats.worker_respawns;
    report.dropped_items += iteration.stats.DroppedItems();
    if (iteration.io_attempted) ++report.io_round_trips;
    if (iteration.io_faulted) ++report.io_faults;
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
        failure.program =
            FormatProgram(ProgramFromSeed(options.seed ^ kProgramSalt, index));
        failure.schedule = options.failpoints.empty()
                               ? ChaosScheduleForIteration(options.seed, index)
                               : options.failpoints;
        failure.detail = iteration.detail;
        report.failures.push_back(std::move(failure));
        break;
      }
    }
  }
  return report;
}

std::string ServerChaosScheduleForIteration(uint64_t seed, uint64_t index) {
  Xoshiro256 rng(seed ^ kScheduleSalt ^ ((index + 5) * kMix));
  const auto chance = [&rng](uint64_t percent) {
    return rng.UniformBelow(100) < percent;
  };
  std::vector<std::string> clauses;
  // Connection-level faults: each severs one conversation; the drivers
  // reconnect and reconciliation trusts the server-side ledger.
  if (chance(40)) clauses.push_back("server.accept=error@0.1");
  if (chance(40)) clauses.push_back("server.read=error@0.03");
  if (chance(40)) clauses.push_back("server.write=error@0.03");
  // Staleness: snapshot refreshes withheld on a coin flip.
  if (chance(40)) clauses.push_back("server.publish=error@0.5");
  // Back-pressure behind the protocol: stalled queues arm the tenants'
  // shed/sample admission control, crashed workers force respawns.
  if (chance(25)) {
    clauses.push_back("ingestor.worker_batch=crash*" +
                      std::to_string(1 + rng.UniformBelow(2)));
  }
  if (chance(20)) clauses.push_back("batch_queue.pop=stall:1@0.02");
  if (chance(20)) clauses.push_back("ingestor.publish=error@0.5");
  if (clauses.empty()) clauses.push_back("server.write=error@0.05");

  std::string spec;
  for (const std::string& clause : clauses) {
    if (!spec.empty()) spec += ';';
    spec += clause;
  }
  return spec;
}

Result<ChaosReport> RunServerChaosCampaign(const ChaosOptions& options) {
  if (options.iterations == 0) {
    return Status::InvalidArgument("chaos: iterations must be >= 1");
  }
  std::string io_dir = options.io_dir;
  if (io_dir.empty()) {
    std::error_code ec;
    const std::filesystem::path tmp =
        std::filesystem::temp_directory_path(ec);
    if (ec) return Status::IoError("chaos: no temp directory: " + ec.message());
    io_dir = tmp.string();
  }

  ChaosReport report;
  for (uint64_t index = 0; index < options.iterations; ++index) {
    STREAMFREQ_ASSIGN_OR_RETURN(ServerIterationResult iteration,
                                RunServerIteration(options, io_dir, index));
    ++report.iterations;
    report.fault_fires += iteration.fires;
    if (iteration.fires > 0) ++report.faulted_iterations;
    report.worker_respawns += iteration.worker_respawns;
    report.dropped_items += iteration.dropped_items;
    report.server_requests += iteration.requests;
    report.server_severs += iteration.severs;
    report.stale_serves += iteration.stale_serves;
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
        failure.schedule =
            options.failpoints.empty()
                ? ServerChaosScheduleForIteration(options.seed, index)
                : options.failpoints;
        failure.detail = iteration.detail;
        report.failures.push_back(std::move(failure));
        break;
      }
    }
  }
  return report;
}

std::string ServerRestartScheduleForIteration(uint64_t seed, uint64_t index) {
  Xoshiro256 rng(seed ^ kScheduleSalt ^ ((index + 9) * kMix));
  const auto chance = [&rng](uint64_t percent) {
    return rng.UniformBelow(100) < percent;
  };
  // Exactly one process-death clause, probability-throttled and *1-budgeted
  // (each iteration dies at most once at a failpoint; the real SIGKILL in
  // the driver is on top). Each site leaves a different on-disk shape:
  //   wal.append       death before the record hits the journal
  //   wal.fsync        record written but not yet forced (page cache)
  //   snapshot.publish death before the snapshot's commit rename
  //   sketch_io.write  death mid-blob-write (temp file only)
  //   sketch_io.rename temp fully written, rename never happened
  static constexpr const char* kDeathSites[] = {
      "wal.append", "wal.fsync", "snapshot.publish", "sketch_io.write",
      "sketch_io.rename"};
  const char* death = kDeathSites[rng.UniformBelow(5)];
  std::vector<std::string> clauses;
  clauses.push_back(std::string(death) + "=crash@0.08*1");
  // Benign companions: severed acks (the applied-but-unacked ambiguity)
  // and, when the death site leaves wal.append free, one torn journal
  // record — which poisons the store into loud rejections, not corruption.
  if (chance(25)) clauses.push_back("server.write=error@0.02");
  if (chance(15) && std::string(death) != "wal.append") {
    clauses.push_back("wal.append=torn@0.05*1");
  }

  std::string spec;
  for (const std::string& clause : clauses) {
    if (!spec.empty()) spec += ';';
    spec += clause;
  }
  return spec;
}

std::string TreeChaosScheduleForIteration(uint64_t seed, uint64_t index) {
  Xoshiro256 rng(seed ^ kScheduleSalt ^ ((index + 13) * kMix));
  const auto chance = [&rng](uint64_t percent) {
    return rng.UniformBelow(100) < percent;
  };
  std::vector<std::string> clauses;
  // Admission faults at the leaves: rejected batches and recorded sheds —
  // the mass the conservation ledger must carry up the tree.
  if (chance(30)) {
    clauses.push_back("dist.ingest=error@0.05");
  } else if (chance(25)) {
    clauses.push_back("dist.ingest=torn@0.05");
  }
  // Uplink frame faults: severed, torn, or bit-flipped in flight. Torn and
  // flipped frames must die at the CRC and count as severs, never as
  // applied garbage.
  if (chance(35)) {
    clauses.push_back("dist.ship=error@0.08");
  } else if (chance(25)) {
    clauses.push_back("dist.ship=torn@0.06");
  } else if (chance(20)) {
    clauses.push_back("dist.ship=bitflip@0.05");
  }
  // Dropped deliveries re-ack the OLD seqno; lost acks force verbatim
  // resends — both must dedup exactly.
  if (chance(30)) clauses.push_back("dist.deliver=error@0.08");
  if (chance(35)) clauses.push_back("dist.ack=error@0.1");
  // Node loss ALWAYS carries a budget: an unbounded crash clause would
  // eventually kill every node and leave nothing to assert.
  if (chance(30)) {
    clauses.push_back("dist.node=crash@0.02*" +
                      std::to_string(1 + rng.UniformBelow(2)));
  }
  if (clauses.empty()) clauses.push_back("dist.ack=error@0.1");

  std::string spec;
  for (const std::string& clause : clauses) {
    if (!spec.empty()) spec += ';';
    spec += clause;
  }
  return spec;
}

namespace {

struct TreeIterationResult {
  ChaosOutcome outcome = ChaosOutcome::kVerified;
  std::string detail;
  MergeTreeStats stats;
  uint64_t fires = 0;
  uint64_t dropped_items = 0;
  bool identity_checked = false;
};

Result<TreeIterationResult> RunTreeIteration(const ChaosOptions& options,
                                             uint64_t index) {
  const FuzzProgram program =
      ProgramFromSeed(options.seed ^ kProgramSalt, index);
  STREAMFREQ_ASSIGN_OR_RETURN(Stream stream, MaterializeStream(program));

  // Size the sketch for the full stream; degraded runs are judged against
  // the covered (effective) stream, same discipline as RunIteration.
  const Oracle full_oracle(stream);
  const VerifySetup sizing = MakeVerifySetup(
      program.k, program.epsilon, program.width_scale, program.seed,
      full_oracle);
  STREAMFREQ_ASSIGN_OR_RETURN(VerifySketchPlan plan,
                              PlanVerifyCountSketch(sizing));

  // Randomized topology: flat star, balanced, or ragged random tree over
  // fanout 1..8 and depth 1..4.
  Xoshiro256 rng(options.seed ^ ((index + 11) * kMix));
  const uint64_t workers = 2 + rng.UniformBelow(7);
  Result<TreeTopology> topo_result = [&]() -> Result<TreeTopology> {
    const uint64_t shape = rng.UniformBelow(3);
    if (shape == 0) return BuildBalancedTree(workers, 0);  // flat star
    if (shape == 1) return BuildBalancedTree(workers, 2 + rng.UniformBelow(3));
    return BuildRandomTree(workers, 1 + rng.UniformBelow(8),
                           1 + rng.UniformBelow(4), &rng);
  }();
  STREAMFREQ_RETURN_NOT_OK(topo_result.status());
  const TreeTopology& topo = *topo_result;

  const size_t tracked = std::max<size_t>(16, 2 * program.k);
  Result<MergeTreeSim> sim_result =
      MergeTreeSim::Make(*topo_result, plan.params, tracked);
  STREAMFREQ_RETURN_NOT_OK(sim_result.status());
  MergeTreeSim& sim = *sim_result;

  const std::string schedule =
      options.failpoints.empty()
          ? TreeChaosScheduleForIteration(options.seed, index)
          : options.failpoints;
  ScopedFailpoints failpoints(schedule,
                              options.seed ^ ((index + 1) * kMix));
  STREAMFREQ_RETURN_NOT_OK(failpoints.status());

  TreeIterationResult result;
  auto finish = [&result, &sim] {
    result.stats = sim.stats();
    result.fires = FailpointRegistry::Global().TotalFires();
    const DistLedger root = sim.root_ledger();
    result.dropped_items = root.rejected + root.dropped;
  };
  auto fail = [&](std::string detail) {
    result.outcome = ChaosOutcome::kGuaranteeFailure;
    result.detail = std::move(detail);
    finish();
    return result;
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
        result.outcome = ChaosOutcome::kCleanError;
        result.detail = offer.ToString();
        finish();
        return result;
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
  (void)sim.ApproxTop(program.k);
  const Result<std::vector<ItemCount>> change = sim.MaxChange(program.k);
  if (!change.ok()) return fail("max-change: " + change.status().ToString());

  // Law 1+2: conservation and composition at every node, and bit-identity
  // of every node's sketch against its covered-prefix reference.
  if (const Status invariants = sim.CheckInvariants(); !invariants.ok()) {
    return fail(invariants.ToString());
  }

  // Guarantee check over the effective (covered) stream: bounds widen by
  // exactly the composed shed mass.
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
  if (!effective.empty()) {
    const Oracle effective_oracle(effective);
    const VerifySetup check_setup = MakeVerifySetup(
        program.k, program.epsilon, program.width_scale, program.seed,
        effective_oracle);
    const std::vector<Violation> violations = CheckCountSketchAgainstOracle(
        sim.root_sketch(), effective_oracle, check_setup, plan.lemma_width);
    if (!violations.empty()) {
      return fail(violations.front().guarantee + std::string(": ") +
                  violations.front().detail);
    }
  }

  // Loss-free runs must be bit-identical to a flat one-shot Merge of all
  // leaf sketches over the full stream.
  const DistLedger root_ledger = sim.root_ledger();
  const bool loss_free = root_ledger.offered == stream.size() &&
                         root_ledger.rejected == 0 &&
                         root_ledger.dropped == 0 &&
                         root_ledger.ingested == stream.size();
  if (loss_free) {
    Result<CountSketch> flat = CountSketch::Make(plan.params);
    STREAMFREQ_RETURN_NOT_OK(flat.status());
    for (uint64_t leaf : topo.leaves) {
      Result<CountSketch> leaf_sketch = CountSketch::Make(plan.params);
      STREAMFREQ_RETURN_NOT_OK(leaf_sketch.status());
      leaf_sketch->BatchAdd(ingested[leaf]);
      STREAMFREQ_RETURN_NOT_OK(flat->Merge(*leaf_sketch));
    }
    std::string want, got;
    flat->SerializeTo(&want);
    sim.root_sketch().SerializeTo(&got);
    if (want != got) {
      return fail("loss-free root sketch differs from flat one-shot merge");
    }
    result.identity_checked = true;
  }

  finish();
  return result;
}

}  // namespace

Result<ChaosReport> RunTreeChaosCampaign(const ChaosOptions& options) {
  if (options.iterations == 0) {
    return Status::InvalidArgument("chaos: iterations must be >= 1");
  }
  ChaosReport report;
  for (uint64_t index = 0; index < options.iterations; ++index) {
    STREAMFREQ_ASSIGN_OR_RETURN(TreeIterationResult iteration,
                                RunTreeIteration(options, index));
    ++report.iterations;
    report.fault_fires += iteration.fires;
    if (iteration.fires > 0) ++report.faulted_iterations;
    report.dropped_items += iteration.dropped_items;
    report.deltas_shipped += iteration.stats.deltas_shipped;
    report.delta_dedups += iteration.stats.delta_dedups;
    report.severed_links += iteration.stats.severed_links;
    report.nodes_lost += iteration.stats.nodes_lost;
    if (iteration.identity_checked) ++report.identity_checks;
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
        failure.program =
            FormatProgram(ProgramFromSeed(options.seed ^ kProgramSalt, index));
        failure.schedule =
            options.failpoints.empty()
                ? TreeChaosScheduleForIteration(options.seed, index)
                : options.failpoints;
        failure.detail = iteration.detail;
        report.failures.push_back(std::move(failure));
        break;
      }
    }
  }
  return report;
}

Result<ChaosReport> RunServerRestartCampaign(const ChaosOptions& options) {
  if (options.iterations == 0) {
    return Status::InvalidArgument("chaos: iterations must be >= 1");
  }
  if (options.server_binary.empty()) {
    return Status::InvalidArgument(
        "chaos: --server-restart needs the sfq binary path");
  }
  std::string io_dir = options.io_dir;
  if (io_dir.empty()) {
    std::error_code ec;
    const std::filesystem::path tmp =
        std::filesystem::temp_directory_path(ec);
    if (ec) return Status::IoError("chaos: no temp directory: " + ec.message());
    io_dir = tmp.string();
  }

  ChaosReport report;
  for (uint64_t index = 0; index < options.iterations; ++index) {
    STREAMFREQ_ASSIGN_OR_RETURN(
        ServerIterationResult iteration,
        RunServerRestartIteration(options, io_dir, index));
    ++report.iterations;
    if (iteration.deaths > 0) ++report.faulted_iterations;
    report.dropped_items += iteration.dropped_items;
    report.server_requests += iteration.requests;
    report.server_severs += iteration.severs;
    report.stale_serves += iteration.stale_serves;
    report.server_restarts += iteration.restarts;
    report.crash_kills += iteration.deaths;
    report.recoveries += iteration.recoveries;
    report.identity_checks += iteration.identity_checks;
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
        failure.schedule =
            options.failpoints.empty()
                ? ServerRestartScheduleForIteration(options.seed, index)
                : options.failpoints;
        failure.detail = iteration.detail;
        report.failures.push_back(std::move(failure));
        break;
      }
    }
  }
  return report;
}

}  // namespace streamfreq
