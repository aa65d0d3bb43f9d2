// SfqClient: the client library for `sfq serve`, shared by the CLI
// (`sfq client`), the load driver (bench/bench_serve.cc), and the test
// battery.
//
// One client wraps one connection and is NOT thread-safe: concurrent
// callers each open their own client (connections are cheap on local
// sockets, and one-outstanding-request-per-connection keeps latency
// attribution honest in the load driver).
//
// Every RPC is one Request frame out, one Response frame back. Transport
// and framing failures surface as the transport's Status (IoError /
// Corruption / NotFound-on-EOF); server-side failures arrive as error
// Responses and surface as the server's Status. A client that hits a
// transport error should reconnect — the server may have applied the
// request even when the ack never arrived (see docs/SERVER.md on
// reconciliation).
//
// Optional retry (RetryOptions, off by default): Connect and Ingest can
// retry transport-layer failures with exponential backoff and
// deterministic jitter (seeded splitmix64, so a failing run replays
// exactly). Only failures of the round trip itself are retried; a
// server-side error Response is a definitive answer and is never retried.
// Caveat: an Ingest retry is at-least-once — the server may have applied
// the chunk before severing the ack, so a retried chunk can double-count.
// Workloads that reconcile exact counters (the chaos harness) keep
// retries off and trust server-side accounting instead.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/count_sketch.h"
#include "server/protocol.h"
#include "stream/exact_counter.h"
#include "stream/types.h"
#include "util/net.h"
#include "util/result.h"
#include "util/splitmix64.h"
#include "util/status.h"

namespace streamfreq {

/// Client-side retry policy. Off by default (retries == 0).
struct RetryOptions {
  uint32_t retries = 0;      ///< extra attempts after the first failure
  uint64_t backoff_ms = 50;  ///< base backoff; doubles per attempt (capped)
  uint64_t seed = 1;         ///< jitter stream seed (deterministic replay)
};

class SfqClient {
 public:
  /// Connects to a server's unix-domain socket, retrying per `retry`
  /// (a just-restarted server whose socket is not yet bound is the
  /// intended customer).
  static Result<SfqClient> Connect(const std::string& socket_path,
                                   const RetryOptions& retry = {});

  SfqClient(SfqClient&&) = default;
  SfqClient& operator=(SfqClient&&) = default;

  /// Raw round trip: send `request`, receive the Response. The returned
  /// Response may itself carry an error code (server-side failure).
  Result<Response> Call(const Request& request);

  /// Round trip that also converts a server-side error into its Status.
  Result<Response> CallChecked(const Request& request);

  // Typed wrappers (all one round trip; see protocol.h for semantics).
  Status Ping();
  Status CreateTenant(const std::string& tenant, const TenantSpec& spec);
  Status DropTenant(const std::string& tenant);
  /// Appends items to the tenant's stream. Batches larger than one frame's
  /// bound are split across multiple requests.
  Status Ingest(const std::string& tenant, std::span<const ItemId> items);
  /// Seals the tenant (drains ingest; read-only afterwards). Returns the
  /// final snapshot epoch.
  Result<uint64_t> Seal(const std::string& tenant);
  Result<std::vector<ItemCount>> TopK(const std::string& tenant, uint64_t k,
                                      uint64_t* epoch = nullptr);
  Result<Count> Estimate(const std::string& tenant, ItemId item,
                         uint64_t* epoch = nullptr);
  /// Remembers the tenant's current snapshot; returns the marked epoch.
  Result<uint64_t> MarkEpoch(const std::string& tenant);
  /// Top-k |delta| since the marked epoch; entry counts are signed deltas.
  Result<std::vector<ItemCount>> MaxChange(const std::string& tenant,
                                           uint64_t k);
  /// Deserialized copy of the tenant's current snapshot sketch.
  Result<CountSketch> Export(const std::string& tenant,
                             uint64_t* epoch = nullptr);
  /// Startup-recovery details for a tenant, as a JSON blob (empty-ish when
  /// the tenant was freshly created rather than recovered).
  Result<std::string> RecoveryInfo(const std::string& tenant);
  /// The server's /statsz JSON document.
  Result<std::string> Statsz();
  /// Asks the server to shut down (acknowledged before teardown starts).
  Status Shutdown();

 private:
  explicit SfqClient(OwnedFd fd) : fd_(std::move(fd)) {}

  /// One ingest chunk with transport-level retry (reconnect + resend).
  Status IngestChunk(const Request& request);
  /// Sleeps the backoff for `attempt` and advances the jitter stream.
  void BackoffSleep(uint32_t attempt);

  OwnedFd fd_;
  std::string socket_path_;  ///< empty when retry is off (no reconnects)
  RetryOptions retry_;
  SplitMix64 jitter_{0};  ///< seeded, so a failing run replays exactly
};

}  // namespace streamfreq
