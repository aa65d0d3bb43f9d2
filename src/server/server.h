// SfqServer: the long-lived daemon behind `sfq serve`.
//
// One accept thread plus one handler thread per connection (local sockets,
// tens of clients — the thread-per-connection model keeps every blocking
// point visible to TSan and the failpoint schedules). Handlers decode one
// Request frame at a time, dispatch to the shared SketchService, and write
// one Response frame back; all sketch-level concurrency lives in the
// service and the per-tenant ingestors.
//
// Failure discipline per connection:
//   - A clean EOF between frames ends the conversation.
//   - A corrupt frame (bad magic/length/CRC, mid-frame hangup) gets a
//     best-effort error Response, then the connection closes — the byte
//     stream can no longer be trusted to be frame-aligned.
//   - A CRC-valid frame whose payload fails to decode (unknown opcode,
//     malformed fields) gets an error Response and the connection stays
//     open: framing is still synced, the client just sent a bad request.
//   - Chaos sites: `server.accept` drops a just-accepted connection,
//     `server.read`/`server.write` sever the connection at a frame
//     boundary (the client observes EOF — possibly after the server
//     already applied the request, which is why reconciliation trusts
//     server-side counters, not client acks), `server.publish` (in the
//     service) withholds snapshot refreshes.
//
// Shutdown: a kShutdown request (or RequestStop) wakes Wait(); Stop()
// closes the listener, severs live connections, joins every thread, and
// seals all tenants so final stats are exact.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <thread>

#include "server/service.h"
#include "util/mutex.h"
#include "util/net.h"
#include "util/result.h"

namespace streamfreq {

/// Server configuration.
struct ServerOptions {
  std::string socket_path;  ///< unix-domain socket to listen on (required)
  int backlog = 64;         ///< listen(2) backlog
  /// Durability knobs (data_dir, fsync policy, snapshot cadence); an empty
  /// data_dir serves in-memory tenants exactly as before.
  ServiceOptions service;
};

/// Monotonic counters for the /statsz "server" section.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t requests = 0;
  uint64_t protocol_errors = 0;  ///< corrupt frames / undecodable payloads
  uint64_t accept_faults = 0;    ///< server.accept fired
  uint64_t read_faults = 0;      ///< server.read fired
  uint64_t write_faults = 0;     ///< server.write fired
};

class SfqServer {
 public:
  /// Recovers durable tenants (when a data_dir is configured), then binds
  /// the socket and starts the accept thread. The server is serving when
  /// this returns — recovery completes before the socket exists, so any
  /// client that can connect observes fully recovered state.
  static Result<std::unique_ptr<SfqServer>> Start(const ServerOptions& options);

  ~SfqServer();

  SfqServer(const SfqServer&) = delete;
  SfqServer& operator=(const SfqServer&) = delete;

  /// Blocks until a kShutdown request (or RequestStop) arrives, then tears
  /// the server down. Returns after every thread is joined.
  void Wait();

  /// Asynchronously asks the server to stop (idempotent, thread-safe).
  void RequestStop();

  /// Current counter values (relaxed reads; exact after Wait returns).
  ServerStats Stats() const;

  /// The tenant registry (exposed for in-process tests and the chaos
  /// harness, which reconcile server-side accounting directly).
  SketchService& service() { return service_; }

  const std::string& socket_path() const { return options_.socket_path; }

 private:
  /// One live (or finished, awaiting reap) connection.
  struct Connection {
    OwnedFd fd;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  explicit SfqServer(ServerOptions options);

  void AcceptLoop();
  void HandleConnection(Connection* conn);
  /// Joins handler threads that have finished on their own; called from
  /// the accept loop so a long-lived server does not accumulate dead
  /// threads, and from Stop with `all` to join the stragglers.
  void Reap(bool all);
  void Stop();
  std::string StatszJson() const;

  const ServerOptions options_;
  // NOLINTNEXTLINE(sfq-unguarded-member): set once before the accept thread starts; Stop only touches it after joining that thread
  OwnedFd listener_;
  // NOLINTNEXTLINE(sfq-unguarded-member): internally synchronized (per-tenant locks inside SketchService)
  SketchService service_;
  const std::chrono::steady_clock::time_point started_;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> accept_faults_{0};
  std::atomic<uint64_t> read_faults_{0};
  std::atomic<uint64_t> write_faults_{0};

  /// Serializes Stop() bodies (Wait and the destructor can race). Ordering:
  /// stop_mu_ is always taken before mu_, never the other way.
  Mutex stop_mu_;

  mutable Mutex mu_ SFQ_ACQUIRED_AFTER(stop_mu_);
  CondVar stop_cv_;
  bool stop_requested_ SFQ_GUARDED_BY(mu_) = false;
  bool stopped_ SFQ_GUARDED_BY(mu_) = false;
  std::list<std::unique_ptr<Connection>> connections_ SFQ_GUARDED_BY(mu_);

  std::thread accept_thread_;
};

}  // namespace streamfreq
