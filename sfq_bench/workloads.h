// The three workload engines (tracker, server, merge tree), the
// outside-in layer sweep, and the per-kind ledgers.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "stream/types.h"
#include "util.h"

namespace streamfreq::bench {

/// Sketch parameters of one geometry (Carter–Wegman rows, median estimate).
inline CountSketchParams Geometry(uint64_t depth, uint64_t width,
                                  uint64_t seed) {
  CountSketchParams params;
  params.depth = static_cast<size_t>(depth);
  params.width = static_cast<size_t>(width);
  params.seed = seed;
  return params;
}

/// The tenant every served path uses: the serve-* workloads and the
/// server-layer sweeps of the other workloads.
TenantSpec ServeSpec(uint64_t sketch_seed, size_t tracked);

/// An in-process SfqServer with one tenant and two connections (ingest,
/// query) on a unix socket under RunDir(). The destructor closes both
/// connections, stops the server and removes its socket and data_dir.
class ServedTenant {
 public:
  static constexpr const char* kTenant = "bench";

  /// `durable` puts the tenant's journal and snapshots in a fresh data_dir
  /// (WalFsync::kBatch, default snapshot cadence).
  static std::unique_ptr<ServedTenant> Start(const TenantSpec& spec,
                                             bool durable);
  ~ServedTenant();
  ServedTenant(const ServedTenant&) = delete;
  ServedTenant& operator=(const ServedTenant&) = delete;

  SfqClient& ingest() { return *ingest_; }
  SfqClient& query() { return *query_; }

 private:
  ServedTenant() = default;

  std::string socket_;
  std::string data_dir_;
  std::unique_ptr<SfqServer> server_;
  std::optional<SfqClient> ingest_;
  std::optional<SfqClient> query_;
};

/// Generated inputs, built before the peak-RSS mark is reset so they do not
/// count as the program's memory. The exact answers the gates compare
/// against are computed after the measured phase, for the same reason.
struct Inputs {
  /// track/serve: the stream. tree: kTreeLeaves equal slices, one per leaf.
  Stream stream;
  uint64_t sketch_seed = 1;
};
Inputs MakeInputs(const Workload& w, const RunOptions& opts);

/// One measured run of a workload's end-to-end path.
struct E2E {
  std::vector<double> rates;      ///< items/s: per round, or the capacity phase
  std::vector<double> ingest_us;  ///< per ingest request
  std::vector<double> query_us;   ///< per top-k query
  /// Where each measurement window (a round, or a second of the open loop)
  /// starts in ingest_us / query_us. A latency metric is the median over
  /// windows of each window's percentile, so one disturbed window cannot
  /// move it.
  std::vector<size_t> ingest_windows;
  std::vector<size_t> query_windows;
  std::vector<double> setup_s;    ///< one per set-up repetition
  double recall = 0;        ///< topk_recall, with kRecallSlack
  double recall_plain = 0;  ///< the same with no slack (a diagnostic)
  double peak_rss_mb = 0;   ///< taken right after the measured phase
  /// The cost the ledger splits and trace overhead compares: ns per item
  /// (track, tree) or mean ingest latency in µs (serve).
  double unit_cost = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> gate_failures;
  Metrics layer;            ///< per-layer values this run observed itself
  std::vector<Span> spans;  ///< empty unless traced
};

E2E RunTrack(const Workload& w, const RunOptions& opts, const Inputs& in,
             double seconds, bool trace);
E2E RunServe(const Workload& w, const RunOptions& opts, const Inputs& in,
             double seconds, bool trace);
E2E RunTree(const Workload& w, const RunOptions& opts, const Inputs& in,
            double seconds, bool trace);

/// Times each layer's public calls from outside on the workload's stream:
/// hash and core at the workload's geometry, concurrent and server at the
/// served tenant's, dist at the merge tree's. Every per-layer metric except
/// the ledger residual and the trace overhead.
Metrics LayerSweep(const Workload& w, const RunOptions& opts, const Inputs& in);

/// The blocking-path ledger of the traced run: per-layer self time per unit
/// of work, from its spans and the sweep (`layers`), ending in an explicit
/// residual that neither accounts for.
std::vector<LedgerRow> TrackLedger(const E2E& traced, const Metrics& layers);
std::vector<LedgerRow> ServeLedger(const E2E& traced, const Metrics& layers);
std::vector<LedgerRow> TreeLedger(const E2E& traced, const Metrics& layers);

}  // namespace streamfreq::bench
