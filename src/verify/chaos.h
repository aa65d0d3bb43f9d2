// Chaos harness: fuzz programs replayed under randomized fault injection.
//
// Each iteration takes one seeded FuzzProgram (the same grammar `sfq
// verify` replays), arms a bounded failpoint schedule, and pushes the
// stream through the degraded ParallelIngestor (shed/sample overflow
// policies with the spill recorded). The invariant under test is the
// robustness contract of the whole pipeline:
//
//   every iteration ends in a clean error Status, or in a sketch that
//   passes its GuaranteeChecker against the *effective* stream — the
//   items that actually reached a worker, i.e. the input multiset minus
//   the recorded shed mass. Nothing crashes, nothing silently lies.
//
// Checking against the effective stream is what "widen the bounds by
// exactly the shed mass" means operationally: the oracle, probes, and
// residual-F2 term are recomputed from the surviving items, so a degraded
// run is held to the same Lemma 4/5 bound as a clean one over the stream
// it really saw. IngestStats conservation (offered == ingested + dropped)
// is asserted on every iteration as well.
//
// Schedules are deterministic in (seed, iteration): crash clauses always
// carry a *N budget — an unbounded always-crash schedule would respawn
// forever — and stall parameters stay in the low milliseconds. A saved
// sketch is also round-tripped through sketch_io under the I/O failpoints
// when `exercise_io` is set.
//
// Entry points: `sfq chaos` (scripts/check.sh runs a 200-iteration quick
// profile; the nightly campaign runs longer) and tests/chaos_test.cc.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace streamfreq {

/// Which campaign RunChaosCampaign drives. Each scenario is one schedule
/// function plus one iteration function under the shared campaign loop.
enum class ChaosScenario : uint8_t {
  /// The ingest campaign (`sfq chaos`): the contract at the top of this
  /// file, scheduled by ChaosScheduleForIteration.
  kIngest,
  /// The server campaign (`sfq chaos --server`): each iteration boots an
  /// in-process SfqServer on a socket under io_dir, pushes a seeded stream
  /// into shed- and sample-policy tenants through real client connections
  /// while server.accept/read/write/publish faults sever connections and
  /// withhold snapshots, then seals and reconciles. The invariant:
  ///
  ///   per tenant, offered - rejected == items_ingested + dropped (the
  ///   admission-control conservation law), client-acked items never exceed
  ///   server-offered items (write faults make acks an undercount, never an
  ///   overcount), query epochs never move backwards, and when no fault
  ///   created ambiguity the exported sketch is bit-identical to a
  ///   sequential reference and passes the Lemma 4/5 check.
  ///
  /// A severed connection is the expected fault surface, not a failure;
  /// the campaign fails only on broken accounting, epoch regression, a dead
  /// server, or a bad surviving sketch.
  kServer,
  /// The kill-restart campaign (`sfq chaos --server-restart`): each iteration
  /// forks a real `sfq serve --data-dir` process with a crash failpoint
  /// schedule armed (crash = std::_Exit at the site, a faithful power-cut for
  /// everything except the page cache), drives a durable tenant through
  /// at-most-once ingest chunks, and — whenever the daemon dies at a
  /// failpoint or is SIGKILLed at a randomized chunk boundary — relaunches it
  /// clean and continues against the recovered state. The invariant:
  ///
  ///   after recovery, offered - rejected == base_ingested + items_ingested
  ///   + dropped (the conservation law, with the recovered prefix in
  ///   base_ingested), client-acked items never exceed server-offered items
  ///   (fsync=always makes every acked batch durable), epochs are monotone
  ///   within each server process, and when no batch was lost in flight the
  ///   exported sketch is bit-identical to a sequential reference and clean
  ///   under the Lemma 4/5 check.
  ///
  /// Requires ChaosOptions::server_binary. A dead server that cannot be
  /// relaunched, broken accounting, or a bad surviving sketch fails the
  /// iteration; process deaths themselves are the point.
  kServerRestart,
  /// The merge-tree campaign (`sfq chaos --tree`): each iteration builds a
  /// randomized topology (flat star, balanced, or ragged random tree) over a
  /// seeded fuzz-program stream striped across the leaves, then drives
  /// ingest and delta shipping (src/dist/merge_tree.h) under the dist.*
  /// failpoint schedule. The invariant:
  ///
  ///   every iteration ends in a clean error Status, or in a root sketch
  ///   that is bit-identical to the sketch of exactly the covered prefix of
  ///   every leaf stream AND passes the Lemma 4/5 check against the oracle
  ///   of that covered (effective) stream — the bounds widen by exactly the
  ///   composed shed mass, nothing more. The conservation ledger
  ///   (offered − rejected == ingested + dropped) must hold at every node
  ///   and compose hop by hop, re-delivered deltas must dedup exactly, and
  ///   loss-free runs must be bit-identical to a flat one-shot Merge of all
  ///   leaf sketches.
  kTree,
};

/// Campaign configuration.
struct ChaosOptions {
  ChaosScenario scenario = ChaosScenario::kIngest;
  uint64_t seed = 1;          ///< master seed for programs + schedules
  uint64_t iterations = 200;  ///< fuzz programs to replay under faults
  /// Failpoint spec applied to every iteration. Empty = derive a fresh
  /// bounded schedule from (seed, iteration). Beware unbounded crash
  /// clauses here: `...=crash` with no *N budget respawns forever.
  std::string failpoints;
  /// Also save/load each surviving sketch through sketch_io (exercising
  /// the sketch_io.* failpoints) in `io_dir`.
  bool exercise_io = true;
  /// Directory for round-trip files; empty = the system temp directory.
  std::string io_dir;
  /// Path to the `sfq` binary, required by the kill-restart campaign
  /// (`sfq chaos --server-restart` passes its own image).
  std::string server_binary;
};

/// What one iteration ended as.
enum class ChaosOutcome : uint8_t {
  kVerified,         ///< sketch passed its guarantee check
  kCleanError,       ///< a Status surfaced (the acceptable failure mode)
  kGuaranteeFailure, ///< sketch exists but violates its bounds — a bug
};

/// A failed iteration, kept for reproduction.
struct ChaosFailure {
  uint64_t index = 0;
  std::string program;   ///< `sfq verify --program` line (ingest, tree)
  std::string schedule;  ///< the failpoint spec that was armed
  std::string detail;    ///< first violation / accounting mismatch

  bool operator==(const ChaosFailure&) const = default;
};

/// Campaign totals. The campaign "passes" iff guarantee_failures == 0.
struct ChaosReport {
  uint64_t iterations = 0;
  uint64_t verified = 0;
  uint64_t clean_errors = 0;
  uint64_t guarantee_failures = 0;
  uint64_t fault_fires = 0;       ///< failpoint activations across the run
  uint64_t faulted_iterations = 0;  ///< iterations where >= 1 fault fired
  uint64_t worker_respawns = 0;
  uint64_t dropped_items = 0;     ///< shed + sampled-away mass
  uint64_t io_round_trips = 0;    ///< sketch_io round trips attempted
  uint64_t io_faults = 0;         ///< round trips that failed cleanly
  uint64_t server_requests = 0;   ///< requests processed (server campaign)
  uint64_t server_severs = 0;     ///< client-visible connection severs
  uint64_t stale_serves = 0;      ///< queries served a withheld snapshot
  uint64_t server_restarts = 0;   ///< daemon relaunches (restart campaign)
  uint64_t crash_kills = 0;       ///< process deaths: failpoint or SIGKILL
  uint64_t recoveries = 0;        ///< relaunches that reported recovered state
  uint64_t identity_checks = 0;   ///< loss-free runs verified bit-identical
  uint64_t deltas_shipped = 0;    ///< tree campaign: frames sent (+resends)
  uint64_t delta_dedups = 0;      ///< tree campaign: re-deliveries skipped
  uint64_t severed_links = 0;     ///< tree campaign: frames lost in flight
  uint64_t nodes_lost = 0;        ///< tree campaign: permanent node deaths
  std::vector<ChaosFailure> failures;  ///< guarantee failures only

  bool Passed() const { return guarantee_failures == 0; }
  bool operator==(const ChaosReport&) const = default;
};

/// The deterministic per-iteration failpoint schedule used when
/// ChaosOptions::failpoints is empty. Exposed so tests can assert the
/// schedules are bounded and reproducible.
std::string ChaosScheduleForIteration(uint64_t seed, uint64_t index);

/// The deterministic schedule for the server campaign: the four server.*
/// sites plus ingestor back-pressure faults, all probability-bounded.
std::string ServerChaosScheduleForIteration(uint64_t seed, uint64_t index);

/// The deterministic schedule for the kill-restart campaign: exactly one
/// process-death clause (probability-throttled, *1-budgeted) drawn from the
/// durability sites — journal append/fsync, snapshot publish, blob
/// write/rename — each of which leaves a different on-disk shape behind,
/// plus optional benign companions (severed writes, a torn journal record).
std::string ServerRestartScheduleForIteration(uint64_t seed, uint64_t index);

/// The deterministic schedule for the merge-tree campaign: the five dist.*
/// sites (docs/ROBUSTNESS.md) — admission faults, severed/torn/bit-flipped
/// uplink frames, dropped deliveries, lost acks — plus node-loss crash
/// clauses that ALWAYS carry a *N budget so most of the tree stays alive.
std::string TreeChaosScheduleForIteration(uint64_t seed, uint64_t index);

/// Runs the campaign of `options.scenario`. Status errors here are
/// harness-level problems (e.g. zero iterations, a malformed failpoint
/// spec, an unmaterializable program), not injected faults — those are
/// tallied in the report.
Result<ChaosReport> RunChaosCampaign(const ChaosOptions& options);

}  // namespace streamfreq
