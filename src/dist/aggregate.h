// Process-backed merge-tree aggregation: the deployment behind
// `sfq aggregate --workers N --fanout F`.
//
// The CLI process hosts the ROOT. Every other node — ingest workers at the
// leaves, merge relays in the interior — is a forked child talking framed
// deltas (dist/delta.h) over unix-domain sockets (server/net.h). Each node
// is a MergeNode (dist/delta.h), the same node type MergeTreeSim runs, so
// the apply rule and the wire bytes are the sim's; this file only adds
// fork, sockets and poll. All listeners are created before the first
// fork, so no child can connect before its parent is ready.
//
// Each worker admits a seeded Zipf substream into its node and ships a
// delta every `delta_every` items, waiting for the cumulative ack before
// building the next one. A relay binds each connection to the child its
// first delta names, applies and re-acks that child's deltas, and forwards
// its own delta upward after each apply. The final-flag handshake tears
// the tree down leaf-to-root (a child that hangs up before its final delta
// is an error); the root then answers global ApproxTop and reports the
// composed conservation ledger.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/count_sketch.h"
#include "dist/delta.h"
#include "dist/tree.h"
#include "stream/exact_counter.h"
#include "stream/types.h"
#include "util/result.h"
#include "util/status.h"

namespace streamfreq {

struct AggregateOptions {
  uint64_t workers = 4;
  uint64_t fanout = 0;     ///< 0 = flat star (every worker under the root)
  uint64_t items = 200000;  ///< per worker
  uint64_t universe = 1u << 20;
  double zipf_z = 1.1;
  uint64_t seed = 42;
  uint64_t delta_every = 16384;  ///< items per shipped delta
  size_t tracked = 64;           ///< per-leaf SpaceSaving capacity
  size_t topk = 10;
  CountSketchParams params;
  std::string socket_dir;  ///< where node sockets live (must exist)
};

struct AggregateReport {
  uint64_t nodes = 0;
  uint64_t depth = 0;
  uint64_t leaves = 0;
  DistLedger ledger;                  ///< composed at the root
  std::vector<CoverageEntry> covered;  ///< per-leaf watermarks at the root
  uint64_t deltas_applied = 0;        ///< at the root
  uint64_t delta_dedups = 0;          ///< at the root
  std::vector<ItemCount> topk;        ///< global ApproxTop(k)
  std::string root_sketch;            ///< CountSketch::SerializeTo of the root
};

/// The exact substream worker `leaf_index` (0-based over topology.leaves)
/// ingests: deterministic in (seed, leaf_index), so the CLI can regenerate
/// every stream and score the root's answers against an exact oracle.
Result<std::vector<ItemId>> WorkerStreamItems(const AggregateOptions& options,
                                              uint64_t leaf_index);

/// Runs the whole fleet: builds the balanced topology, forks workers and
/// relays, hosts the root, waits for the final-flag teardown, reaps every
/// child. Any non-zero child exit or protocol violation is an error.
Result<AggregateReport> RunAggregate(const AggregateOptions& options);

}  // namespace streamfreq
