// Deterministic in-process merge-tree engine.
//
// MergeTreeSim runs the whole fleet — N ingesting leaves shipping sketch
// deltas up a TreeTopology to a root — inside one thread, with every fault
// injected through the five dist.* failpoints (docs/ROBUSTNESS.md):
//
//   dist.ingest   admission at a leaf: error rejects the whole batch,
//                 torn sheds a recorded suffix (both land in the ledger)
//   dist.ship     the uplink frame never arrives / arrives torn or
//                 bit-flipped (CRC must catch it) — link severed, resend
//   dist.deliver  parent drops a valid delta before applying, still acks
//                 its OLD cumulative seqno — sender resends
//   dist.ack      the ack is lost — sender resends, receiver dedups
//   dist.node     crash kills the node permanently (no restart)
//
// The engine exists so chaos --tree and the dist tests can drive thousands
// of seeded fleet runs per second and assert the two exact laws:
//
//   1. the root sketch is bit-identical to the sketch of the COVERED
//      prefix of every leaf stream (delta linearity — holds even mid-run,
//      even with loss), and
//   2. the conservation ledger composes: every node's ledger is the sum of
//      its children's applied increments plus its own, and the law
//      `offered − rejected == ingested + dropped` holds at each of them.
//
// Law 1 is held to a reference the shipping path never touches. Each leaf
// feeds its admitted items into a second sketch, `ref`, through the scalar
// kernel (CountSketch::BatchAddScalar; `acc` takes the SIMD BatchAdd), and
// each time it builds a new delta it checkpoints `ref` under the watermark
// that delta carries. Count-Sketch is linear, so the root's sketch must
// equal the counter-wise sum of the checkpoints at the watermarks it
// covers. Every other node keeps only its unshipped mass (delta.h), so its
// sketch must equal Σ over its covered leaves of ckpt(covered[leaf]) −
// ckpt(shipped[leaf]), where `shipped` (Node::in_flight) is the coverage
// its last fresh delta carried; at a leaf that is `ref − ckpt(shipped)`.
// The shipped mass is checked at the parent, so nothing goes unchecked.
// Checkpoints are copy-on-write: the newest one is `ref` itself (the
// "live" watermark) until Offer is about to admit items past it, and only
// then is it copied. A leaf retains only the checkpoints still referenced
// — the watermarks its ancestors cover plus the last shipped watermark of
// every non-root node on its path, at most 2·depth — so the oracle costs
// O(sketch × depth) per leaf instead of a copy of every item.
//
// Every node is a MergeNode (delta.h), the node type the process-backed
// deployment (src/dist/aggregate.{h,cc}) runs too; the sim adds the fault
// injection and the reference oracle around it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/count_sketch.h"
#include "dist/delta.h"
#include "dist/tree.h"
#include "stream/exact_counter.h"
#include "stream/types.h"
#include "util/result.h"
#include "util/status.h"

namespace streamfreq {

/// Aggregate transport/fault counters for one sim run.
struct MergeTreeStats {
  uint64_t deltas_shipped = 0;   ///< frames sent (incl. resends)
  uint64_t deltas_applied = 0;   ///< fresh deltas merged at a parent
  uint64_t delta_dedups = 0;     ///< re-deliveries skipped by seqno
  uint64_t severed_links = 0;    ///< frames lost/torn/bit-flipped in flight
  uint64_t dropped_deliveries = 0;  ///< dist.deliver drops before apply
  uint64_t lost_acks = 0;        ///< acks the sender never saw
  uint64_t nodes_lost = 0;       ///< dist.node permanent deaths
  uint64_t batches_rejected = 0;  ///< dist.ingest whole-batch rejections
  uint64_t batches_torn = 0;      ///< dist.ingest recorded-suffix sheds
};

class MergeTreeSim {
 public:
  /// `tracked` is the per-leaf SpaceSaving capacity feeding the candidate
  /// union the root scores for ApproxTop / MaxChange.
  static Result<MergeTreeSim> Make(TreeTopology topology,
                                   const CountSketchParams& params,
                                   size_t tracked);

  /// Offers a batch to leaf `node` (must be a leaf id from the topology).
  /// Admission runs the dist.ingest failpoint; a dead leaf refuses with
  /// Unavailable and the batch never enters any ledger.
  Status Offer(uint64_t node, std::span<const ItemId> batch);

  /// Marks every live leaf final: its next delta carries the final flag.
  void Seal();

  /// One bottom-up shipping pass: every live non-root node attempts to
  /// ship its pending/next delta one hop. Returns true if any delta was
  /// applied (progress toward the root).
  Result<bool> ShipRound();

  /// Runs ShipRound until quiescent (no pending deltas anywhere and no
  /// unshipped progress) or `max_rounds` is exhausted. With failpoints
  /// disarmed, at most depth+1 rounds are needed.
  Status Drain(uint64_t max_rounds);

  /// True when no live node has anything left to ship.
  bool Quiescent() const;

  // --- root queries -------------------------------------------------------

  const CountSketch& root_sketch() const { return nodes_[0].merge.acc(); }

  /// Composed ledger at the root: its children's applied increments (the
  /// root ingests nothing itself).
  DistLedger root_ledger() const { return TotalLedger(0); }

  /// Per-leaf covered watermarks the root currently accounts for.
  std::vector<CoverageEntry> RootCovered() const {
    return nodes_[0].merge.Covered();
  }

  /// Global top-k: the candidate union shipped up the tree, scored on the
  /// root sketch, ties broken toward smaller ids.
  std::vector<ItemCount> ApproxTop(size_t k) const;

  /// Two-pass max-change over the subtractive structure: MarkEpoch copies
  /// the root sketch; MaxChange scores the candidate union on
  /// (current − epoch) and returns the k largest |delta|.
  /// Before any mark, MaxChange ranks against the zero sketch.
  void MarkEpoch() { epoch_ = nodes_[0].merge.acc(); }
  Result<std::vector<ItemCount>> MaxChange(size_t k) const;

  // --- inspection ---------------------------------------------------------

  const MergeTreeStats& stats() const { return stats_; }
  const TreeTopology& topology() const { return topo_; }
  bool alive(uint64_t node) const { return nodes_[node].alive; }

  /// Reference checkpoints leaf `node` retains, the live one included (0
  /// for interior nodes); never more than 2·depth after a ShipRound.
  size_t checkpoint_count(uint64_t node) const {
    const Node& n = nodes_[node];
    return n.checkpoints.size() +
           (n.live.has_value() && !n.checkpoints.contains(*n.live) ? 1 : 0);
  }

  /// Composed ledger at `node` (own + children's applied increments).
  DistLedger TotalLedger(uint64_t node) const {
    return nodes_[node].merge.Total();
  }

  /// Checks the exact laws everywhere: per-node conservation (own, each
  /// applied child sum, and the composed total), at-most-once accounting
  /// (a parent's applied sum for a child never exceeds what that child has
  /// produced), ingested == Σ covered at every node, and sketch
  /// bit-identity at EVERY node: the root against the sum of the
  /// checkpoints at its covered watermarks, any other node against that
  /// sum (a leaf's `ref`) minus the checkpoints at its last shipped
  /// watermarks (`ref` stands for a leaf's live one). Any violation,
  /// including a watermark with no checkpoint, is Internal with a
  /// diagnostic.
  Status CheckInvariants() const;

 private:
  /// A MergeNode plus what the sim adds around it: liveness, the seal, and
  /// at a leaf the reference oracle.
  struct Node {
    MergeNode merge;
    bool alive = true;
    bool final_local = false;  ///< Seal() reached this node
    /// Leaves only: every admitted item, added through the scalar kernel
    /// (`merge.acc()` keeps only the unshipped ones).
    std::optional<CountSketch> ref;
    /// Leaves only: copies of `ref`, keyed by the watermark of the delta
    /// built at that point; PruneCheckpoints drops unreferenced ones.
    std::map<uint64_t, CountSketch> checkpoints;
    /// Leaves only: the watermark of the newest delta while `ref` has not
    /// moved past it — the checkpoint there is `ref` itself. Offer copies
    /// it into `checkpoints` before admitting items.
    std::optional<uint64_t> live;
    /// Coverage the last fresh delta carried, kept after its ack: the
    /// mass at these watermarks has left `merge.acc()` for the parent.
    std::vector<CoverageEntry> in_flight;
  };

  explicit MergeTreeSim(TreeTopology topo);

  bool FinalReady(uint64_t node) const;

  /// Drops the checkpoints of `leaf` (the live one included) that no
  /// ancestor's covered map and no last shipped coverage on its path refers
  /// to — no node can reach any other watermark of this leaf without a new
  /// delta, which checkpoints anew.
  void PruneCheckpoints(uint64_t leaf);

  /// The reference checkpoint of `leaf` at `watermark` (`ref` at the live
  /// one), which `node` needs for its bit-identity check; Internal when
  /// `leaf` is not a leaf or no checkpoint is kept there.
  Result<const CountSketch*> Checkpoint(uint64_t node, uint64_t leaf,
                                        uint64_t watermark) const;

  /// Delivers `frame` from `child` to `parent`; returns the cumulative ack
  /// seqno, or nullopt when the link severed (torn/bitflip caught by CRC).
  Result<std::optional<uint64_t>> Deliver(uint64_t parent, uint64_t child,
                                          std::string_view frame,
                                          bool* applied);

  TreeTopology topo_;
  std::vector<Node> nodes_;
  std::optional<CountSketch> epoch_;  ///< set by MarkEpoch
  std::vector<uint64_t> bottom_up_;
  MergeTreeStats stats_;
};

}  // namespace streamfreq
