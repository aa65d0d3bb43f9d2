// Sketch-delta shipping for the distributed merge tree.
//
// The paper's sketches form a group under Merge/Subtract, which is what
// makes delta shipping exact. Every node but the root keeps in its sketch
// only the mass it has taken in since its last fresh delta: a fresh Ship
// serializes that sketch as the delta and clears it in place. At most one
// delta is in flight, so that unshipped mass is exactly `everything taken
// in − everything the parent has acked`, and the sum of every delta a
// parent APPLIES equals the sketch of exactly the covered prefix of each
// leaf stream — bit for bit, no matter how many links sever or how often
// frames are re-delivered.
//
// Wire form (inside the standard SFQRPC01 CRC frame, see
// src/server/protocol.h):
//
//   u64 magic      kDeltaMagic ("SFQDLT01")
//   u64 node_id    sender
//   u64 seqno      1-based, +1 per shipped delta (WAL discipline, PR-9)
//   u64 flags      bit0 = final; any other bit set is Corruption
//   4×u64 ledger   offered / rejected / ingested / dropped INCREMENT
//   u64 n_covered  + n pairs (leaf_id, covered prefix count), absolute
//   u64 n_cands    + n candidate ItemIds, absolute (replace, not merge)
//   str  sketch    CountSketch::SerializeTo blob of the delta (may be empty)
//
// Every variable-length field is length-checked before allocation and
// trailing bytes are Corruption — the decoder accepts exactly what the
// encoder produces (tests/dist_delta_test.cc walks every truncation
// boundary, mirroring the server protocol corruption matrix).
//
// Dedup discipline of MergeNode::Apply (identical to WAL replay,
// src/server/wal.cc):
//   seqno <= last applied  → duplicate: skip, re-ack `last`
//   seqno == last + 1      → apply, ack
//   seqno >  last + 1      → gap: Corruption (a delta was lost in order —
//                            impossible under the resend-verbatim channel,
//                            so it means a torn/forged frame got through)
//
// Acks are cumulative: a parent ALWAYS answers with the last seqno it has
// applied for that child, so a worker needs no timeout bookkeeping — it
// resends its single pending delta verbatim until the ack covers it, then
// drops it. At-most-once apply plus at-least-once delivery = exactly-once
// accounting.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/count_sketch.h"
#include "core/space_saving.h"
#include "stream/types.h"
#include "util/result.h"
#include "util/status.h"

namespace streamfreq {

/// Magic for delta payloads ("SFQDLT01", little-endian). Deltas ride the
/// same CRC-framed transport as server RPCs but are a distinct payload
/// namespace — a delta frame handed to the server decoder (or vice versa)
/// fails on the first eight bytes.
inline constexpr uint64_t kDeltaMagic = 0x3130544C44514653ULL;

/// Degraded-mass conservation ledger. The law `offered - rejected ==
/// ingested + dropped` must hold for every node and COMPOSE across the
/// tree: an interior node's ledger is the sum of its children's applied
/// increments plus its own (docs/DISTRIBUTED.md).
struct DistLedger {
  uint64_t offered = 0;   ///< items presented for admission
  uint64_t rejected = 0;  ///< refused whole (dist.ingest=error)
  uint64_t ingested = 0;  ///< admitted into the sketch
  uint64_t dropped = 0;   ///< admitted then shed (dist.ingest=torn)

  bool ConservationHolds() const {
    return offered - rejected == ingested + dropped;
  }

  DistLedger& operator+=(const DistLedger& o) {
    offered += o.offered;
    rejected += o.rejected;
    ingested += o.ingested;
    dropped += o.dropped;
    return *this;
  }

  /// Component-wise difference; valid only against a snapshot of this
  /// ledger's own past (counters are monotone).
  DistLedger Minus(const DistLedger& base) const {
    return DistLedger{offered - base.offered, rejected - base.rejected,
                      ingested - base.ingested, dropped - base.dropped};
  }

  bool operator==(const DistLedger& o) const {
    return offered == o.offered && rejected == o.rejected &&
           ingested == o.ingested && dropped == o.dropped;
  }
};

/// Per-leaf coverage watermark: how many items of leaf `leaf_id`'s ingested
/// stream the sender's sketch accounts for. Absolute, monotone.
struct CoverageEntry {
  uint64_t leaf_id = 0;
  uint64_t count = 0;

  bool operator==(const CoverageEntry& o) const {
    return leaf_id == o.leaf_id && count == o.count;
  }
};

/// Every field of a shipped delta except its sketch. Candidates and
/// coverage are absolute snapshots so re-delivery is idempotent.
struct DeltaHeader {
  uint64_t node_id = 0;
  uint64_t seqno = 0;
  bool final_flag = false;  ///< sender is done; no further deltas follow
  DistLedger ledger;        ///< increment since the sender's last delta
  std::vector<CoverageEntry> covered;
  std::vector<ItemId> candidates;
};

/// A decoded delta. `sketch_blob` is a view into the payload it was
/// decoded from — valid only as long as those bytes are — so a receiver
/// merges it (CountSketch::MergeSerialized) without copying it.
struct DeltaView : DeltaHeader {
  std::string_view sketch_blob;
};

/// A delta to encode; owns its sketch blob, which may be empty (a pure
/// ledger/coverage advance, e.g. every admitted item was shed).
struct DeltaPayload : DeltaHeader {
  DeltaPayload() = default;
  /// An owning copy of a decoded delta, for a caller that keeps it past
  /// the payload it was decoded from (the sfq_bench codec timings).
  explicit DeltaPayload(const DeltaView& view);

  std::string sketch_blob;
};

/// Ack payload magic ("SFQDAK01", little-endian).
inline constexpr uint64_t kAckMagic = 0x31304B4144514653ULL;

/// Encodes a delta payload (the bytes inside the CRC frame).
std::string EncodeDelta(const DeltaPayload& delta);

/// Decodes and validates; trailing bytes, bad magic, or truncated fields
/// are Corruption. The result's sketch blob views `payload`.
Result<DeltaView> DecodeDelta(std::string_view payload);

/// Cumulative ack: the receiver's last applied seqno for this link.
std::string EncodeAck(uint64_t last_applied);
Result<uint64_t> DecodeAck(std::string_view payload);

/// Sender half of the delta channel: the shipped seqnos, the ledger totals
/// last shipped, and at most one pending (shipped, unacked) delta. The
/// pending encoding is stored and resent VERBATIM so re-delivery after a
/// severed link is bit-identical, which is what makes receiver-side dedup
/// exact. The channel keeps no sketch: the caller's holds the unshipped
/// mass, and a fresh Ship moves it into the encoding.
class DeltaChannel {
 public:
  explicit DeltaChannel(uint64_t node_id) : node_id_(node_id) {}

  /// Returns the still-pending delta, or builds a fresh one from
  /// `unshipped`, the mass taken in since the last fresh delta: its
  /// counters are serialized straight into the pending encoding and then
  /// cleared in place. Returns std::nullopt when there is nothing new to
  /// ship and no pending delta. `ledger`, `covered` and `candidates` are
  /// the sender's totals (monotone ledger and coverage); the delta carries
  /// the ledger increment since the last fresh delta. A `final_flag` delta
  /// is shipped once and latched on ack; repeat calls with no new mass then
  /// go quiet.
  ///
  /// The result is a view of the pending encoding: valid until the next
  /// Ship or Acked call on this channel.
  std::optional<std::string_view> Ship(CountSketch* unshipped,
                                       const DistLedger& ledger,
                                       std::vector<CoverageEntry> covered,
                                       std::vector<ItemId> candidates,
                                       bool final_flag);

  /// The pending delta's encoding, resent verbatim, or std::nullopt when
  /// none is in flight. Valid until the next Ship or Acked call.
  std::optional<std::string_view> pending() const {
    if (!pending_.has_value()) return std::nullopt;
    return pending_->encoded;
  }

  /// Processes a cumulative ack carrying the receiver's last applied seqno.
  /// Drops the pending delta when covered.
  Status Acked(uint64_t last_applied_seqno);

  /// True when a Ship(unshipped, ledger, ..., final_flag) call would return
  /// std::nullopt — nothing pending and nothing new.
  bool NothingToShip(const DistLedger& ledger, bool final_flag) const {
    return !pending_.has_value() && ledger == shipped_ledger_ &&
           (!final_flag || final_acked_);
  }

  bool has_pending() const { return pending_.has_value(); }
  uint64_t acked_seqno() const { return acked_seqno_; }

 private:
  struct Pending {
    uint64_t seqno = 0;
    std::string encoded;  ///< resent verbatim
    bool final_flag = false;
  };

  uint64_t node_id_;
  DistLedger shipped_ledger_;  ///< ledger totals the last fresh delta took
  uint64_t shipped_seqno_ = 0;
  uint64_t acked_seqno_ = 0;
  bool final_acked_ = false;
  std::optional<Pending> pending_;
};

/// One merge-tree node: its sketch (at the root everything applied,
/// elsewhere only the unshipped mass), the ledgers and coverage watermarks
/// of everything it has taken in, each child's dedup state and last
/// candidate list, a leaf's SpaceSaving tracker, and (every node but the
/// root) the uplink channel. MergeTreeSim and `sfq aggregate` both run
/// their nodes through this type, so the apply rule exists once.
class MergeNode {
 public:
  /// What a parent keeps per child.
  struct Child {
    uint64_t last_applied = 0;  ///< cumulative ack: last seqno applied
    bool final_flag = false;    ///< the child's final delta was applied
    DistLedger applied;         ///< sum of applied ledger increments
    std::vector<ItemId> candidates;  ///< last applied list (absolute)
  };

  /// Node `id` of its topology (0 is the root, which has no uplink),
  /// starting at the zero sketch `zero`. A leaf passes its tracker.
  MergeNode(uint64_t id, CountSketch zero,
            std::optional<SpaceSaving> tracker = std::nullopt);

  /// Leaf admission: adds `items` to the sketch and the tracker, to
  /// own().ingested, and to the leaf's own coverage watermark. The offered,
  /// rejected and dropped counts are the caller's to add to own().
  void Admit(std::span<const ItemId> items);

  /// Applies `delta`, received over the link from `child`, under the dedup
  /// discipline above: true if applied, false for a skipped re-delivery.
  /// Applying merges the sketch blob, adds the ledger increment, raises
  /// coverage, replaces the child's candidates and records its final flag.
  /// Corruption, with the node left unchanged: a sender id other than
  /// `child`, seqno 0, a gap, a watermark below the one held, or a blob
  /// MergeSerialized refuses.
  Result<bool> Apply(uint64_t child, DeltaView delta);

  /// The cumulative ack for `child` (0 before its first delta).
  uint64_t acked(uint64_t child) const;
  bool child_final(uint64_t child) const;

  /// Ledger composed at this node: own() plus every child's applied sum.
  DistLedger Total() const;
  /// The coverage watermarks, by leaf id.
  std::vector<CoverageEntry> Covered() const;
  /// What this node ships as candidates: its tracker's, then every
  /// child's last list, sorted and deduped.
  std::vector<ItemId> CandidateUnion() const;

  /// Non-root only: DeltaChannel::Ship of this node's state. A fresh
  /// delta takes the sketch's unshipped mass and leaves it cleared. A
  /// resend, or a call with nothing to ship, builds no coverage or
  /// candidate list.
  std::optional<std::string_view> Ship(bool final_flag);
  /// Non-root only: the uplink, for acks and its pending state.
  DeltaChannel& up() { return *up_; }
  const DeltaChannel& up() const { return *up_; }

  uint64_t id() const { return id_; }
  const CountSketch& acc() const { return acc_; }
  DistLedger& own() { return own_; }
  const DistLedger& own() const { return own_; }
  const std::map<uint64_t, uint64_t>& covered() const { return covered_; }
  const std::map<uint64_t, Child>& children() const { return children_; }
  uint64_t deltas_applied() const { return deltas_applied_; }
  uint64_t delta_dedups() const { return delta_dedups_; }

 private:
  uint64_t id_;
  /// The root: every applied delta. Any other node: its unshipped mass,
  /// the items admitted or deltas applied since its last fresh Ship.
  CountSketch acc_;
  DistLedger own_;   ///< leaf admission ledger (interior: zero)
  std::map<uint64_t, uint64_t> covered_;  ///< leaf id -> watermark
  std::map<uint64_t, Child> children_;
  std::optional<SpaceSaving> tracker_;
  std::optional<DeltaChannel> up_;
  uint64_t deltas_applied_ = 0;
  uint64_t delta_dedups_ = 0;
};

}  // namespace streamfreq
