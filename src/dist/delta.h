// Sketch-delta shipping for the distributed merge tree.
//
// The paper's merge/subtract group structure is what makes delta shipping
// exact: a worker's delta is `current sketch − last-acked base` (via
// CountSketch::Subtract), so the sum of every delta a parent APPLIES equals
// the sketch of exactly the covered prefix of each leaf stream — bit for
// bit, no matter how many links sever or how often frames are re-delivered.
//
// Wire form (inside the standard SFQRPC01 CRC frame, see
// src/server/protocol.h):
//
//   u64 magic      kDeltaMagic ("SFQDLT01")
//   u64 node_id    sender
//   u64 seqno      1-based, +1 per shipped delta (WAL discipline, PR-9)
//   u64 flags      bit0 = final, bit1 = epoch mark
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
// Dedup discipline (identical to WAL replay, src/server/wal.cc):
//   seqno <= last applied  → duplicate: skip, re-ack `last`
//   seqno == last + 1      → apply, ack
//   seqno >  last + 1      → gap: Corruption (a delta was lost in order —
//                            impossible under the resend-verbatim channel,
//                            so it means a torn/forged frame got through)
//
// Acks are cumulative: a parent ALWAYS answers with the last seqno it has
// applied for that child, so a worker needs no timeout bookkeeping — it
// resends its single pending delta verbatim until the ack covers it, then
// folds the pending delta into its acked base. At-most-once apply plus
// at-least-once delivery = exactly-once accounting.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/count_sketch.h"
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

/// One shipped delta. `sketch_blob` may be empty (a pure ledger/coverage
/// advance, e.g. every admitted item was shed); candidates and coverage are
/// absolute snapshots so re-delivery is idempotent.
struct DeltaPayload {
  uint64_t node_id = 0;
  uint64_t seqno = 0;
  bool final_flag = false;  ///< sender is done; no further deltas follow
  bool epoch_mark = false;  ///< root should MarkEpoch after applying
  DistLedger ledger;        ///< increment since the sender's acked base
  std::vector<CoverageEntry> covered;
  std::vector<ItemId> candidates;
  std::string sketch_blob;
};

/// Ack payload magic ("SFQDAK01", little-endian).
inline constexpr uint64_t kAckMagic = 0x31304B4144514653ULL;

/// Encodes a delta payload (the bytes inside the CRC frame).
std::string EncodeDelta(const DeltaPayload& delta);

/// Decodes and validates; trailing bytes, bad magic, or truncated fields
/// are Corruption.
Result<DeltaPayload> DecodeDelta(std::string_view payload);

/// Cumulative ack: the receiver's last applied seqno for this link.
std::string EncodeAck(uint64_t last_applied);
Result<uint64_t> DecodeAck(std::string_view payload);

/// Sender half of the delta channel. Owns the last-ACKED base sketch and at
/// most one pending (shipped, unacked) delta; the pending encoding is
/// stored and resent VERBATIM so re-delivery after a severed link is
/// bit-identical, which is what makes receiver-side dedup exact.
///
/// The base starts empty (nothing acked yet, the zero sketch): the first
/// delta is `current` itself, and the first ack moves it into the base.
class DeltaChannel {
 public:
  explicit DeltaChannel(uint64_t node_id) : node_id_(node_id) {}

  /// Builds (or returns the still-pending) delta against `current`. Returns
  /// std::nullopt when there is nothing new to ship and no pending delta.
  /// `current` must stay a superset of the acked base (monotone ledger,
  /// coverage, and sketch — the caller only ever Adds/Merges into it). A
  /// `final_flag` delta is shipped once and latched on ack; repeat calls
  /// with no new mass then go quiet.
  Result<std::optional<std::string>> Ship(
      const CountSketch& current, const DistLedger& ledger,
      const std::vector<CoverageEntry>& covered,
      const std::vector<ItemId>& candidates, bool final_flag);

  /// Processes a cumulative ack carrying the receiver's last applied seqno.
  /// Folds the pending delta into the acked base when covered.
  Status Acked(uint64_t last_applied_seqno);

  /// True when a Ship(current, ledger, ..., final_flag) call would return
  /// std::nullopt — nothing pending and nothing new.
  bool NothingToShip(const DistLedger& ledger, bool final_flag) const {
    return !pending_.has_value() && ledger == base_ledger_ &&
           (!final_flag || final_acked_);
  }

  bool has_pending() const { return pending_.has_value(); }
  uint64_t next_seqno() const { return shipped_seqno_ + 1; }
  uint64_t acked_seqno() const { return acked_seqno_; }
  const DistLedger& base_ledger() const { return base_ledger_; }

 private:
  struct Pending {
    uint64_t seqno = 0;
    std::string encoded;      ///< resent verbatim
    CountSketch delta;        ///< folded into base_ on ack
    DistLedger ledger_after;  ///< sender totals the delta advances to
    bool final_flag = false;
  };

  uint64_t node_id_;
  std::optional<CountSketch> base_;  ///< acked sketch; empty = zero
  DistLedger base_ledger_;    ///< ledger totals the receiver has acked
  uint64_t shipped_seqno_ = 0;
  uint64_t acked_seqno_ = 0;
  bool final_acked_ = false;
  std::optional<Pending> pending_;
};

/// Receiver half: per-child WAL-style dedup state.
class DeltaReceiver {
 public:
  /// Classifies `seqno` against the last applied one. On OK, `*duplicate`
  /// says whether to skip (true) or apply (false); gaps are Corruption.
  /// Call Applied() after a successful apply.
  Status Classify(uint64_t seqno, bool* duplicate) const;

  void Applied(uint64_t seqno) { last_applied_ = seqno; }
  uint64_t last_applied() const { return last_applied_; }
  uint64_t duplicates() const { return duplicates_; }
  void CountDuplicate() { ++duplicates_; }

 private:
  uint64_t last_applied_ = 0;
  uint64_t duplicates_ = 0;
};

}  // namespace streamfreq
