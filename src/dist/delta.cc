#include "dist/delta.h"

#include <utility>

#include "util/bytes.h"

namespace streamfreq {
namespace {

// Flag bits in the wire `flags` word. Append-only.
constexpr uint64_t kFlagFinal = 1ULL << 0;
constexpr uint64_t kFlagEpochMark = 1ULL << 1;
constexpr uint64_t kKnownFlags = kFlagFinal | kFlagEpochMark;

// Sanity bounds so a corrupt count cannot drive a giant resize. Both are
// far above anything the tree ships (coverage has one entry per leaf,
// candidates are a top-k union).
constexpr uint64_t kMaxCoverageEntries = 1ULL << 20;
constexpr uint64_t kMaxCandidates = 1ULL << 20;

}  // namespace

std::string EncodeDelta(const DeltaPayload& delta) {
  std::string out;
  ByteWriter w(&out);
  w.PutU64(kDeltaMagic);
  w.PutU64(delta.node_id);
  w.PutU64(delta.seqno);
  uint64_t flags = 0;
  if (delta.final_flag) flags |= kFlagFinal;
  if (delta.epoch_mark) flags |= kFlagEpochMark;
  w.PutU64(flags);
  w.PutU64(delta.ledger.offered);
  w.PutU64(delta.ledger.rejected);
  w.PutU64(delta.ledger.ingested);
  w.PutU64(delta.ledger.dropped);
  w.PutU64(delta.covered.size());
  for (const CoverageEntry& c : delta.covered) {
    w.PutU64(c.leaf_id);
    w.PutU64(c.count);
  }
  w.PutU64(delta.candidates.size());
  for (ItemId id : delta.candidates) w.PutU64(id);
  w.PutString(delta.sketch_blob);
  return out;
}

Result<DeltaPayload> DecodeDelta(std::string_view payload) {
  ByteReader r(payload);
  uint64_t magic = 0;
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&magic));
  if (magic != kDeltaMagic) {
    return Status::Corruption("delta payload magic mismatch");
  }
  DeltaPayload delta;
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&delta.node_id));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&delta.seqno));
  if (delta.seqno == 0) {
    return Status::Corruption("delta seqno 0 (seqnos are 1-based)");
  }
  uint64_t flags = 0;
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&flags));
  if ((flags & ~kKnownFlags) != 0) {
    return Status::Corruption("delta carries unknown flag bits");
  }
  delta.final_flag = (flags & kFlagFinal) != 0;
  delta.epoch_mark = (flags & kFlagEpochMark) != 0;
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&delta.ledger.offered));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&delta.ledger.rejected));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&delta.ledger.ingested));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&delta.ledger.dropped));
  if (!delta.ledger.ConservationHolds()) {
    return Status::Corruption("delta ledger increment violates conservation");
  }
  uint64_t n_covered = 0;
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&n_covered));
  if (n_covered > kMaxCoverageEntries || n_covered * 16 > r.remaining()) {
    return Status::Corruption("delta coverage count exceeds payload");
  }
  delta.covered.reserve(static_cast<size_t>(n_covered));
  for (uint64_t i = 0; i < n_covered; ++i) {
    CoverageEntry c;
    STREAMFREQ_RETURN_NOT_OK(r.GetU64(&c.leaf_id));
    STREAMFREQ_RETURN_NOT_OK(r.GetU64(&c.count));
    delta.covered.push_back(c);
  }
  uint64_t n_cands = 0;
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&n_cands));
  if (n_cands > kMaxCandidates || n_cands * 8 > r.remaining()) {
    return Status::Corruption("delta candidate count exceeds payload");
  }
  delta.candidates.reserve(static_cast<size_t>(n_cands));
  for (uint64_t i = 0; i < n_cands; ++i) {
    uint64_t id = 0;
    STREAMFREQ_RETURN_NOT_OK(r.GetU64(&id));
    delta.candidates.push_back(id);
  }
  STREAMFREQ_RETURN_NOT_OK(r.GetString(&delta.sketch_blob, r.remaining()));
  if (r.remaining() != 0) {
    return Status::Corruption("trailing bytes after delta payload");
  }
  return delta;
}

std::string EncodeAck(uint64_t last_applied) {
  std::string out;
  ByteWriter w(&out);
  w.PutU64(kAckMagic);
  w.PutU64(last_applied);
  return out;
}

Result<uint64_t> DecodeAck(std::string_view payload) {
  ByteReader r(payload);
  uint64_t magic = 0;
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&magic));
  if (magic != kAckMagic) {
    return Status::Corruption("ack payload magic mismatch");
  }
  uint64_t last = 0;
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&last));
  if (r.remaining() != 0) {
    return Status::Corruption("trailing bytes after ack payload");
  }
  return last;
}

Result<std::optional<std::string>> DeltaChannel::Ship(
    const CountSketch& current, const DistLedger& ledger,
    const std::vector<CoverageEntry>& covered,
    const std::vector<ItemId>& candidates, bool final_flag) {
  if (pending_.has_value()) {
    // At most one delta in flight: resend the exact bytes until acked.
    return std::optional<std::string>(pending_->encoded);
  }
  if (NothingToShip(ledger, final_flag)) {
    return std::optional<std::string>();  // nothing new to ship
  }
  const DistLedger inc = ledger.Minus(base_ledger_);
  CountSketch delta_sketch = current;
  if (base_.has_value()) {
    STREAMFREQ_RETURN_NOT_OK(delta_sketch.Subtract(*base_));
  }

  DeltaPayload payload;
  payload.node_id = node_id_;
  payload.seqno = shipped_seqno_ + 1;
  payload.final_flag = final_flag;
  payload.ledger = inc;
  payload.covered = covered;
  payload.candidates = candidates;
  delta_sketch.SerializeTo(&payload.sketch_blob);

  shipped_seqno_ = payload.seqno;
  pending_ = Pending{payload.seqno, EncodeDelta(payload),
                     std::move(delta_sketch), ledger, final_flag};
  return std::optional<std::string>(pending_->encoded);
}

Status DeltaChannel::Acked(uint64_t last_applied_seqno) {
  if (last_applied_seqno > shipped_seqno_) {
    return Status::Corruption("ack for a delta that was never shipped");
  }
  if (last_applied_seqno < acked_seqno_) {
    return Status::Corruption("ack moved backwards");
  }
  acked_seqno_ = last_applied_seqno;
  if (pending_.has_value() && pending_->seqno <= last_applied_seqno) {
    if (base_.has_value()) {
      STREAMFREQ_RETURN_NOT_OK(base_->Merge(pending_->delta));
    } else {
      base_ = std::move(pending_->delta);
    }
    base_ledger_ = pending_->ledger_after;
    if (pending_->final_flag) final_acked_ = true;
    pending_.reset();
  }
  return Status::OK();
}

Status DeltaReceiver::Classify(uint64_t seqno, bool* duplicate) const {
  if (seqno == 0) {
    return Status::Corruption("delta seqno 0 (seqnos are 1-based)");
  }
  if (seqno <= last_applied_) {
    *duplicate = true;  // WAL discipline: seqno <= base is a re-delivery
    return Status::OK();
  }
  if (seqno != last_applied_ + 1) {
    return Status::Corruption("delta seqno gap: expected " +
                              std::to_string(last_applied_ + 1) + ", got " +
                              std::to_string(seqno));
  }
  *duplicate = false;
  return Status::OK();
}

}  // namespace streamfreq
