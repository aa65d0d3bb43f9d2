#include "dist/delta.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/bytes.h"

namespace streamfreq {
namespace {

// Flag bits in the wire `flags` word. Append-only.
constexpr uint64_t kFlagFinal = 1ULL << 0;
constexpr uint64_t kKnownFlags = kFlagFinal;

// Sanity bounds so a corrupt count cannot drive a giant resize. Both are
// far above anything the tree ships (coverage has one entry per leaf,
// candidates are a top-k union).
constexpr uint64_t kMaxCoverageEntries = 1ULL << 20;
constexpr uint64_t kMaxCandidates = 1ULL << 20;

// Appends every field of `delta` up to and including the sketch blob's
// length prefix, after reserving room for the whole payload, so the blob
// can follow in place without a reallocation.
void PutDeltaHeader(const DeltaHeader& delta, size_t blob_size,
                    std::string* out) {
  // magic, node_id, seqno, flags, 4 ledger words, the two counts, the blob
  // length: 11 words, plus the coverage pairs and the candidates.
  const size_t words =
      11 + 2 * delta.covered.size() + delta.candidates.size();
  out->reserve(out->size() + words * sizeof(uint64_t) + blob_size);
  ByteWriter w(out);
  w.PutU64(kDeltaMagic);
  w.PutU64(delta.node_id);
  w.PutU64(delta.seqno);
  uint64_t flags = 0;
  if (delta.final_flag) flags |= kFlagFinal;
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
  w.PutU64(blob_size);
}

}  // namespace

DeltaPayload::DeltaPayload(const DeltaView& view)
    : DeltaHeader(view), sketch_blob(view.sketch_blob) {}

std::string EncodeDelta(const DeltaPayload& delta) {
  std::string out;
  PutDeltaHeader(delta, delta.sketch_blob.size(), &out);
  out.append(delta.sketch_blob);
  return out;
}

Result<DeltaView> DecodeDelta(std::string_view payload) {
  ByteReader r(payload);
  uint64_t magic = 0;
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&magic));
  if (magic != kDeltaMagic) {
    return Status::Corruption("delta payload magic mismatch");
  }
  DeltaView delta;
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
  STREAMFREQ_RETURN_NOT_OK(r.GetStringView(&delta.sketch_blob));
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

std::optional<std::string_view> DeltaChannel::Ship(
    CountSketch* unshipped, const DistLedger& ledger,
    std::vector<CoverageEntry> covered, std::vector<ItemId> candidates,
    bool final_flag) {
  // At most one delta in flight: resend the exact bytes until acked.
  if (pending_.has_value()) return pending();
  if (NothingToShip(ledger, final_flag)) return std::nullopt;

  DeltaHeader header;
  header.node_id = node_id_;
  header.seqno = shipped_seqno_ + 1;
  header.final_flag = final_flag;
  header.ledger = ledger.Minus(shipped_ledger_);
  header.covered = std::move(covered);
  header.candidates = std::move(candidates);
  std::string encoded;
  PutDeltaHeader(header, unshipped->SerializedSize(), &encoded);
  unshipped->SerializeTo(&encoded);
  unshipped->Clear();  // the pending encoding carries that mass now

  shipped_seqno_ = header.seqno;
  shipped_ledger_ = ledger;
  pending_ = Pending{header.seqno, std::move(encoded), final_flag};
  return pending_->encoded;
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
    if (pending_->final_flag) final_acked_ = true;
    pending_.reset();
  }
  return Status::OK();
}

MergeNode::MergeNode(uint64_t id, CountSketch zero,
                     std::optional<SpaceSaving> tracker)
    : id_(id), acc_(std::move(zero)), tracker_(std::move(tracker)) {
  if (id != 0) up_.emplace(id);
}

void MergeNode::Admit(std::span<const ItemId> items) {
  own_.ingested += items.size();
  acc_.BatchAdd(items);
  tracker_->BatchAdd(items);
  covered_[id_] = own_.ingested;
}

Result<bool> MergeNode::Apply(uint64_t child, DeltaView delta) {
  if (delta.node_id != child) {
    return Status::Corruption("delta sender id does not match link");
  }
  if (delta.seqno == 0) {
    return Status::Corruption("delta seqno 0 (seqnos are 1-based)");
  }
  const uint64_t last = acked(child);
  if (delta.seqno <= last) {
    ++delta_dedups_;  // WAL discipline: seqno <= base is a re-delivery
    return false;
  }
  if (delta.seqno != last + 1) {
    return Status::Corruption("delta seqno gap: expected " +
                              std::to_string(last + 1) + ", got " +
                              std::to_string(delta.seqno));
  }
  for (const CoverageEntry& e : delta.covered) {
    const auto it = covered_.find(e.leaf_id);
    if (it != covered_.end() && e.count < it->second) {
      return Status::Corruption("coverage watermark moved backwards");
    }
  }
  STREAMFREQ_RETURN_NOT_OK(acc_.MergeSerialized(delta.sketch_blob));
  Child& c = children_[child];
  c.applied += delta.ledger;
  for (const CoverageEntry& e : delta.covered) covered_[e.leaf_id] = e.count;
  c.candidates = std::move(delta.candidates);
  c.final_flag = c.final_flag || delta.final_flag;
  c.last_applied = delta.seqno;
  ++deltas_applied_;
  return true;
}

uint64_t MergeNode::acked(uint64_t child) const {
  const auto it = children_.find(child);
  return it == children_.end() ? 0 : it->second.last_applied;
}

bool MergeNode::child_final(uint64_t child) const {
  const auto it = children_.find(child);
  return it != children_.end() && it->second.final_flag;
}

std::optional<std::string_view> MergeNode::Ship(bool final_flag) {
  if (up_->has_pending()) return up_->pending();
  const DistLedger total = Total();
  if (up_->NothingToShip(total, final_flag)) return std::nullopt;
  return up_->Ship(&acc_, total, Covered(), CandidateUnion(), final_flag);
}

DistLedger MergeNode::Total() const {
  DistLedger total = own_;
  for (const auto& [child, c] : children_) total += c.applied;
  return total;
}

std::vector<CoverageEntry> MergeNode::Covered() const {
  std::vector<CoverageEntry> out;
  out.reserve(covered_.size());
  for (const auto& [leaf, count] : covered_) {
    out.push_back(CoverageEntry{leaf, count});
  }
  return out;
}

std::vector<ItemId> MergeNode::CandidateUnion() const {
  size_t total = tracker_.has_value() ? tracker_->MonitoredCount() : 0;
  for (const auto& [child, c] : children_) total += c.candidates.size();
  // One allocation for the union, sorted and deduped in place.
  std::vector<ItemId> ids;
  ids.reserve(total);
  if (tracker_.has_value()) tracker_->AppendItems(&ids);
  for (const auto& [child, c] : children_) {
    ids.insert(ids.end(), c.candidates.begin(), c.candidates.end());
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

}  // namespace streamfreq
