#include "dist/merge_tree.h"

#include <algorithm>
#include <array>
#include <utility>

#include "core/max_change.h"
#include "core/space_saving.h"
#include "util/failpoint.h"
#include "util/frame.h"
#include "util/net.h"

namespace streamfreq {

MergeTreeSim::MergeTreeSim(TreeTopology topo)
    : topo_(std::move(topo)), bottom_up_(topo_.BottomUpOrder()) {}

Result<MergeTreeSim> MergeTreeSim::Make(TreeTopology topology,
                                        const CountSketchParams& params,
                                        size_t tracked) {
  if (tracked == 0) {
    return Status::InvalidArgument("tracked candidate capacity must be >= 1");
  }
  STREAMFREQ_ASSIGN_OR_RETURN(CountSketch zero, CountSketch::Make(params));
  MergeTreeSim sim(std::move(topology));
  sim.nodes_.reserve(sim.topo_.size());
  for (uint64_t u = 0; u < sim.topo_.size(); ++u) {
    if (!sim.topo_.is_leaf(u)) {
      sim.nodes_.emplace_back(MergeNode(u, zero));
      continue;
    }
    STREAMFREQ_ASSIGN_OR_RETURN(SpaceSaving tracker,
                                SpaceSaving::Make(tracked));
    sim.nodes_.emplace_back(MergeNode(u, zero, std::move(tracker)))
        .ref.emplace(zero);
  }
  return sim;
}

Status MergeTreeSim::Offer(uint64_t node, std::span<const ItemId> batch) {
  if (node >= nodes_.size() || !topo_.is_leaf(node)) {
    return Status::InvalidArgument("Offer target is not a leaf");
  }
  Node& n = nodes_[node];
  if (!n.alive) {
    return Status::NotFound("leaf is dead");  // never enters any ledger
  }
  if (n.final_local) {
    return Status::InvalidArgument("leaf is sealed");
  }
  size_t keep = batch.size();
  const FailDecision fp = SFQ_FAILPOINT("dist.ingest");
  if (fp.action == FailAction::kCrash) {
    // The leaf dies at the admission gate; the batch was never offered.
    n.alive = false;
    ++stats_.nodes_lost;
    return Status::NotFound("leaf died at admission");
  }
  DistLedger& own = n.merge.own();
  own.offered += batch.size();
  if (fp.action == FailAction::kError) {
    // Whole-batch rejection: refused mass, accounted but never sketched.
    own.rejected += batch.size();
    ++stats_.batches_rejected;
    return Status::OK();
  }
  if (fp.action == FailAction::kTorn) {
    // Recorded shed: a prefix is admitted, the suffix is dropped — the
    // ledger says exactly how much (param = items kept, 0 = half).
    keep = fp.param != 0 ? std::min<size_t>(fp.param, batch.size())
                         : batch.size() / 2;
    own.dropped += batch.size() - keep;
    ++stats_.batches_torn;
  }
  const std::span<const ItemId> admitted = batch.first(keep);
  if (!admitted.empty() && n.live.has_value()) {
    // Copy-on-write: `ref` is the checkpoint at the live watermark until it
    // moves past it, which it is about to. A pruned checkpoint's storage
    // takes the copy when there is one: a counter memcpy, no new array.
    if (!n.checkpoints.contains(*n.live)) {
      if (n.spare.empty()) {
        n.checkpoints.emplace(*n.live, *n.ref);
      } else {
        n.spare.key() = *n.live;
        n.spare.mapped() = *n.ref;
        n.checkpoints.insert(std::move(n.spare));
      }
    }
    n.live.reset();
  }
  n.merge.Admit(admitted);
  n.ref->BatchAddScalar(admitted);
  return Status::OK();
}

void MergeTreeSim::Seal() {
  for (uint64_t leaf : topo_.leaves) {
    if (nodes_[leaf].alive) nodes_[leaf].final_local = true;
  }
}

bool MergeTreeSim::FinalReady(uint64_t node) const {
  const Node& n = nodes_[node];
  if (topo_.is_leaf(node)) return n.final_local;
  for (uint64_t child : topo_.children[node]) {
    // A dead child will never report.
    if (nodes_[child].alive && !n.merge.child_final(child)) return false;
  }
  return true;
}

Result<std::optional<uint64_t>> MergeTreeSim::Deliver(
    uint64_t parent, uint64_t child, std::string_view header,
    std::string_view payload, bool* applied) {
  *applied = false;
  if (const Status verified = VerifyFrame(header, payload); !verified.ok()) {
    // A tampered frame MUST be caught here (CRC/length); anything else
    // reaching this path is a transport bug.
    if (verified.IsCorruption()) return std::optional<uint64_t>();
    return verified;
  }
  STREAMFREQ_ASSIGN_OR_RETURN(DeltaView delta, DecodeDelta(payload));
  MergeNode& p = nodes_[parent].merge;
  if (const FailDecision fp = SFQ_FAILPOINT("dist.deliver"); fp) {
    // Parent drops a valid delta before applying but still answers with
    // its OLD cumulative ack — the sender must resend.
    ++stats_.dropped_deliveries;
    return std::optional<uint64_t>(p.acked(child));
  }
  STREAMFREQ_ASSIGN_OR_RETURN(*applied, p.Apply(child, std::move(delta)));
  if (*applied) {
    ++stats_.deltas_applied;
  } else {
    ++stats_.delta_dedups;
  }
  return std::optional<uint64_t>(p.acked(child));
}

Result<bool> MergeTreeSim::ShipRound() {
  bool progress = false;
  for (uint64_t u : bottom_up_) {
    if (u == 0) continue;
    Node& n = nodes_[u];
    if (!n.alive) continue;
    if (SFQ_FAILPOINT("dist.node").action == FailAction::kCrash) {
      // Permanent node loss: unacked and unshipped mass below this point
      // never reaches the root; its absence shows up in the coverage map,
      // not as silent error.
      n.alive = false;
      ++stats_.nodes_lost;
      continue;
    }
    const bool fresh = !n.merge.up().has_pending();
    const std::optional<std::string_view> payload =
        n.merge.Ship(FinalReady(u));
    if (!payload.has_value()) continue;
    if (fresh) {
      // A new delta took the node's sketch: remember what it covers. At a
      // leaf, `ref` itself is the checkpoint at the watermark it carries
      // until Offer moves it.
      if (n.ref.has_value()) {
        const auto& covered = n.merge.covered();
        if (auto it = covered.find(u); it != covered.end()) {
          n.live = it->second;
        }
      }
      n.in_flight = n.merge.Covered();
    }
    ++stats_.deltas_shipped;
    stats_.bytes_shipped += payload->size();
    const uint64_t parent = topo_.parent[u];
    if (!nodes_[parent].alive) {
      ++stats_.severed_links;
      continue;
    }
    // The frame is the header SendFrame would write, followed by the
    // pending encoding where it lies; nothing is copied behind the header.
    const std::string_view pieces[] = {*payload};
    std::array<char, frame::kHeaderSize> header =
        frame::HeaderFor(kFrameMagic, pieces);
    std::string_view header_sent(header.data(), header.size());
    std::string_view payload_sent = *payload;
    std::string damaged;  // a bit-flipped payload's copy
    if (const FailDecision fp = SFQ_FAILPOINT("dist.ship"); fp) {
      if (fp.action == FailAction::kError ||
          fp.action == FailAction::kCrash) {
        ++stats_.severed_links;  // frame never arrives
        continue;
      }
      const size_t frame_size = header.size() + payload->size();
      if (fp.action == FailAction::kTorn) {
        const size_t kept = fp.param != 0
                                ? std::min<size_t>(fp.param, frame_size)
                                : frame_size / 2;
        header_sent = header_sent.substr(0, kept);
        payload_sent = payload_sent.substr(0, kept - header_sent.size());
      } else if (fp.action == FailAction::kBitFlip) {
        const size_t bit = fp.param % (frame_size * 8);
        char* byte;
        if (bit / 8 < header.size()) {
          byte = &header[bit / 8];
        } else {
          damaged.assign(*payload);
          payload_sent = damaged;
          byte = &damaged[bit / 8 - header.size()];
        }
        *byte = static_cast<char>(static_cast<unsigned char>(*byte) ^
                                  (1u << (bit % 8)));
      }
    }
    bool applied = false;
    STREAMFREQ_ASSIGN_OR_RETURN(
        std::optional<uint64_t> ack,
        Deliver(parent, u, header_sent, payload_sent, &applied));
    progress = progress || applied;
    if (!ack.has_value()) {
      ++stats_.severed_links;  // torn/bit-flipped frame caught by VerifyFrame
      continue;
    }
    if (SFQ_FAILPOINT("dist.ack")) {
      ++stats_.lost_acks;  // sender never sees it; resend next round
      continue;
    }
    STREAMFREQ_RETURN_NOT_OK(n.merge.up().Acked(*ack));
  }
  for (uint64_t leaf : topo_.leaves) PruneCheckpoints(leaf);
  return progress;
}

void MergeTreeSim::PruneCheckpoints(uint64_t leaf) {
  Node& l = nodes_[leaf];
  std::map<uint64_t, CountSketch>& checkpoints = l.checkpoints;
  std::optional<uint64_t>& live = l.live;
  if (checkpoints.empty() && !live.has_value()) return;
  std::vector<uint64_t> pinned;
  for (uint64_t u = leaf;; u = topo_.parent[u]) {
    const Node& n = nodes_[u];
    if (u != leaf) {
      const auto& covered = n.merge.covered();
      if (auto it = covered.find(leaf); it != covered.end()) {
        pinned.push_back(it->second);
      }
    }
    if (u == 0) break;
    // u's sketch is its covered mass minus the mass at the watermarks its
    // last fresh delta carried, whether that delta is pending or acked.
    auto it = std::lower_bound(
        n.in_flight.begin(), n.in_flight.end(), leaf,
        [](const CoverageEntry& c, uint64_t id) { return c.leaf_id < id; });
    if (it != n.in_flight.end() && it->leaf_id == leaf) {
      pinned.push_back(it->count);
    }
  }
  const auto unpinned = [&pinned](uint64_t watermark) {
    return std::find(pinned.begin(), pinned.end(), watermark) == pinned.end();
  };
  for (auto it = checkpoints.begin(); it != checkpoints.end();) {
    if (!unpinned(it->first)) {
      ++it;
    } else if (l.spare.empty()) {
      l.spare = checkpoints.extract(it++);  // storage for the next Offer
    } else {
      it = checkpoints.erase(it);
    }
  }
  if (live.has_value() && unpinned(*live)) live.reset();
}

bool MergeTreeSim::Quiescent() const {
  for (uint64_t u = 1; u < nodes_.size(); ++u) {
    const Node& n = nodes_[u];
    if (!n.alive || !nodes_[topo_.parent[u]].alive) continue;
    if (!n.merge.up().NothingToShip(n.merge.Total(), FinalReady(u))) {
      return false;
    }
  }
  return true;
}

Status MergeTreeSim::Drain(uint64_t max_rounds) {
  for (uint64_t r = 0; r < max_rounds; ++r) {
    if (Quiescent()) return Status::OK();
    STREAMFREQ_RETURN_NOT_OK(ShipRound().status());
  }
  return Status::OK();  // bounded effort; loss is visible in coverage
}

namespace {

// True iff every counter of `acc` equals the sum of that counter over
// `plus` minus its sum over `minus`. A plain loop over CounterAt,
// deliberately not CountSketch::Merge or Subtract, which are code under
// test. Sums are unsigned so they wrap as counters do.
bool CountersEqualSum(const CountSketch& acc,
                      const std::vector<const CountSketch*>& plus,
                      const std::vector<const CountSketch*>& minus) {
  for (const auto* terms : {&plus, &minus}) {
    for (const CountSketch* term : *terms) {
      if (!acc.CompatibleWith(*term)) return false;
    }
  }
  for (size_t row = 0; row < acc.depth(); ++row) {
    for (size_t bucket = 0; bucket < acc.width(); ++bucket) {
      uint64_t sum = 0;
      for (const CountSketch* term : plus) {
        sum += static_cast<uint64_t>(term->CounterAt(row, bucket));
      }
      for (const CountSketch* term : minus) {
        sum -= static_cast<uint64_t>(term->CounterAt(row, bucket));
      }
      if (sum != static_cast<uint64_t>(acc.CounterAt(row, bucket))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

std::vector<ItemCount> MergeTreeSim::ApproxTop(size_t k) const {
  const MergeNode& root = nodes_[0].merge;
  return RankByEstimate(root.CandidateUnion(), root.acc(), k,
                        /*absolute=*/false);
}

Result<std::vector<ItemCount>> MergeTreeSim::MaxChange(size_t k) const {
  const MergeNode& root = nodes_[0].merge;
  return EpochMaxChange(root.acc(), epoch_ ? &*epoch_ : nullptr,
                        root.CandidateUnion(), k);
}

Result<const CountSketch*> MergeTreeSim::Checkpoint(
    uint64_t node, uint64_t leaf, uint64_t watermark) const {
  if (leaf >= nodes_.size() || !topo_.is_leaf(leaf)) {
    return Status::Internal("node " + std::to_string(node) +
                            " covers non-leaf " + std::to_string(leaf));
  }
  const Node& l = nodes_[leaf];
  if (l.live == watermark) return &*l.ref;
  const auto it = l.checkpoints.find(watermark);
  if (it == l.checkpoints.end()) {
    return Status::Internal("node " + std::to_string(node) + ": leaf " +
                            std::to_string(leaf) + " has no reference " +
                            "checkpoint at watermark " +
                            std::to_string(watermark));
  }
  return &it->second;
}

Status MergeTreeSim::CheckInvariants() const {
  for (uint64_t u = 0; u < nodes_.size(); ++u) {
    const Node& n = nodes_[u];
    const MergeNode& m = n.merge;
    if (!m.own().ConservationHolds()) {
      return Status::Internal("node " + std::to_string(u) +
                              ": own ledger violates conservation");
    }
    const DistLedger total = TotalLedger(u);
    if (!total.ConservationHolds()) {
      return Status::Internal("node " + std::to_string(u) +
                              ": composed ledger violates conservation");
    }
    // At-most-once accounting: what u has applied from each child never
    // exceeds what that child has produced so far.
    for (const auto& [child, c] : m.children()) {
      const DistLedger& applied = c.applied;
      if (!applied.ConservationHolds()) {
        return Status::Internal("node " + std::to_string(u) + " child " +
                                std::to_string(child) +
                                ": applied ledger violates conservation");
      }
      const DistLedger produced = TotalLedger(child);
      if (applied.offered > produced.offered ||
          applied.rejected > produced.rejected ||
          applied.ingested > produced.ingested ||
          applied.dropped > produced.dropped) {
        return Status::Internal("node " + std::to_string(u) +
                                " accounted more than child " +
                                std::to_string(child) + " produced");
      }
    }
    // Covered mass equals the composed ingested count at every node.
    uint64_t covered_sum = 0;
    for (const auto& [leaf, count] : m.covered()) covered_sum += count;
    if (covered_sum != total.ingested) {
      return Status::Internal(
          "node " + std::to_string(u) + ": covered mass " +
          std::to_string(covered_sum) + " != composed ingested " +
          std::to_string(total.ingested));
    }
    // Sketch bit-identity (delta linearity): the root's sketch is the sum
    // of the checkpoints at its covered watermarks. Any other node's sketch
    // holds only its unshipped mass: that sum minus the checkpoints at the
    // watermarks its last fresh delta carried, which its parent accounts
    // for. A leaf's covered term is its scalar-path `ref`.
    std::vector<const CountSketch*> plus;
    std::vector<const CountSketch*> minus;
    if (n.ref.has_value()) {
      // `ref` stands in for the checkpoint at the live watermark only while
      // it has not moved past it.
      if (n.live.has_value() && *n.live != m.own().ingested) {
        return Status::Internal("leaf " + std::to_string(u) +
                                ": live watermark " +
                                std::to_string(*n.live) + " behind ingested " +
                                std::to_string(m.own().ingested));
      }
      plus.push_back(&*n.ref);
    } else {
      for (const auto& [leaf, count] : m.covered()) {
        STREAMFREQ_ASSIGN_OR_RETURN(const CountSketch* term,
                                    Checkpoint(u, leaf, count));
        plus.push_back(term);
      }
    }
    for (const CoverageEntry& c : n.in_flight) {
      STREAMFREQ_ASSIGN_OR_RETURN(const CountSketch* term,
                                  Checkpoint(u, c.leaf_id, c.count));
      minus.push_back(term);
    }
    if (!CountersEqualSum(m.acc(), plus, minus)) {
      return Status::Internal("node " + std::to_string(u) +
                              ": sketch differs from covered-prefix "
                              "reference (delta linearity broken)");
    }
  }
  return Status::OK();
}

}  // namespace streamfreq
