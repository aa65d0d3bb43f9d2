// Delta-shipping protocol tests (satellite of the distributed merge tree,
// docs/DISTRIBUTED.md): the codec's corruption matrix at every truncation
// boundary, the channel's resend-verbatim/cumulative-ack discipline held
// to the acked-base arithmetic it replaced, the merge-tree node's apply
// rule and the allocation bound of its fresh ship, an end-to-end
// severed-link schedule proving at-most-once accounting through
// MergeTreeSim, and the bound on and copy-on-write lifecycle of the
// reference checkpoints MergeTreeSim keeps for its bit-identity check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/count_sketch.h"
#include "core/space_saving.h"
#include "counting_allocator.h"
#include "dist/delta.h"
#include "dist/merge_tree.h"
#include "dist/tree.h"
#include "stream/zipf.h"
#include "util/failpoint.h"

namespace streamfreq {
namespace {

CountSketchParams SmallParams() {
  CountSketchParams params;
  params.depth = 3;
  params.width = 64;
  params.seed = 9;
  return params;
}

DeltaPayload SamplePayload() {
  DeltaPayload delta;
  delta.node_id = 4;
  delta.seqno = 7;
  delta.final_flag = true;
  delta.ledger = DistLedger{100, 10, 80, 10};
  delta.covered = {{2, 50}, {3, 30}};
  delta.candidates = {11, 22, 33};
  auto sketch = CountSketch::Make(SmallParams());
  EXPECT_TRUE(sketch.ok());
  sketch->Add(11, 5);
  sketch->SerializeTo(&delta.sketch_blob);
  return delta;
}

TEST(DeltaCodecTest, RoundTripsEveryField) {
  const DeltaPayload delta = SamplePayload();
  const std::string encoded = EncodeDelta(delta);
  auto decoded = DecodeDelta(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->node_id, delta.node_id);
  EXPECT_EQ(decoded->seqno, delta.seqno);
  EXPECT_EQ(decoded->final_flag, delta.final_flag);
  EXPECT_TRUE(decoded->ledger == delta.ledger);
  EXPECT_EQ(decoded->covered, delta.covered);
  EXPECT_EQ(decoded->candidates, delta.candidates);
  EXPECT_EQ(decoded->sketch_blob, delta.sketch_blob);
  // The blob is not copied out: it is the payload's trailing bytes.
  EXPECT_EQ(decoded->sketch_blob.data(),
            encoded.data() + encoded.size() - delta.sketch_blob.size());
  // The owning form carries the same fields and re-encodes bit-identically.
  EXPECT_EQ(EncodeDelta(DeltaPayload(*decoded)), encoded);
}

TEST(DeltaCodecTest, EveryTruncationBoundaryIsCorruption) {
  // The same discipline the server protocol test applies to RPC frames: a
  // torn payload must fail at EVERY prefix length, never crash, never
  // half-decode. (In the live tree a torn frame dies at the transport CRC;
  // this matrix is the defense in depth behind it.)
  const std::string encoded = EncodeDelta(SamplePayload());
  ASSERT_GT(encoded.size(), 0u);
  for (size_t keep = 0; keep < encoded.size(); ++keep) {
    auto decoded = DecodeDelta(std::string_view(encoded).substr(0, keep));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << keep << " bytes decoded";
    EXPECT_TRUE(decoded.status().IsCorruption())
        << "prefix " << keep << ": " << decoded.status().ToString();
  }
  // Trailing garbage after a complete payload is equally fatal.
  auto padded = DecodeDelta(encoded + std::string(1, '\0'));
  EXPECT_TRUE(padded.status().IsCorruption());
}

TEST(DeltaCodecTest, RejectsBadMagicFlagsSeqnoAndLedger) {
  DeltaPayload delta = SamplePayload();
  std::string encoded = EncodeDelta(delta);
  encoded[0] ^= 0x01;  // magic
  EXPECT_TRUE(DecodeDelta(encoded).status().IsCorruption());

  DeltaPayload zero_seq = SamplePayload();
  zero_seq.seqno = 0;
  EXPECT_TRUE(DecodeDelta(EncodeDelta(zero_seq)).status().IsCorruption());

  // Unknown flag bits mean a newer (or forged) sender; reject, don't guess.
  // Only bit0 (final) is defined.
  for (const char bit : {0x02, 0x04}) {
    std::string flagged = EncodeDelta(SamplePayload());
    flagged[24] |= bit;  // flags field: u64 at offset 24
    EXPECT_TRUE(DecodeDelta(flagged).status().IsCorruption()) << int{bit};
  }

  DeltaPayload bad_ledger = SamplePayload();
  bad_ledger.ledger = DistLedger{100, 0, 80, 0};  // 100 != 80 + 0
  EXPECT_TRUE(DecodeDelta(EncodeDelta(bad_ledger)).status().IsCorruption());
}

TEST(DeltaCodecTest, AckRoundTripAndTruncation) {
  const std::string encoded = EncodeAck(41);
  auto decoded = DecodeAck(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, 41u);
  for (size_t keep = 0; keep < encoded.size(); ++keep) {
    EXPECT_TRUE(DecodeAck(std::string_view(encoded).substr(0, keep))
                    .status()
                    .IsCorruption())
        << "ack prefix " << keep;
  }
  EXPECT_TRUE(DecodeAck(encoded + "x").status().IsCorruption());
}

// The arithmetic the channel replaced, spelled out: the sender keeps every
// item it has taken in (`current`) and an explicit acked base, a fresh
// delta is EncodeDelta of `current − base` with the ledger increment since
// the base, and an ack folds that delta into the base. The channel must
// ship those bytes while the node's own sketch (`unshipped`) holds only the
// mass taken in since its last fresh delta.
class AckedBaseReference {
 public:
  AckedBaseReference(uint64_t node_id, const CountSketch& zero)
      : node_id_(node_id), current_(zero), unshipped_(zero), base_(zero) {}

  /// Takes in `weight` of `item`: into everything and into the unshipped
  /// mass alike.
  void Add(ItemId item, Count weight) {
    current_.Add(item, weight);
    unshipped_.Add(item, weight);
  }
  void BatchAdd(std::span<const ItemId> items) {
    current_.BatchAdd(items);
    unshipped_.BatchAdd(items);
  }

  /// Ships through `channel` what the node holds now.
  std::optional<std::string_view> Ship(
      DeltaChannel* channel, const DistLedger& ledger,
      const std::vector<CoverageEntry>& covered,
      const std::vector<ItemId>& candidates, bool final_flag) {
    return channel->Ship(&unshipped_, ledger, covered, candidates, final_flag);
  }

  /// The bytes a fresh delta `seqno` must be now: `current − base`, and the
  /// ledger increment over the acked ledger. Remembers the delta for Ack.
  std::string Expected(uint64_t seqno, const DistLedger& ledger,
                       const std::vector<CoverageEntry>& covered,
                       const std::vector<ItemId>& candidates,
                       bool final_flag) {
    delta_ = current_;
    EXPECT_TRUE(delta_->Subtract(base_).ok());
    DeltaPayload payload;
    payload.node_id = node_id_;
    payload.seqno = seqno;
    payload.final_flag = final_flag;
    payload.ledger = ledger.Minus(base_ledger_);
    payload.covered = covered;
    payload.candidates = candidates;
    delta_->SerializeTo(&payload.sketch_blob);
    ledger_after_ = ledger;
    return EncodeDelta(payload);
  }

  /// The ack of the last Expected delta: base += delta.
  void Ack() {
    ASSERT_TRUE(delta_.has_value());
    ASSERT_TRUE(base_.Merge(*delta_).ok());
    base_ledger_ = ledger_after_;
    delta_.reset();
  }

  const CountSketch& unshipped() const { return unshipped_; }

 private:
  uint64_t node_id_;
  CountSketch current_;
  CountSketch unshipped_;
  CountSketch base_;
  DistLedger base_ledger_;
  std::optional<CountSketch> delta_;
  DistLedger ledger_after_;
};

std::string Bytes(const CountSketch& sketch) {
  std::string out;
  sketch.SerializeTo(&out);
  return out;
}

// Ship, resend while mass arrives, a stale ack, the ack, and the next
// ship: every delta is byte for byte the acked-base reference, and the next
// delta carries exactly the mass taken in after the fresh ship.
TEST(DeltaChannelTest, ShipsCurrentMinusTheAckedBase) {
  auto zero = CountSketch::Make(SmallParams());
  ASSERT_TRUE(zero.ok());
  DeltaChannel channel(3);
  AckedBaseReference node(3, *zero);

  DistLedger ledger;
  EXPECT_TRUE(channel.NothingToShip(ledger, false));
  EXPECT_FALSE(node.Ship(&channel, ledger, {}, {}, false).has_value());

  node.Add(5, 2);
  node.Add(9, -1);
  ledger = DistLedger{3, 0, 3, 0};
  auto first = node.Ship(&channel, ledger, {{3, 3}}, {5, 9}, false);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(channel.has_pending());
  EXPECT_EQ(*first, node.Expected(1, ledger, {{3, 3}}, {5, 9}, false));
  // The shipped mass left the node's sketch.
  EXPECT_EQ(Bytes(node.unshipped()), Bytes(*zero));
  // Ship returns a view of the pending encoding; keep a copy of the bytes
  // so the resends below are compared against what actually went out.
  const std::string first_bytes(*first);

  // The sender keeps taking in mass, but until the ack arrives the SAME
  // bytes go out — bit-identical re-delivery is what makes dedup exact —
  // and the new mass stays in the node's sketch.
  node.Add(6, 1);
  node.Add(5, 4);
  ledger = DistLedger{8, 0, 8, 0};
  auto resend = node.Ship(&channel, ledger, {{3, 8}}, {5, 6, 9}, false);
  ASSERT_TRUE(resend.has_value());
  EXPECT_EQ(*resend, first_bytes);
  EXPECT_EQ(resend->data(), first->data());  // not rebuilt
  CountSketch after_ship = *zero;
  after_ship.Add(6, 1);
  after_ship.Add(5, 4);
  EXPECT_EQ(Bytes(node.unshipped()), Bytes(after_ship));

  // A stale cumulative ack (the receiver re-acking the old seqno after a
  // dropped delivery) is a no-op, not an error: still the same bytes.
  ASSERT_TRUE(channel.Acked(0).ok());
  EXPECT_TRUE(channel.has_pending());
  node.Add(7, -3);
  ledger = DistLedger{11, 1, 9, 1};
  auto stale = node.Ship(&channel, ledger, {{3, 9}}, {5, 6, 7, 9}, false);
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(*stale, first_bytes);

  // The ack drops the pending delta; the next one is `current − base`
  // against the base the ack moved, which is the post-ship mass alone.
  ASSERT_TRUE(channel.Acked(1).ok());
  node.Ack();
  EXPECT_FALSE(channel.has_pending());
  EXPECT_EQ(channel.acked_seqno(), 1u);
  after_ship.Add(7, -3);
  auto second = node.Ship(&channel, ledger, {{3, 9}}, {5, 6, 7, 9}, false);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, node.Expected(2, ledger, {{3, 9}}, {5, 6, 7, 9}, false));
  auto decoded = DecodeDelta(*second);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->seqno, 2u);
  EXPECT_TRUE(decoded->ledger == (DistLedger{8, 1, 6, 1}));
  EXPECT_EQ(decoded->sketch_blob, Bytes(after_ship));
  EXPECT_EQ(Bytes(node.unshipped()), Bytes(*zero));

  // Acks from the future or going backwards mean a corrupt peer.
  EXPECT_TRUE(channel.Acked(9).IsCorruption());
  ASSERT_TRUE(channel.Acked(2).ok());
  node.Ack();
  EXPECT_TRUE(channel.Acked(1).IsCorruption());

  // Acked and nothing new: quiet, with the ledger unchanged.
  EXPECT_TRUE(channel.NothingToShip(ledger, false));
  EXPECT_FALSE(
      node.Ship(&channel, ledger, {{3, 9}}, {5, 6, 7, 9}, false).has_value());
}

TEST(DeltaChannelTest, FinalFlagLatchesOnAck) {
  auto zero = CountSketch::Make(SmallParams());
  ASSERT_TRUE(zero.ok());
  DeltaChannel channel(2);
  AckedBaseReference node(2, *zero);
  node.Add(1, 1);
  const DistLedger ledger{1, 0, 1, 0};
  auto fin = node.Ship(&channel, ledger, {{2, 1}}, {1}, true);
  ASSERT_TRUE(fin.has_value());
  EXPECT_EQ(*fin, node.Expected(1, ledger, {{2, 1}}, {1}, true));
  auto decoded = DecodeDelta(*fin);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->final_flag);
  EXPECT_FALSE(channel.NothingToShip(ledger, true));
  ASSERT_TRUE(channel.Acked(1).ok());
  // Latched: nothing new + final acked = quiet forever.
  EXPECT_TRUE(channel.NothingToShip(ledger, true));
  EXPECT_FALSE(node.Ship(&channel, ledger, {{2, 1}}, {1}, true).has_value());
}

// A delta whose counters go negative, with a full coverage map and a
// candidate slate: the in-place encoding is still the reference's bytes,
// and it decodes to the fields it was given.
TEST(DeltaChannelTest, NegativeCountersShipTheReferenceBytes) {
  auto zero = CountSketch::Make(SmallParams());
  ASSERT_TRUE(zero.ok());
  DeltaChannel channel(5);
  AckedBaseReference node(5, *zero);
  auto gen = ZipfGenerator::Make(300, 1.0, 77);
  ASSERT_TRUE(gen.ok());
  node.BatchAdd(gen->Take(500));
  const DistLedger first_ledger{500, 0, 500, 0};
  auto first = node.Ship(&channel, first_ledger, {{5, 500}}, {1}, false);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, node.Expected(1, first_ledger, {{5, 500}}, {1}, false));
  ASSERT_TRUE(channel.Acked(1).ok());
  node.Ack();

  node.BatchAdd(gen->Take(300));
  node.Add(12345, -40);
  const std::vector<CoverageEntry> covered = {{5, 800}, {6, 10}, {9, 3}};
  const std::vector<ItemId> candidates = {2, 4, 8, 16, 32};
  const DistLedger ledger{820, 20, 800, 0};
  auto shipped =
      node.Ship(&channel, ledger, covered, candidates, /*final_flag=*/true);
  ASSERT_TRUE(shipped.has_value());
  EXPECT_EQ(*shipped, node.Expected(2, ledger, covered, candidates, true));

  auto decoded = DecodeDelta(*shipped);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->seqno, 2u);
  EXPECT_TRUE(decoded->final_flag);
  EXPECT_TRUE(decoded->ledger == (DistLedger{320, 20, 300, 0}));
  EXPECT_EQ(decoded->covered, covered);
  EXPECT_EQ(decoded->candidates, candidates);
}

// A delta from `from` as a parent receives it: `covered` is that sender's
// own watermark, the ledger increment admits `ingested` items, and the
// sketch blob views `blob`.
DeltaView NodeDelta(uint64_t from, uint64_t seqno, uint64_t ingested,
                    uint64_t covered, const std::string& blob) {
  DeltaView delta;
  delta.node_id = from;
  delta.seqno = seqno;
  delta.ledger = DistLedger{ingested, 0, ingested, 0};
  delta.covered = {{from, covered}};
  delta.candidates = {from * 100 + seqno};
  delta.sketch_blob = blob;
  return delta;
}

// One blob adding `weight` to item 11.
std::string ItemBlob(Count weight) {
  auto sketch = CountSketch::Make(SmallParams());
  EXPECT_TRUE(sketch.ok());
  sketch->Add(11, weight);
  return Bytes(*sketch);
}

TEST(MergeNodeTest, WalDisciplineAppliesEachDeltaOnceAndRejectsGaps) {
  auto zero = CountSketch::Make(SmallParams());
  ASSERT_TRUE(zero.ok());
  MergeNode node(1, *zero);
  const std::string blob = ItemBlob(5);

  auto applied = node.Apply(3, NodeDelta(3, 1, 10, 10, blob));
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_TRUE(*applied);
  EXPECT_EQ(node.acked(3), 1u);

  // Re-delivery of an applied seqno: skipped, acked again, counted once.
  applied = node.Apply(3, NodeDelta(3, 1, 10, 10, blob));
  ASSERT_TRUE(applied.ok());
  EXPECT_FALSE(*applied);

  DeltaView last = NodeDelta(3, 2, 4, 14, blob);
  last.final_flag = true;
  applied = node.Apply(3, last);
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(*applied);
  EXPECT_TRUE(node.child_final(3));

  // An out-of-order stale frame (reordered re-delivery) is a duplicate too.
  applied = node.Apply(3, NodeDelta(3, 1, 10, 10, blob));
  ASSERT_TRUE(applied.ok());
  EXPECT_FALSE(*applied);

  // A gap cannot happen under resend-verbatim; treat it as corruption.
  EXPECT_TRUE(node.Apply(3, NodeDelta(3, 4, 1, 15, blob))
                  .status()
                  .IsCorruption());

  // A second child composes with the first.
  ASSERT_TRUE(node.Apply(6, NodeDelta(6, 1, 7, 7, blob)).ok());

  EXPECT_EQ(node.acked(3), 2u);
  EXPECT_EQ(node.deltas_applied(), 3u);
  EXPECT_EQ(node.delta_dedups(), 2u);
  EXPECT_TRUE(node.Total() == (DistLedger{21, 0, 21, 0}));
  EXPECT_EQ(node.Covered(),
            (std::vector<CoverageEntry>{{3, 14}, {6, 7}}));
  EXPECT_EQ(node.CandidateUnion(), (std::vector<ItemId>{302, 601}));
  EXPECT_FALSE(node.child_final(6));
  CountSketch want = *zero;
  want.Add(11, 15);  // three applied blobs of 5
  EXPECT_EQ(Bytes(node.acc()), Bytes(want));
}

// Every refusal is Corruption and leaves the node as it was.
TEST(MergeNodeTest, RefusesAForeignSenderSeqnoZeroAndABackwardsWatermark) {
  auto zero = CountSketch::Make(SmallParams());
  ASSERT_TRUE(zero.ok());
  MergeNode node(0, *zero);
  const std::string blob = ItemBlob(5);
  ASSERT_TRUE(node.Apply(3, NodeDelta(3, 1, 10, 10, blob)).ok());
  const std::string before = Bytes(node.acc());

  // A delta naming node 4 arrives over the link from node 3.
  EXPECT_TRUE(node.Apply(3, NodeDelta(4, 2, 1, 11, blob))
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(node.Apply(3, NodeDelta(3, 0, 1, 11, blob))
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(node.Apply(3, NodeDelta(3, 2, 1, 9, blob))
                  .status()
                  .IsCorruption());

  EXPECT_EQ(node.acked(3), 1u);
  EXPECT_EQ(node.acked(4), 0u);
  EXPECT_TRUE(node.Total() == (DistLedger{10, 0, 10, 0}));
  EXPECT_EQ(node.Covered(), (std::vector<CoverageEntry>{{3, 10}}));
  EXPECT_EQ(Bytes(node.acc()), before);
  EXPECT_EQ(node.deltas_applied(), 1u);
}

// A leaf's first delta is its whole state: admitted items, admission
// ledger, own watermark and tracker candidates, in EncodeDelta's bytes.
// The shipped mass then leaves the leaf's sketch, and the next delta
// carries only what it admitted after.
TEST(MergeNodeTest, LeafShipsWhatItAdmitted) {
  auto zero = CountSketch::Make(SmallParams());
  auto tracker = SpaceSaving::Make(8);
  ASSERT_TRUE(zero.ok());
  ASSERT_TRUE(tracker.ok());
  MergeNode leaf(5, *zero, std::move(*tracker));
  const std::vector<ItemId> items = {9, 7, 9, 3, 9, 7, 1, 8, 8, 8};
  leaf.own().offered += 12;
  leaf.own().rejected += 2;
  leaf.Admit(items);

  auto shipped = leaf.Ship(/*final_flag=*/false);
  ASSERT_TRUE(shipped.has_value());
  DeltaPayload want;
  want.node_id = 5;
  want.seqno = 1;
  want.ledger = DistLedger{12, 2, 10, 0};
  want.covered = {{5, 10}};
  want.candidates = {1, 3, 7, 8, 9};  // every tracked item, by id
  CountSketch sketch = *zero;
  sketch.BatchAdd(items);
  want.sketch_blob = Bytes(sketch);
  EXPECT_EQ(*shipped, EncodeDelta(want));
  EXPECT_TRUE(leaf.Total() == want.ledger);
  EXPECT_EQ(Bytes(leaf.acc()), Bytes(*zero));

  ASSERT_TRUE(leaf.up().Acked(1).ok());
  const std::vector<ItemId> more = {3, 3, 4};
  leaf.own().offered += 3;
  leaf.Admit(more);
  auto next_shipped = leaf.Ship(/*final_flag=*/true);
  ASSERT_TRUE(next_shipped.has_value());
  auto decoded = DecodeDelta(*next_shipped);
  ASSERT_TRUE(decoded.ok());
  CountSketch next = *zero;
  next.BatchAdd(more);
  EXPECT_EQ(decoded->sketch_blob, Bytes(next));
  EXPECT_TRUE(decoded->ledger == (DistLedger{3, 0, 3, 0}));
}

// A fresh Ship serializes the node's counters into the pending encoding
// and clears them in place: it allocates about the payload once. Copying
// the sketch to subtract an acked base from it would allocate it twice,
// and so would a node-based candidate union at 256 candidates (the
// tree-fanout4 leaf's tracker).
TEST(MergeNodeTest, FreshShipAllocatesAboutThePayload) {
  CountSketchParams params;
  params.depth = 5;
  params.width = 2048;
  params.seed = 3;
  auto zero = CountSketch::Make(params);
  ASSERT_TRUE(zero.ok());
  for (const size_t tracked : {size_t{16}, size_t{256}}) {
    auto tracker = SpaceSaving::Make(tracked);
    ASSERT_TRUE(tracker.ok());
    MergeNode leaf(1, *zero, std::move(*tracker));
    auto gen = ZipfGenerator::Make(1000, 1.1, 5);
    ASSERT_TRUE(gen.ok());
    for (int round = 0; round < 3; ++round) {
      const Stream batch = gen->Take(4096);
      leaf.own().offered += batch.size();
      leaf.Admit(batch);
      const size_t before = testing_alloc::AllocatedBytes();
      const std::optional<std::string_view> shipped = leaf.Ship(false);
      const size_t allocated = testing_alloc::AllocatedBytes() - before;
      ASSERT_TRUE(shipped.has_value());
      EXPECT_LE(allocated, shipped->size() + shipped->size() / 10)
          << tracked << " candidates, round " << round;
      EXPECT_EQ(Bytes(leaf.acc()), Bytes(*zero))
          << tracked << " candidates, round " << round;
      ASSERT_TRUE(leaf.up().Acked(leaf.up().acked_seqno() + 1).ok());
    }
    // The count is live: a copy of the sketch's counters shows in it.
    const size_t before = testing_alloc::AllocatedBytes();
    const CountSketch copy = leaf.acc();
    EXPECT_GE(testing_alloc::AllocatedBytes() - before,
              params.depth * params.width * sizeof(Count));
  }
}

// A resend is the stored encoding, and a call with nothing to ship answers
// std::nullopt: neither builds the coverage or the candidate union, so
// neither allocates anything, even with a full 256-candidate tracker.
TEST(MergeNodeTest, ResendAllocatesNothing) {
  CountSketchParams params;
  params.depth = 5;
  params.width = 2048;
  params.seed = 3;
  auto zero = CountSketch::Make(params);
  auto tracker = SpaceSaving::Make(256);
  ASSERT_TRUE(zero.ok());
  ASSERT_TRUE(tracker.ok());
  MergeNode leaf(1, *zero, std::move(*tracker));
  auto gen = ZipfGenerator::Make(1000, 1.1, 7);
  ASSERT_TRUE(gen.ok());
  const Stream batch = gen->Take(4096);
  leaf.own().offered += batch.size();
  leaf.Admit(batch);
  const std::optional<std::string_view> fresh = leaf.Ship(false);
  ASSERT_TRUE(fresh.has_value());
  const std::string sent(*fresh);
  ASSERT_EQ(DecodeDelta(sent)->candidates.size(), 256u);

  size_t before = testing_alloc::AllocatedBytes();
  for (int resend = 0; resend < 3; ++resend) {
    const std::optional<std::string_view> again = leaf.Ship(false);
    ASSERT_TRUE(again.has_value());
    EXPECT_TRUE(*again == sent) << "resend " << resend;
  }
  EXPECT_EQ(testing_alloc::AllocatedBytes() - before, 0u) << "a resend allocated";

  ASSERT_TRUE(leaf.up().Acked(1).ok());
  before = testing_alloc::AllocatedBytes();
  EXPECT_FALSE(leaf.Ship(false).has_value());
  EXPECT_EQ(testing_alloc::AllocatedBytes() - before, 0u) << "an idle Ship allocated";
}

// End-to-end: a planted severed-link + lost-ack schedule. Severs delay
// mass, they never lose it — so after enough rounds the tree must converge
// to full coverage with every re-delivered delta deduped, and the root must
// be bit-identical to a clean flat merge.
TEST(DistDeltaE2ETest, SeveredLinksForceResendsButAccountingIsExact) {
  auto topo = BuildBalancedTree(/*workers=*/6, /*fanout=*/2);
  ASSERT_TRUE(topo.ok());
  const CountSketchParams params = SmallParams();
  auto sim = MergeTreeSim::Make(*topo, params, /*tracked=*/16);
  ASSERT_TRUE(sim.ok());

  // Half the ship frames die in flight, a third of the acks vanish. No
  // budget exhaustion: probabilities only, so resends keep being tested.
  ScopedFailpoints failpoints("dist.ship=error@0.5;dist.ack=error@0.34",
                              /*seed=*/99);
  ASSERT_TRUE(failpoints.status().ok());

  std::vector<Stream> streams;
  for (uint64_t leaf = 0; leaf < 6; ++leaf) {
    auto gen = ZipfGenerator::Make(500, 1.1, 17 * (leaf + 1));
    ASSERT_TRUE(gen.ok());
    streams.push_back(gen->Take(2000));
  }
  const auto& leaves = sim->topology().leaves;
  for (size_t i = 0; i < leaves.size(); ++i) {
    for (size_t off = 0; off < streams[i].size(); off += 256) {
      const size_t len = std::min<size_t>(256, streams[i].size() - off);
      ASSERT_TRUE(
          sim->Offer(leaves[i], std::span<const ItemId>(
                                    streams[i].data() + off, len))
              .ok());
      auto round = sim->ShipRound();
      ASSERT_TRUE(round.ok());
    }
  }
  sim->Seal();
  ASSERT_TRUE(sim->Drain(/*max_rounds=*/400).ok());
  ASSERT_TRUE(sim->Quiescent());

  const MergeTreeStats& stats = sim->stats();
  EXPECT_GT(stats.severed_links, 0u);
  EXPECT_GT(stats.lost_acks, 0u);
  EXPECT_GT(stats.delta_dedups, 0u);  // lost acks force dup deliveries

  ASSERT_TRUE(sim->CheckInvariants().ok()) << sim->CheckInvariants().ToString();

  // No admission faults were armed, so nothing was rejected or shed: the
  // tree converged to FULL coverage and the root must equal the flat merge.
  const DistLedger ledger = sim->root_ledger();
  EXPECT_EQ(ledger.offered, 6u * 2000u);
  EXPECT_EQ(ledger.ingested, 6u * 2000u);
  EXPECT_EQ(ledger.rejected, 0u);
  EXPECT_EQ(ledger.dropped, 0u);

  auto flat = CountSketch::Make(params);
  ASSERT_TRUE(flat.ok());
  for (const Stream& s : streams) flat->BatchAdd(s);
  std::string root_bytes, flat_bytes;
  sim->root_sketch().SerializeTo(&root_bytes);
  flat->SerializeTo(&flat_bytes);
  EXPECT_EQ(root_bytes, flat_bytes);
}

// Dropped deliveries re-ack the OLD cumulative seqno: the sender resends,
// the receiver applies exactly once. dist.deliver exercises the reorder/
// duplicate path end to end at the apply layer (below the CRC transport).
TEST(DistDeltaE2ETest, DroppedDeliveriesAreAppliedExactlyOnce) {
  auto topo = BuildBalancedTree(/*workers=*/4, /*fanout=*/0);
  ASSERT_TRUE(topo.ok());
  const CountSketchParams params = SmallParams();
  auto sim = MergeTreeSim::Make(*topo, params, /*tracked=*/16);
  ASSERT_TRUE(sim.ok());

  ScopedFailpoints failpoints("dist.deliver=error@0.5", /*seed=*/7);
  ASSERT_TRUE(failpoints.status().ok());

  std::vector<Stream> streams;
  for (uint64_t leaf = 0; leaf < 4; ++leaf) {
    auto gen = ZipfGenerator::Make(300, 1.0, 29 * (leaf + 1));
    ASSERT_TRUE(gen.ok());
    streams.push_back(gen->Take(1500));
  }
  const auto& leaves = sim->topology().leaves;
  for (size_t i = 0; i < leaves.size(); ++i) {
    ASSERT_TRUE(sim->Offer(leaves[i], streams[i]).ok());
  }
  sim->Seal();
  ASSERT_TRUE(sim->Drain(/*max_rounds=*/200).ok());
  ASSERT_TRUE(sim->Quiescent());

  EXPECT_GT(sim->stats().dropped_deliveries, 0u);
  ASSERT_TRUE(sim->CheckInvariants().ok()) << sim->CheckInvariants().ToString();
  EXPECT_EQ(sim->root_ledger().ingested, 4u * 1500u);

  auto flat = CountSketch::Make(params);
  ASSERT_TRUE(flat.ok());
  for (const Stream& s : streams) flat->BatchAdd(s);
  std::string root_bytes, flat_bytes;
  sim->root_sketch().SerializeTo(&root_bytes);
  flat->SerializeTo(&flat_bytes);
  EXPECT_EQ(root_bytes, flat_bytes);
}

// Torn and bit-flipped frames must die at the transport CRC and count as
// severs — a tampered frame reaching the apply path would be a dedup hole.
TEST(DistDeltaE2ETest, TamperedFramesDieAtTheCrc) {
  for (const char* spec : {"dist.ship=torn*4", "dist.ship=bitflip:3*4"}) {
    auto topo = BuildBalancedTree(/*workers=*/3, /*fanout=*/0);
    ASSERT_TRUE(topo.ok());
    auto sim = MergeTreeSim::Make(*topo, SmallParams(), /*tracked=*/8);
    ASSERT_TRUE(sim.ok());

    ScopedFailpoints failpoints(spec, /*seed=*/5);
    ASSERT_TRUE(failpoints.status().ok());

    std::vector<Stream> streams;
    for (uint64_t leaf = 0; leaf < 3; ++leaf) {
      auto gen = ZipfGenerator::Make(200, 1.0, 31 * (leaf + 1));
      ASSERT_TRUE(gen.ok());
      streams.push_back(gen->Take(1000));
    }
    const auto& leaves = sim->topology().leaves;
    for (size_t i = 0; i < leaves.size(); ++i) {
      ASSERT_TRUE(sim->Offer(leaves[i], streams[i]).ok());
    }
    sim->Seal();
    ASSERT_TRUE(sim->Drain(/*max_rounds=*/200).ok());

    EXPECT_GT(sim->stats().severed_links, 0u) << spec;
    ASSERT_TRUE(sim->CheckInvariants().ok())
        << spec << ": " << sim->CheckInvariants().ToString();
    EXPECT_EQ(sim->root_ledger().ingested, 3u * 1000u) << spec;
  }
}

// Before any MarkEpoch, max-change ranks against the zero sketch: the
// candidate union ordered by |root estimate|, ties toward smaller ids. The
// narrow sketch makes some estimates negative, so the absolute value
// matters.
TEST(MergeTreeSimTest, MaxChangeWithoutMarkRanksByRootEstimate) {
  auto topo = BuildBalancedTree(/*workers=*/4, /*fanout=*/2);
  ASSERT_TRUE(topo.ok());
  CountSketchParams params = SmallParams();
  params.width = 8;
  auto sim = MergeTreeSim::Make(*topo, params, /*tracked=*/32);
  ASSERT_TRUE(sim.ok());
  const auto& leaves = sim->topology().leaves;
  for (size_t i = 0; i < leaves.size(); ++i) {
    auto gen = ZipfGenerator::Make(400, 0.8, 41 * (i + 1));
    ASSERT_TRUE(gen.ok());
    ASSERT_TRUE(sim->Offer(leaves[i], gen->Take(1000)).ok());
  }
  sim->Seal();
  ASSERT_TRUE(sim->Drain(/*max_rounds=*/16).ok());

  // ApproxTop scores the whole candidate union on the root sketch.
  std::vector<ItemCount> want = sim->ApproxTop(SIZE_MAX);
  ASSERT_GT(want.size(), 5u);
  std::sort(want.begin(), want.end(),
            [](const ItemCount& a, const ItemCount& b) {
              if (std::llabs(a.count) != std::llabs(b.count)) {
                return std::llabs(a.count) > std::llabs(b.count);
              }
              return a.item < b.item;
            });
  want.resize(5);
  auto change = sim->MaxChange(5);
  ASSERT_TRUE(change.ok()) << change.status().ToString();
  EXPECT_EQ(*change, want);
}

// Copy-on-write checkpoints under lost acks: every ack is lost, so each
// leaf's delta stays pending (resent, deduped by the parent) while the leaf
// keeps admitting batches past the watermark it carries. The checkpoint at
// that watermark must be copied before `ref` moves, and every node's sketch
// must still equal its covered-prefix reference at every step.
TEST(MergeTreeSimTest, LeafAdmitsWhileItsDeltaIsUnacked) {
  auto topo = BuildBalancedTree(/*workers=*/4, /*fanout=*/2);
  ASSERT_TRUE(topo.ok());
  const CountSketchParams params = SmallParams();
  auto sim = MergeTreeSim::Make(*topo, params, /*tracked=*/16);
  ASSERT_TRUE(sim.ok());
  const auto& leaves = sim->topology().leaves;
  auto gen = ZipfGenerator::Make(500, 1.1, 23);
  ASSERT_TRUE(gen.ok());
  std::vector<Stream> streams(leaves.size());
  const auto offer_wave = [&] {
    for (size_t i = 0; i < leaves.size(); ++i) {
      const Stream batch = gen->Take(128);
      streams[i].insert(streams[i].end(), batch.begin(), batch.end());
      ASSERT_TRUE(sim->Offer(leaves[i], batch).ok());
    }
  };
  {
    ScopedFailpoints failpoints("dist.ack=error", /*seed=*/3);
    ASSERT_TRUE(failpoints.status().ok());
    for (int wave = 0; wave < 6; ++wave) {
      offer_wave();
      if (HasFatalFailure()) return;
      ASSERT_TRUE(sim->CheckInvariants().ok())
          << "wave " << wave << " after Offer: "
          << sim->CheckInvariants().ToString();
      ASSERT_TRUE(sim->ShipRound().ok());
      ASSERT_TRUE(sim->CheckInvariants().ok())
          << "wave " << wave << " after ShipRound: "
          << sim->CheckInvariants().ToString();
      for (uint64_t leaf : leaves) {
        EXPECT_GT(sim->checkpoint_count(leaf), 0u) << "leaf " << leaf;
        EXPECT_LE(sim->checkpoint_count(leaf), 2 * topo->depth[leaf]);
      }
    }
    EXPECT_GT(sim->stats().lost_acks, 0u);
    EXPECT_GT(sim->stats().delta_dedups, 0u);
  }
  sim->Seal();
  ASSERT_TRUE(sim->Drain(/*max_rounds=*/32).ok());
  ASSERT_TRUE(sim->Quiescent());
  ASSERT_TRUE(sim->CheckInvariants().ok()) << sim->CheckInvariants().ToString();
  auto flat = CountSketch::Make(params);
  ASSERT_TRUE(flat.ok());
  for (const Stream& s : streams) flat->BatchAdd(s);
  std::string root_bytes, flat_bytes;
  sim->root_sketch().SerializeTo(&root_bytes);
  flat->SerializeTo(&flat_bytes);
  EXPECT_EQ(root_bytes, flat_bytes);
}

// Shared fixture for the checkpoint-bound tests: `waves` rounds of one
// Offer per live leaf then one ShipRound, asserting after every ShipRound
// that each leaf retains at most 2·depth reference checkpoints.
void RunWavesCheckingCheckpointBound(MergeTreeSim* sim, uint64_t waves,
                                     uint64_t stream_seed,
                                     size_t* max_seen) {
  const TreeTopology& topo = sim->topology();
  auto gen = ZipfGenerator::Make(1000, 1.1, stream_seed);
  ASSERT_TRUE(gen.ok());
  auto check_bound = [&] {
    for (uint64_t leaf : topo.leaves) {
      const size_t count = sim->checkpoint_count(leaf);
      ASSERT_LE(count, 2 * topo.depth[leaf]) << "leaf " << leaf;
      *max_seen = std::max(*max_seen, count);
    }
  };
  for (uint64_t wave = 0; wave < waves; ++wave) {
    for (uint64_t leaf : topo.leaves) {
      if (!sim->alive(leaf)) continue;
      ASSERT_TRUE(sim->Offer(leaf, gen->Take(64)).ok());
    }
    ASSERT_TRUE(sim->ShipRound().ok());
    check_bound();
  }
  sim->Seal();
  for (int round = 0; round < 16; ++round) {
    ASSERT_TRUE(sim->ShipRound().ok());
    check_bound();
  }
}

// The bit-identity oracle holds O(sketch × depth) per leaf: in a fault-free
// fleet the retained checkpoints stay within 2·depth no matter how long the
// run is.
TEST(MergeTreeSimTest, CheckpointsStayWithinTwiceDepth) {
  for (uint64_t fanout : {uint64_t{4}, uint64_t{2}}) {
    for (uint64_t waves : {uint64_t{8}, uint64_t{256}}) {
      auto topo = BuildBalancedTree(/*workers=*/16, fanout);
      ASSERT_TRUE(topo.ok());
      auto sim = MergeTreeSim::Make(*topo, SmallParams(), /*tracked=*/16);
      ASSERT_TRUE(sim.ok());
      size_t max_seen = 0;
      RunWavesCheckingCheckpointBound(&*sim, waves, /*stream_seed=*/13,
                                      &max_seen);
      if (HasFatalFailure()) return;
      EXPECT_GT(max_seen, 0u) << "fanout " << fanout << ", " << waves
                              << " waves";
      ASSERT_TRUE(sim->Quiescent());
      ASSERT_TRUE(sim->CheckInvariants().ok())
          << sim->CheckInvariants().ToString();
      EXPECT_EQ(sim->root_ledger().ingested, 16 * 64 * waves);
    }
  }
}

// A dead ancestor pins only its own frozen watermark. Kill a depth-1 node P
// with dist.node: the relay R below it keeps applying its leaves' deltas
// while its own delta to P stays pending forever, and every leaf under R
// must still stay within 2·depth. dist.node fires once at a seeded random
// node; the seeds are scanned until the node it kills is a P with live
// descendants.
TEST(MergeTreeSimTest, CheckpointsStayBoundedUnderADeadGrandparent) {
  bool found = false;
  for (uint64_t seed = 1; seed <= 64 && !found; ++seed) {
    auto topo = BuildBalancedTree(/*workers=*/8, /*fanout=*/2);
    ASSERT_TRUE(topo.ok());
    ASSERT_EQ(topo->max_depth(), 3u);
    auto sim = MergeTreeSim::Make(*topo, SmallParams(), /*tracked=*/16);
    ASSERT_TRUE(sim.ok());
    ScopedFailpoints failpoints("dist.node=crash@0.02*1", seed);
    ASSERT_TRUE(failpoints.status().ok());
    size_t max_seen = 0;
    RunWavesCheckingCheckpointBound(&*sim, /*waves=*/48, /*stream_seed=*/seed,
                                    &max_seen);
    if (HasFatalFailure()) return;
    ASSERT_TRUE(sim->CheckInvariants().ok())
        << "seed " << seed << ": " << sim->CheckInvariants().ToString();

    // Qualifies when the one dead node is at depth 1 and some leaf two
    // levels under it ingested after the kill.
    uint64_t dead = 0;
    for (uint64_t u = 1; u < topo->size(); ++u) {
      if (!sim->alive(u)) dead = u;
    }
    if (dead == 0 || topo->depth[dead] != 1) continue;
    for (uint64_t leaf : topo->leaves) {
      if (topo->parent[topo->parent[leaf]] != dead) continue;
      // The root froze this leaf's watermark when P died; the leaf went on
      // ingesting past it.
      const auto covered = sim->RootCovered();
      const auto at_root = std::find_if(
          covered.begin(), covered.end(),
          [leaf](const CoverageEntry& c) { return c.leaf_id == leaf; });
      const uint64_t frozen = at_root == covered.end() ? 0 : at_root->count;
      if (frozen < sim->TotalLedger(leaf).ingested) {
        found = true;
        EXPECT_GT(sim->checkpoint_count(leaf), 0u) << "leaf " << leaf;
      }
    }
  }
  EXPECT_TRUE(found) << "no seed killed a depth-1 node mid-run";
}

}  // namespace
}  // namespace streamfreq
