// Delta-shipping protocol tests (satellite of the distributed merge tree,
// docs/DISTRIBUTED.md): the codec's corruption matrix at every truncation
// boundary, the channel's resend-verbatim/cumulative-ack discipline and
// in-place encoding, the receiver's WAL-style dedup, an end-to-end
// severed-link schedule proving at-most-once accounting through
// MergeTreeSim, and the bound on and copy-on-write lifecycle of the
// reference checkpoints MergeTreeSim keeps for its bit-identity check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/count_sketch.h"
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
  delta.epoch_mark = false;
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
  EXPECT_EQ(decoded->epoch_mark, delta.epoch_mark);
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
  std::string flagged = EncodeDelta(SamplePayload());
  flagged[24] |= 0x04;  // flags field: u64 at offset 24, bit2 undefined
  EXPECT_TRUE(DecodeDelta(flagged).status().IsCorruption());

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

TEST(DeltaChannelTest, ResendsPendingVerbatimUntilAcked) {
  auto zero = CountSketch::Make(SmallParams());
  ASSERT_TRUE(zero.ok());
  DeltaChannel channel(3);

  CountSketch current = *zero;
  DistLedger ledger;
  EXPECT_TRUE(channel.NothingToShip(ledger, false));
  auto quiet = channel.Ship(current, ledger, {}, {}, false);
  ASSERT_TRUE(quiet.ok());
  EXPECT_FALSE(quiet->has_value());

  current.Add(5, 2);
  ledger = DistLedger{2, 0, 2, 0};
  auto first = channel.Ship(current, ledger, {{3, 2}}, {5}, false);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_TRUE(channel.has_pending());
  // Ship returns a view of the pending encoding; keep a copy of the bytes
  // so the resend below is compared against what actually went out.
  const std::string first_bytes(**first);

  // The sender keeps advancing, but until the ack arrives the SAME bytes
  // go out — bit-identical re-delivery is what makes dedup exact.
  current.Add(6, 1);
  ledger = DistLedger{3, 0, 3, 0};
  auto resend = channel.Ship(current, ledger, {{3, 3}}, {5, 6}, false);
  ASSERT_TRUE(resend.ok());
  ASSERT_TRUE(resend->has_value());
  EXPECT_EQ(**resend, first_bytes);
  EXPECT_EQ(resend->value().data(), first->value().data());  // not rebuilt

  // Cumulative ack folds the pending delta into the base; the next ship
  // carries only what came after it.
  ASSERT_TRUE(channel.Acked(1).ok());
  EXPECT_FALSE(channel.has_pending());
  EXPECT_EQ(channel.acked_seqno(), 1u);
  auto second = channel.Ship(current, ledger, {{3, 3}}, {5, 6}, false);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->has_value());
  auto decoded = DecodeDelta(**second);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->seqno, 2u);
  EXPECT_EQ(decoded->ledger.ingested, 1u);  // the post-ack increment only

  // A stale cumulative ack (receiver re-acking the old seqno after a
  // dropped delivery) is a no-op, not an error.
  ASSERT_TRUE(channel.Acked(1).ok());
  EXPECT_TRUE(channel.has_pending());

  // Acks from the future or going backwards mean a corrupt peer.
  EXPECT_TRUE(channel.Acked(9).IsCorruption());
  ASSERT_TRUE(channel.Acked(2).ok());
  EXPECT_TRUE(channel.Acked(1).IsCorruption());
}

TEST(DeltaChannelTest, FinalFlagLatchesOnAck) {
  auto zero = CountSketch::Make(SmallParams());
  ASSERT_TRUE(zero.ok());
  DeltaChannel channel(2);
  CountSketch current = *zero;
  current.Add(1);
  const DistLedger ledger{1, 0, 1, 0};
  auto fin = channel.Ship(current, ledger, {{2, 1}}, {1}, true);
  ASSERT_TRUE(fin.ok());
  ASSERT_TRUE(fin->has_value());
  auto decoded = DecodeDelta(**fin);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->final_flag);
  EXPECT_FALSE(channel.NothingToShip(ledger, true));
  ASSERT_TRUE(channel.Acked(1).ok());
  // Latched: nothing new + final acked = quiet forever.
  EXPECT_TRUE(channel.NothingToShip(ledger, true));
  auto quiet = channel.Ship(current, ledger, {{2, 1}}, {1}, true);
  ASSERT_TRUE(quiet.ok());
  EXPECT_FALSE(quiet->has_value());
}

// A channel starts from an empty base. Its first two deltas, across an ack,
// must be byte for byte what a channel based on an explicit zero sketch
// ships; that channel's arithmetic (delta = current − base, base += delta
// on ack) is spelled out here.
TEST(DeltaChannelTest, EmptyBaseShipsTheBytesOfAZeroBase) {
  auto zero = CountSketch::Make(SmallParams());
  ASSERT_TRUE(zero.ok());
  DeltaChannel channel(3);
  CountSketch zero_base = *zero;
  auto encoded = [](uint64_t seqno, const CountSketch& delta,
                    const DistLedger& inc,
                    const std::vector<CoverageEntry>& covered,
                    const std::vector<ItemId>& candidates) {
    DeltaPayload payload;
    payload.node_id = 3;
    payload.seqno = seqno;
    payload.ledger = inc;
    payload.covered = covered;
    payload.candidates = candidates;
    delta.SerializeTo(&payload.sketch_blob);
    return EncodeDelta(payload);
  };

  CountSketch current = *zero;
  current.Add(5, 2);
  current.Add(9, -1);
  auto first = channel.Ship(current, DistLedger{2, 0, 2, 0}, {{3, 2}},
                            {5, 9}, false);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  CountSketch delta1 = current;
  ASSERT_TRUE(delta1.Subtract(zero_base).ok());
  EXPECT_EQ(**first,
            encoded(1, delta1, DistLedger{2, 0, 2, 0}, {{3, 2}}, {5, 9}));
  const std::string first_bytes(**first);

  // The first delta resends verbatim until acked, whatever `current` does.
  current.Add(7, 4);
  auto resend = channel.Ship(current, DistLedger{6, 0, 6, 0}, {{3, 6}},
                             {5, 7, 9}, false);
  ASSERT_TRUE(resend.ok());
  ASSERT_TRUE(resend->has_value());
  EXPECT_EQ(**resend, first_bytes);
  current.Add(7, -4);

  ASSERT_TRUE(channel.Acked(1).ok());
  ASSERT_TRUE(zero_base.Merge(delta1).ok());

  current.Add(6, 3);
  current.Add(5, 1);
  auto second = channel.Ship(current, DistLedger{6, 0, 6, 0}, {{3, 6}},
                             {5, 6, 9}, false);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->has_value());
  CountSketch delta2 = current;
  ASSERT_TRUE(delta2.Subtract(zero_base).ok());
  EXPECT_EQ(**second,
            encoded(2, delta2, DistLedger{4, 0, 4, 0}, {{3, 6}}, {5, 6, 9}));
}

// Ship serializes the delta sketch straight into the pending encoding. Its
// bytes must be exactly EncodeDelta of the payload they decode to, with a
// full coverage map, a candidate slate, and a negative-counter delta.
TEST(DeltaChannelTest, InPlaceEncodingEqualsEncodeDelta) {
  auto zero = CountSketch::Make(SmallParams());
  ASSERT_TRUE(zero.ok());
  DeltaChannel channel(5);
  CountSketch current = *zero;
  auto gen = ZipfGenerator::Make(300, 1.0, 77);
  ASSERT_TRUE(gen.ok());
  current.BatchAdd(gen->Take(500));
  ASSERT_TRUE(channel
                  .Ship(current, DistLedger{500, 0, 500, 0}, {{5, 500}}, {1},
                        false)
                  .ok());
  ASSERT_TRUE(channel.Acked(1).ok());
  const CountSketch base = current;  // what the ack folded into the base
  current.BatchAdd(gen->Take(300));
  current.Add(12345, -40);
  const std::vector<CoverageEntry> covered = {{5, 800}, {6, 10}, {9, 3}};
  const std::vector<ItemId> candidates = {2, 4, 8, 16, 32};
  auto shipped = channel.Ship(current, DistLedger{820, 20, 800, 0}, covered,
                              candidates, /*final_flag=*/true);
  ASSERT_TRUE(shipped.ok());
  ASSERT_TRUE(shipped->has_value());
  const std::string_view bytes = **shipped;

  auto decoded = DecodeDelta(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->seqno, 2u);
  EXPECT_TRUE(decoded->final_flag);
  EXPECT_TRUE(decoded->ledger == (DistLedger{320, 20, 300, 0}));
  EXPECT_EQ(decoded->covered, covered);
  EXPECT_EQ(decoded->candidates, candidates);

  DeltaPayload payload;
  payload.node_id = 5;
  payload.seqno = 2;
  payload.final_flag = true;
  payload.ledger = DistLedger{320, 20, 300, 0};
  payload.covered = covered;
  payload.candidates = candidates;
  CountSketch delta = current;
  ASSERT_TRUE(delta.Subtract(base).ok());
  delta.SerializeTo(&payload.sketch_blob);
  EXPECT_EQ(bytes, EncodeDelta(payload));
}

TEST(DeltaReceiverTest, WalDisciplineDedupsAndRejectsGaps) {
  DeltaReceiver receiver;
  bool duplicate = true;
  ASSERT_TRUE(receiver.Classify(1, &duplicate).ok());
  EXPECT_FALSE(duplicate);
  receiver.Applied(1);

  // Re-delivery of an applied seqno: skip, exactly once.
  ASSERT_TRUE(receiver.Classify(1, &duplicate).ok());
  EXPECT_TRUE(duplicate);
  receiver.CountDuplicate();

  ASSERT_TRUE(receiver.Classify(2, &duplicate).ok());
  EXPECT_FALSE(duplicate);
  receiver.Applied(2);

  // An out-of-order stale frame (reordered re-delivery) is a duplicate too.
  ASSERT_TRUE(receiver.Classify(1, &duplicate).ok());
  EXPECT_TRUE(duplicate);

  // A gap cannot happen under resend-verbatim; treat it as corruption.
  EXPECT_TRUE(receiver.Classify(4, &duplicate).IsCorruption());
  EXPECT_EQ(receiver.last_applied(), 2u);
  EXPECT_EQ(receiver.duplicates(), 1u);
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
