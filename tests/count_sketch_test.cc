#include "core/count_sketch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "hash/random.h"
#include "stream/exact_counter.h"
#include "stream/zipf.h"
#include "verify/program.h"

namespace streamfreq {
namespace {

CountSketchParams SmallParams() {
  CountSketchParams p;
  p.depth = 5;
  p.width = 128;
  p.seed = 42;
  return p;
}

TEST(CountSketchTest, RejectsBadParams) {
  CountSketchParams p = SmallParams();
  p.depth = 0;
  EXPECT_TRUE(CountSketch::Make(p).status().IsInvalidArgument());
  p = SmallParams();
  p.width = 0;
  EXPECT_TRUE(CountSketch::Make(p).status().IsInvalidArgument());
  p = SmallParams();
  p.depth = 1u << 21;
  EXPECT_TRUE(CountSketch::Make(p).status().IsInvalidArgument());
}

// Dimensions Make accepts as plausible but no machine can back (2^20 rows
// of 2^34 counters, 128 PiB) come back as an error, not a null counter
// array the zeroing would write through.
TEST(CountSketchTest, UnallocatableDimensionsAreAnError) {
  CountSketchParams p = SmallParams();
  p.depth = 1u << 20;
  p.width = 1ull << 34;
  const Result<CountSketch> s = CountSketch::Make(p);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.status().IsIoError()) << s.status().ToString();
}

TEST(CountSketchTest, EmptySketchEstimatesZero) {
  auto s = CountSketch::Make(SmallParams());
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->Estimate(123), 0);
}

TEST(CountSketchTest, SingleItemIsExact) {
  // With one item there are no collisions: every row estimate is exact.
  // A depth-1 sketch's Estimate is its one row estimate, so each seed
  // checks a row on its own, not only the median.
  auto s = CountSketch::Make(SmallParams());
  ASSERT_TRUE(s.ok());
  s->Add(7, 10);
  s->Add(7, 5);
  EXPECT_EQ(s->Estimate(7), 15);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    CountSketchParams p = SmallParams();
    p.depth = 1;
    p.seed = seed;
    auto row = CountSketch::Make(p);
    ASSERT_TRUE(row.ok());
    row->Add(7, 10);
    row->Add(7, 5);
    EXPECT_EQ(row->Estimate(7), 15) << "seed " << seed;
  }
}

TEST(CountSketchTest, NegationIsSymmetric) {
  auto s = CountSketch::Make(SmallParams());
  auto neg = CountSketch::Make(SmallParams());
  ASSERT_TRUE(s.ok() && neg.ok());
  for (ItemId q = 1; q <= 50; ++q) {
    s->Add(q, static_cast<Count>(q));
    neg->Add(q, -static_cast<Count>(q));
  }
  for (ItemId q = 1; q <= 50; ++q) {
    EXPECT_EQ(s->Estimate(q), -neg->Estimate(q)) << "item " << q;
  }
}

TEST(CountSketchTest, TurnstileDeleteRestoresZero) {
  auto s = CountSketch::Make(SmallParams());
  ASSERT_TRUE(s.ok());
  s->Add(1, 100);
  s->Add(2, 50);
  s->Add(1, -100);
  s->Add(2, -50);
  // All counters are exactly zero again, so every estimate is zero.
  EXPECT_EQ(s->Estimate(1), 0);
  EXPECT_EQ(s->Estimate(2), 0);
  EXPECT_EQ(s->Estimate(999), 0);
}

TEST(CountSketchTest, ClearZeroesCounters) {
  auto s = CountSketch::Make(SmallParams());
  ASSERT_TRUE(s.ok());
  s->Add(3, 1000);
  s->Clear();
  EXPECT_EQ(s->Estimate(3), 0);
}

TEST(CountSketchTest, MergeEqualsUnionStream) {
  auto a = CountSketch::Make(SmallParams());
  auto b = CountSketch::Make(SmallParams());
  auto combined = CountSketch::Make(SmallParams());
  ASSERT_TRUE(a.ok() && b.ok() && combined.ok());
  for (ItemId q = 1; q <= 200; ++q) {
    a->Add(q, 3);
    combined->Add(q, 3);
  }
  for (ItemId q = 100; q <= 300; ++q) {
    b->Add(q, 7);
    combined->Add(q, 7);
  }
  ASSERT_TRUE(a->Merge(*b).ok());
  // Linearity: the merged sketch is bitwise the sketch of the union.
  for (ItemId q = 1; q <= 300; ++q) {
    EXPECT_EQ(a->Estimate(q), combined->Estimate(q)) << "item " << q;
  }
}

// Metamorphic relation under the verify fuzz grammar: round-robin ingest
// into three sketches followed by Merge must be counter-exact against a
// single sequential sketch, on every fuzz workload family (zipf / uniform /
// flows / adversarial).
TEST(CountSketchTest, MergeMatchesSequentialOnFuzzWorkloads) {
  CountSketchParams params;
  params.depth = 5;
  params.width = 1024;
  params.seed = 12;
  for (uint64_t index = 0; index < 6; ++index) {
    const FuzzProgram program = ProgramFromSeed(777, index);
    auto stream = MaterializeStream(program);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();

    std::vector<CountSketch> shards;
    for (int s = 0; s < 3; ++s) {
      auto shard = CountSketch::Make(params);
      ASSERT_TRUE(shard.ok());
      shards.push_back(std::move(*shard));
    }
    for (size_t i = 0; i < stream->size(); ++i) {
      shards[i % 3].Add((*stream)[i]);
    }
    ASSERT_TRUE(shards[0].Merge(shards[1]).ok());
    ASSERT_TRUE(shards[0].Merge(shards[2]).ok());

    auto sequential = CountSketch::Make(params);
    ASSERT_TRUE(sequential.ok());
    for (ItemId q : *stream) sequential->Add(q);

    for (size_t row = 0; row < sequential->depth(); ++row) {
      for (size_t col = 0; col < sequential->width(); ++col) {
        ASSERT_EQ(shards[0].CounterAt(row, col),
                  sequential->CounterAt(row, col))
            << "program " << index << " (" << WorkloadKindName(program.kind)
            << ") row " << row << " col " << col;
      }
    }
  }
}

TEST(CountSketchTest, SubtractYieldsDifferenceEstimates) {
  auto s1 = CountSketch::Make(SmallParams());
  auto s2 = CountSketch::Make(SmallParams());
  ASSERT_TRUE(s1.ok() && s2.ok());
  s1->Add(10, 100);
  s1->Add(11, 40);
  s2->Add(10, 60);
  s2->Add(12, 90);
  ASSERT_TRUE(s2->Subtract(*s1).ok());
  // Only three items touched 3 rows of 128 buckets: collisions are
  // unlikely; difference estimates should be near-exact.
  EXPECT_EQ(s2->Estimate(10), -40);
  EXPECT_EQ(s2->Estimate(11), -40);
  EXPECT_EQ(s2->Estimate(12), 90);
}

TEST(CountSketchTest, IncompatibleSketchesRefuseToMerge) {
  CountSketchParams p = SmallParams();
  auto a = CountSketch::Make(p);
  p.seed = 43;
  auto b = CountSketch::Make(p);
  p = SmallParams();
  p.width = 64;
  auto c = CountSketch::Make(p);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_FALSE(a->CompatibleWith(*b));
  EXPECT_TRUE(a->Merge(*b).IsInvalidArgument());
  EXPECT_TRUE(a->Merge(*c).IsInvalidArgument());
  EXPECT_TRUE(a->Subtract(*b).IsInvalidArgument());
}

TEST(CountSketchTest, SameSeedSketchesAreIdentical) {
  auto a = CountSketch::Make(SmallParams());
  auto b = CountSketch::Make(SmallParams());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->CompatibleWith(*b));
  a->Add(5, 10);
  b->Add(5, 10);
  for (size_t row = 0; row < a->depth(); ++row) {
    for (size_t col = 0; col < a->width(); ++col) {
      EXPECT_EQ(a->CounterAt(row, col), b->CounterAt(row, col));
    }
  }
}

TEST(CountSketchTest, SerializeRoundTrip) {
  auto s = CountSketch::Make(SmallParams());
  ASSERT_TRUE(s.ok());
  for (ItemId q = 1; q <= 500; ++q) s->Add(q, static_cast<Count>(q % 17));
  std::string buf;
  s->SerializeTo(&buf);
  auto loaded = CountSketch::Deserialize(buf);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->CompatibleWith(*s));
  for (ItemId q = 1; q <= 500; ++q) {
    EXPECT_EQ(loaded->Estimate(q), s->Estimate(q));
  }
}

TEST(CountSketchTest, DeserializeRejectsCorruption) {
  auto s = CountSketch::Make(SmallParams());
  ASSERT_TRUE(s.ok());
  std::string buf;
  s->SerializeTo(&buf);

  EXPECT_TRUE(CountSketch::Deserialize("").status().IsCorruption());
  EXPECT_TRUE(CountSketch::Deserialize(buf.substr(0, 16)).status().IsCorruption());
  EXPECT_TRUE(CountSketch::Deserialize(buf.substr(0, buf.size() - 8))
                  .status()
                  .IsCorruption());
  std::string bad_magic = buf;
  bad_magic[0] ^= 0x5A;
  EXPECT_TRUE(CountSketch::Deserialize(bad_magic).status().IsCorruption());
}

std::string Bytes(const CountSketch& sketch) {
  std::string out;
  sketch.SerializeTo(&out);
  return out;
}

TEST(CountSketchTest, SerializedSizeIsExact) {
  for (size_t width : {size_t{1}, size_t{13}, size_t{128}}) {
    CountSketchParams p = SmallParams();
    p.width = width;
    auto s = CountSketch::Make(p);
    ASSERT_TRUE(s.ok());
    s->Add(7, 3);
    std::string buf = "prefix";
    s->SerializeTo(&buf);
    EXPECT_EQ(buf.size(), 6 + s->SerializedSize());
    EXPECT_EQ(s->SerializedSize(), 48 + p.depth * width * 8);
  }
}

// MergeSerialized is Deserialize + Merge without the intermediate sketch,
// so every malformed input must fail exactly as Deserialize does, and a
// failure must leave the target's counters untouched.
TEST(CountSketchTest, MergeSerializedRejectsEveryTruncation) {
  auto into = CountSketch::Make(SmallParams());
  auto from = CountSketch::Make(SmallParams());
  ASSERT_TRUE(into.ok() && from.ok());
  into->Add(1, 4);
  from->Add(2, -9);
  const std::string before = Bytes(*into);
  const std::string blob = Bytes(*from);
  for (size_t keep = 0; keep < blob.size(); ++keep) {
    const std::string_view prefix = std::string_view(blob).substr(0, keep);
    EXPECT_TRUE(into->MergeSerialized(prefix).IsCorruption())
        << "prefix of " << keep << " bytes merged";
    EXPECT_TRUE(CountSketch::Deserialize(prefix).status().IsCorruption());
  }
  EXPECT_TRUE(into->MergeSerialized(blob + '\0').IsCorruption());
  EXPECT_EQ(Bytes(*into), before);
}

// Every single-bit flip in the 48-byte header (magic, depth, width, seed,
// family, estimator). A flip that leaves the header malformed is
// Corruption. A flip that describes a well-formed sketch with another seed
// or hash family is InvalidArgument, as Merge of the deserialized sketch
// would be. The estimator does not enter CompatibleWith, so the one flip
// that selects the other estimator merges, exactly like Deserialize + Merge.
TEST(CountSketchTest, MergeSerializedHeaderBitFlips) {
  auto into = CountSketch::Make(SmallParams());
  auto from = CountSketch::Make(SmallParams());
  ASSERT_TRUE(into.ok() && from.ok());
  into->Add(1, 4);
  from->Add(2, -9);
  const std::string before = Bytes(*into);
  const std::string blob = Bytes(*from);
  for (size_t byte = 0; byte < 48; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = blob;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
      const size_t field = byte / 8;  // magic depth width seed family est.
      CountSketch merged = *into;
      const Status status = merged.MergeSerialized(damaged);
      if (field == 3 || (field == 4 && byte == 32 && bit < 2)) {
        EXPECT_TRUE(status.IsInvalidArgument())
            << "byte " << byte << " bit " << bit << ": " << status.ToString();
      } else if (field == 5 && byte == 40 && bit == 0) {
        ASSERT_TRUE(status.ok()) << status.ToString();
        CountSketch reference = *into;
        auto parsed = CountSketch::Deserialize(damaged);
        ASSERT_TRUE(parsed.ok());
        ASSERT_TRUE(reference.Merge(*parsed).ok());
        EXPECT_EQ(Bytes(merged), Bytes(reference));
        continue;
      } else {
        EXPECT_TRUE(status.IsCorruption())
            << "byte " << byte << " bit " << bit << ": " << status.ToString();
        EXPECT_TRUE(CountSketch::Deserialize(damaged).status().IsCorruption());
      }
      EXPECT_EQ(Bytes(merged), before) << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(CountSketchTest, MergeSerializedRejectsIncompatibleSketches) {
  auto into = CountSketch::Make(SmallParams());
  ASSERT_TRUE(into.ok());
  into->Add(3, 11);
  const std::string before = Bytes(*into);
  std::vector<CountSketchParams> others(4, SmallParams());
  others[0].seed += 1;
  others[1].depth += 1;
  others[2].width += 1;
  others[3].family = HashFamily::kTabulation;
  for (const CountSketchParams& p : others) {
    auto other = CountSketch::Make(p);
    ASSERT_TRUE(other.ok());
    other->Add(3, 2);
    EXPECT_TRUE(into->MergeSerialized(Bytes(*other)).IsInvalidArgument());
    EXPECT_TRUE(into->Merge(*other).IsInvalidArgument());
    EXPECT_EQ(Bytes(*into), before);
  }
}

// Over random geometries, hash families and turnstile weights: odd widths
// leave padding columns in every row, and negative counters wrap as
// unsigned words in the byte-level add.
TEST(CountSketchTest, MergeSerializedEqualsDeserializeThenMerge) {
  SplitMix64 rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    CountSketchParams p;
    p.depth = 1 + rng.Next() % 6;
    p.width = 1 + rng.Next() % 40;
    p.seed = rng.Next();
    p.family = static_cast<HashFamily>(rng.Next() % 3);
    auto into = CountSketch::Make(p);
    auto from = CountSketch::Make(p);
    ASSERT_TRUE(into.ok() && from.ok());
    for (int i = 0; i < 50; ++i) {
      // Magnitudes up to 2^52 per update keep every sum inside int64.
      const Count w = static_cast<Count>(rng.Next() >> 12) - (Count{1} << 51);
      into->Add(rng.Next() % 1000, w);
      from->Add(rng.Next() % 1000, -w / 3);
    }
    const std::string blob = Bytes(*from);
    CountSketch merged = *into;
    ASSERT_TRUE(merged.MergeSerialized(blob).ok());
    CountSketch reference = *into;
    auto parsed = CountSketch::Deserialize(blob);
    ASSERT_TRUE(parsed.ok());
    ASSERT_TRUE(reference.Merge(*parsed).ok());
    ASSERT_EQ(Bytes(merged), Bytes(reference)) << "trial " << trial;
    // Padding columns (rows are padded to 8 counters) stay zero. CounterAt
    // does not bound-check, so it reads them directly.
    const size_t stride = (p.width + 7) / 8 * 8;
    for (size_t row = 0; row < p.depth; ++row) {
      for (size_t col = p.width; col < stride; ++col) {
        ASSERT_EQ(merged.CounterAt(row, col), 0)
            << "trial " << trial << " row " << row << " col " << col;
      }
    }
  }
}

TEST(CountSketchTest, MedianIsRobustToOneHeavyCollision) {
  // Plant a heavy item and measure a light one; with depth 5 the median
  // survives even if the heavy item collides in some rows.
  CountSketchParams p = SmallParams();
  p.width = 8;  // force frequent collisions
  auto s = CountSketch::Make(p);
  ASSERT_TRUE(s.ok());
  s->Add(1, 100000);
  s->Add(2, 10);
  const Count est = s->Estimate(2);
  // The estimate may be off by collisions with the single heavy item in a
  // minority of rows, but the median cannot be dragged to 100000 unless
  // the heavy item collides in >= 3 of 5 rows (prob ~ (1/8)^3 scale).
  EXPECT_LT(std::abs(est - 10), 100000 / 2) << "median destroyed by one outlier";
}

TEST(CountSketchTest, MeanEstimatorWorksButIsFragile) {
  CountSketchParams p = SmallParams();
  p.estimator = Estimator::kMean;
  auto s = CountSketch::Make(p);
  ASSERT_TRUE(s.ok());
  s->Add(9, 50);
  EXPECT_EQ(s->Estimate(9), 50) << "no collisions: mean is exact too";
}

TEST(CountSketchTest, AllFamiliesEstimateSingleItemExactly) {
  for (HashFamily family :
       {HashFamily::kCarterWegman, HashFamily::kMultiplyShift,
        HashFamily::kTabulation}) {
    CountSketchParams p = SmallParams();
    p.family = family;
    auto s = CountSketch::Make(p);
    ASSERT_TRUE(s.ok());
    s->Add(77, 1234);
    EXPECT_EQ(s->Estimate(77), 1234)
        << "family " << static_cast<int>(family);
  }
}

TEST(CountSketchTest, DepthOneAndWidthOneDegenerate) {
  CountSketchParams p;
  p.depth = 1;
  p.width = 1;
  p.seed = 1;
  auto s = CountSketch::Make(p);
  ASSERT_TRUE(s.ok());
  s->Add(1, 5);
  // Everything lands in the single counter; estimate is +/-5 depending on
  // the item's sign, and self-estimate is exactly 5.
  EXPECT_EQ(s->Estimate(1), 5);
}

TEST(CountSketchTest, EvenDepthMedianAveragesMiddles) {
  CountSketchParams p = SmallParams();
  p.depth = 4;
  auto s = CountSketch::Make(p);
  ASSERT_TRUE(s.ok());
  s->Add(3, 21);
  EXPECT_EQ(s->Estimate(3), 21);
}

// AddAndEstimate is Add followed by Estimate in one pass over the rows: the
// same counters and the same answer, for every family and estimator, odd
// and even depths, the deep (heap-buffered) median, and signed weights.
TEST(CountSketchTest, AddAndEstimateEqualsAddThenEstimate) {
  for (const HashFamily family :
       {HashFamily::kCarterWegman, HashFamily::kMultiplyShift,
        HashFamily::kTabulation}) {
    for (const Estimator estimator : {Estimator::kMedian, Estimator::kMean}) {
      for (const size_t depth : {size_t{1}, size_t{4}, size_t{5}, size_t{65}}) {
        CountSketchParams p = SmallParams();
        p.depth = depth;
        p.width = 16;  // collisions, so row values differ
        p.family = family;
        p.estimator = estimator;
        auto two_calls = CountSketch::Make(p);
        auto one_call = CountSketch::Make(p);
        ASSERT_TRUE(two_calls.ok() && one_call.ok());
        Xoshiro256 rng(depth * 31 + static_cast<uint64_t>(family));
        for (int i = 0; i < 2000; ++i) {
          const ItemId item = rng.UniformBelow(200);
          const Count weight = static_cast<Count>(rng.UniformBelow(7)) - 3;
          two_calls->Add(item, weight);
          ASSERT_EQ(one_call->AddAndEstimate(item, weight),
                    two_calls->Estimate(item));
        }
        for (size_t row = 0; row < depth; ++row) {
          for (size_t bucket = 0; bucket < p.width; ++bucket) {
            ASSERT_EQ(one_call->CounterAt(row, bucket),
                      two_calls->CounterAt(row, bucket));
          }
        }
      }
    }
  }
}

TEST(CountSketchTest, SpaceBytesScalesWithDimensions) {
  CountSketchParams p = SmallParams();
  auto small = CountSketch::Make(p);
  p.width *= 2;
  auto big = CountSketch::Make(p);
  ASSERT_TRUE(small.ok() && big.ok());
  EXPECT_GT(big->SpaceBytes(), small->SpaceBytes());
  EXPECT_GE(small->SpaceBytes(),
            small->depth() * small->width() * sizeof(int64_t));
}

TEST(CountSketchTest, EstimateUnbiasedOverSeeds) {
  // E[h_i[q] * s_i[q]] = n_q (Lemma 1 setup): average the single row
  // estimate of a fixed stream over many independent depth-1 sketches.
  ExactCounter oracle;
  auto gen = ZipfGenerator::Make(500, 1.0, 3);
  ASSERT_TRUE(gen.ok());
  const Stream stream = gen->Take(20000);
  oracle.AddAll(stream);
  const ItemId target = gen->IdForRank(5);
  const Count truth = oracle.CountOf(target);

  double sum = 0.0;
  constexpr int kSeeds = 300;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    CountSketchParams p;
    p.depth = 1;
    p.width = 64;
    p.seed = static_cast<uint64_t>(seed) * 1000003;
    auto s = CountSketch::Make(p);
    ASSERT_TRUE(s.ok());
    for (ItemId q : stream) s->Add(q);
    sum += static_cast<double>(s->Estimate(target));
  }
  const double mean = sum / kSeeds;
  // Variance per estimate <= F2/width; stderr = sqrt(var/kSeeds).
  const double sigma = std::sqrt(oracle.ResidualF2(0) / 64.0 / kSeeds);
  EXPECT_NEAR(mean, static_cast<double>(truth), 6 * sigma);
}

}  // namespace
}  // namespace streamfreq
