#include "hash/random.h"

#include <gtest/gtest.h>

#include <set>

namespace streamfreq {
namespace {

TEST(SplitMix64Test, DeterministicForSeed) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

// The reference splitmix64 outputs (Vigna's splitmix64.c) for seed 0: every
// seeded stream in the library (hash seeds, failpoint probabilities, client
// retry jitter) is this one generator.
TEST(SplitMix64Test, MatchesReferenceSequence) {
  SplitMix64 sm(0);
  EXPECT_EQ(sm.Next(), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(sm.Next(), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(sm.Next(), 0x06C45D188009454FULL);
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(SplitMix64Test, NextNonZeroNeverZero) {
  SplitMix64 sm(0);
  for (int i = 0; i < 1000; ++i) EXPECT_NE(sm.NextNonZero(), 0u);
}

TEST(Xoshiro256Test, Deterministic) {
  Xoshiro256 a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256Test, UniformBelowInRange) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformBelow(17), 17u);
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.UniformBelow(1), 0u);
}

TEST(Xoshiro256Test, UniformDoubleInUnitInterval) {
  Xoshiro256 rng(7);
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  // Mean of U(0,1) is 0.5; stderr ~ 0.0009 at 100k draws.
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(Xoshiro256Test, UniformBelowRoughlyUniform) {
  Xoshiro256 rng(11);
  constexpr uint64_t kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.UniformBelow(kBuckets)];
  for (uint64_t b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kDraws / kBuckets, 600) << "bucket " << b;
  }
}

TEST(Xoshiro256Test, OutputsLookDistinct) {
  Xoshiro256 rng(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng());
  EXPECT_EQ(seen.size(), 1000u) << "64-bit outputs should not collide";
}

}  // namespace
}  // namespace streamfreq
