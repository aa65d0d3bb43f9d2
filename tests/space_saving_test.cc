#include "core/space_saving.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "stream/exact_counter.h"
#include "stream/zipf.h"

namespace streamfreq {
namespace {

TEST(SpaceSavingTest, RejectsZeroCapacity) {
  EXPECT_TRUE(SpaceSaving::Make(0).status().IsInvalidArgument());
}

TEST(SpaceSavingTest, ExactWhenDistinctFits) {
  auto ss = SpaceSaving::Make(10);
  ASSERT_TRUE(ss.ok());
  for (ItemId q = 1; q <= 10; ++q) ss->Add(q, static_cast<Count>(3 * q));
  for (ItemId q = 1; q <= 10; ++q) {
    EXPECT_EQ(ss->Estimate(q), 3 * static_cast<Count>(q));
    EXPECT_EQ(ss->ErrorOf(q), 0);
  }
}

TEST(SpaceSavingTest, NeverUnderestimatesMonitored) {
  auto gen = ZipfGenerator::Make(2000, 1.0, 3);
  ASSERT_TRUE(gen.ok());
  const Stream stream = gen->Take(50000);
  ExactCounter oracle;
  oracle.AddAll(stream);
  auto ss = SpaceSaving::Make(100);
  ASSERT_TRUE(ss.ok());
  ss->AddAll(stream);
  for (const ItemCount& ic : ss->Candidates(100)) {
    ASSERT_GE(ic.count, oracle.CountOf(ic.item))
        << "Space-Saving counts are upper bounds";
  }
}

TEST(SpaceSavingTest, OverestimateBoundedByError) {
  auto gen = ZipfGenerator::Make(2000, 1.0, 5);
  ASSERT_TRUE(gen.ok());
  const Stream stream = gen->Take(50000);
  ExactCounter oracle;
  oracle.AddAll(stream);
  auto ss = SpaceSaving::Make(100);
  ASSERT_TRUE(ss.ok());
  ss->AddAll(stream);
  for (const ItemCount& ic : ss->Candidates(100)) {
    ASSERT_LE(ic.count - ss->ErrorOf(ic.item), oracle.CountOf(ic.item))
        << "count - error is a lower bound on the true count";
  }
}

TEST(SpaceSavingTest, MinCountBoundedByNOverC) {
  auto gen = ZipfGenerator::Make(5000, 0.8, 7);
  ASSERT_TRUE(gen.ok());
  constexpr size_t kCap = 64;
  auto ss = SpaceSaving::Make(kCap);
  ASSERT_TRUE(ss.ok());
  constexpr size_t kN = 100000;
  for (size_t i = 0; i < kN; ++i) ss->Add(gen->Next());
  EXPECT_LE(ss->MinCount(), static_cast<Count>(kN / kCap));
}

TEST(SpaceSavingTest, HeavyItemsAlwaysMonitored) {
  auto gen = ZipfGenerator::Make(2000, 1.2, 9);
  ASSERT_TRUE(gen.ok());
  const Stream stream = gen->Take(60000);
  ExactCounter oracle;
  oracle.AddAll(stream);
  constexpr size_t kCap = 100;
  auto ss = SpaceSaving::Make(kCap);
  ASSERT_TRUE(ss.ok());
  ss->AddAll(stream);

  std::unordered_set<ItemId> monitored;
  for (const ItemCount& ic : ss->Candidates(kCap)) monitored.insert(ic.item);
  const Count threshold =
      static_cast<Count>(stream.size()) / static_cast<Count>(kCap);
  for (const auto& [item, count] : oracle.counts()) {
    if (count > threshold) {
      EXPECT_TRUE(monitored.count(item)) << "heavy item " << item << " evicted";
    }
  }
}

TEST(SpaceSavingTest, MonitoredSetNeverExceedsCapacity) {
  auto gen = ZipfGenerator::Make(10000, 0.3, 11);
  ASSERT_TRUE(gen.ok());
  auto ss = SpaceSaving::Make(32);
  ASSERT_TRUE(ss.ok());
  for (int i = 0; i < 20000; ++i) {
    ss->Add(gen->Next());
    ASSERT_LE(ss->MonitoredCount(), 32u);
  }
}

TEST(SpaceSavingTest, UnmonitoredEstimateIsMinCount) {
  auto ss = SpaceSaving::Make(2);
  ASSERT_TRUE(ss.ok());
  ss->Add(1, 10);
  ss->Add(2, 20);
  EXPECT_EQ(ss->Estimate(999), 10)
      << "unmonitored items get the min count as upper bound";
  EXPECT_EQ(ss->ErrorOf(999), 0);
}

TEST(SpaceSavingTest, ReplacementInheritsMinPlusWeight) {
  auto ss = SpaceSaving::Make(2);
  ASSERT_TRUE(ss.ok());
  ss->Add(1, 10);
  ss->Add(2, 20);
  ss->Add(3, 5);  // replaces item 1 (min=10): count 15, error 10
  EXPECT_EQ(ss->Estimate(3), 15);
  EXPECT_EQ(ss->ErrorOf(3), 10);
  EXPECT_FALSE(ss->GuaranteedAtLeast(6).size() == 2)
      << "item 3 only guarantees 15-10=5";
}

TEST(SpaceSavingTest, GuaranteedAtLeastFiltersByLowerBound) {
  auto ss = SpaceSaving::Make(2);
  ASSERT_TRUE(ss.ok());
  ss->Add(1, 100);
  ss->Add(2, 50);
  ss->Add(3, 1);  // replaces 2: count 51, error 50, lower bound 1
  const auto guaranteed = ss->GuaranteedAtLeast(40);
  ASSERT_EQ(guaranteed.size(), 1u);
  EXPECT_EQ(guaranteed[0].item, 1u);
}

TEST(SpaceSavingTest, SumOfCountsEqualsStreamLength) {
  // Invariant of Space-Saving with unit updates: monitored counts sum to n.
  auto gen = ZipfGenerator::Make(1000, 1.0, 13);
  ASSERT_TRUE(gen.ok());
  auto ss = SpaceSaving::Make(20);
  ASSERT_TRUE(ss.ok());
  constexpr Count kN = 30000;
  for (Count i = 0; i < kN; ++i) ss->Add(gen->Next());
  Count total = 0;
  for (const ItemCount& ic : ss->Candidates(20)) total += ic.count;
  EXPECT_EQ(total, kN);
}

TEST(SpaceSavingTest, CandidatesSortedDescending) {
  auto ss = SpaceSaving::Make(5);
  ASSERT_TRUE(ss.ok());
  ss->Add(1, 5);
  ss->Add(2, 50);
  ss->Add(3, 20);
  const auto c = ss->Candidates(5);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0].item, 2u);
  EXPECT_EQ(c[1].item, 3u);
  EXPECT_EQ(c[2].item, 1u);
}

}  // namespace
}  // namespace streamfreq
