#include "core/misra_gries.h"

#include <gtest/gtest.h>

#include "stream/exact_counter.h"
#include "stream/zipf.h"

namespace streamfreq {
namespace {

TEST(MisraGriesTest, RejectsZeroCapacity) {
  EXPECT_TRUE(MisraGries::Make(0).status().IsInvalidArgument());
}

TEST(MisraGriesTest, ExactWhenDistinctFitsCapacity) {
  auto mg = MisraGries::Make(10);
  ASSERT_TRUE(mg.ok());
  for (int round = 0; round < 5; ++round) {
    for (ItemId q = 1; q <= 10; ++q) mg->Add(q, static_cast<Count>(q));
  }
  for (ItemId q = 1; q <= 10; ++q) {
    EXPECT_EQ(mg->Estimate(q), 5 * static_cast<Count>(q));
  }
  EXPECT_EQ(mg->MaxError(), 0);
}

TEST(MisraGriesTest, EstimatesNeverOverestimate) {
  auto gen = ZipfGenerator::Make(2000, 1.0, 3);
  ASSERT_TRUE(gen.ok());
  const Stream stream = gen->Take(50000);
  ExactCounter oracle;
  oracle.AddAll(stream);
  auto mg = MisraGries::Make(50);
  ASSERT_TRUE(mg.ok());
  mg->AddAll(stream);
  for (const auto& [item, count] : oracle.counts()) {
    ASSERT_LE(mg->Estimate(item), count);
  }
}

TEST(MisraGriesTest, UndercountBoundedByNOverCPlusOne) {
  auto gen = ZipfGenerator::Make(2000, 1.2, 5);
  ASSERT_TRUE(gen.ok());
  const Stream stream = gen->Take(60000);
  ExactCounter oracle;
  oracle.AddAll(stream);
  constexpr size_t kCap = 100;
  auto mg = MisraGries::Make(kCap);
  ASSERT_TRUE(mg.ok());
  mg->AddAll(stream);

  const Count bound =
      static_cast<Count>(stream.size()) / static_cast<Count>(kCap + 1);
  for (const auto& [item, count] : oracle.counts()) {
    ASSERT_GE(mg->Estimate(item), count - bound)
        << "undercount beyond n/(c+1) for item " << item;
  }
  EXPECT_LE(mg->MaxError(), bound);
}

TEST(MisraGriesTest, HeavyItemsAlwaysMonitored) {
  // Guarantee: every item with n_q > n/(c+1) is in the summary.
  auto gen = ZipfGenerator::Make(2000, 1.2, 7);
  ASSERT_TRUE(gen.ok());
  const Stream stream = gen->Take(60000);
  ExactCounter oracle;
  oracle.AddAll(stream);
  constexpr size_t kCap = 100;
  auto mg = MisraGries::Make(kCap);
  ASSERT_TRUE(mg.ok());
  mg->AddAll(stream);

  const Count threshold =
      static_cast<Count>(stream.size()) / static_cast<Count>(kCap + 1);
  for (const auto& [item, count] : oracle.counts()) {
    if (count > threshold) {
      EXPECT_GT(mg->Estimate(item), 0) << "heavy item evicted";
    }
  }
}

TEST(MisraGriesTest, NeverExceedsCapacity) {
  auto gen = ZipfGenerator::Make(10000, 0.5, 9);
  ASSERT_TRUE(gen.ok());
  auto mg = MisraGries::Make(25);
  ASSERT_TRUE(mg.ok());
  for (int i = 0; i < 20000; ++i) {
    mg->Add(gen->Next());
    ASSERT_LE(mg->Candidates(1000).size(), 25u);
  }
}

TEST(MisraGriesTest, WeightedUpdatesMatchRepeatedUnit) {
  // Weighted arrival semantics: final state equals unit-arrival runs on the
  // same multiset (order fixed: all copies arrive together in both cases).
  auto weighted = MisraGries::Make(3);
  auto unit = MisraGries::Make(3);
  ASSERT_TRUE(weighted.ok() && unit.ok());
  const std::vector<std::pair<ItemId, Count>> arrivals = {
      {1, 5}, {2, 3}, {3, 4}, {4, 6}, {1, 2}, {5, 1}};
  for (const auto& [item, w] : arrivals) {
    weighted->Add(item, w);
    for (Count i = 0; i < w; ++i) unit->Add(item);
  }
  for (ItemId q = 1; q <= 5; ++q) {
    EXPECT_EQ(weighted->Estimate(q), unit->Estimate(q)) << "item " << q;
  }
}

TEST(MisraGriesTest, CandidatesSortedAndTruncated) {
  auto mg = MisraGries::Make(10);
  ASSERT_TRUE(mg.ok());
  mg->Add(1, 5);
  mg->Add(2, 9);
  mg->Add(3, 7);
  const auto top2 = mg->Candidates(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].item, 2u);
  EXPECT_EQ(top2[1].item, 3u);
}

TEST(MisraGriesTest, SingleCounterDegeneratesToMajority) {
  // capacity 1 is the Boyer-Moore majority vote.
  auto mg = MisraGries::Make(1);
  ASSERT_TRUE(mg.ok());
  const Stream stream = {1, 2, 1, 3, 1, 4, 1, 1};
  mg->AddAll(stream);
  const auto c = mg->Candidates(1);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].item, 1u) << "majority element must survive";
}

TEST(MisraGriesTest, NameAndSpace) {
  auto mg = MisraGries::Make(7);
  ASSERT_TRUE(mg.ok());
  EXPECT_EQ(mg->Name(), "MisraGries(c=7)");
  EXPECT_EQ(mg->SpaceBytes(), 0u) << "empty summary holds no entries";
  mg->Add(1);
  EXPECT_GT(mg->SpaceBytes(), 0u);
}

}  // namespace
}  // namespace streamfreq
