#include "core/top_k_tracker.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <unordered_set>

#include "stream/adversarial.h"
#include "stream/exact_counter.h"
#include "stream/zipf.h"

namespace streamfreq {
namespace {

CountSketchParams DefaultSketch() {
  CountSketchParams p;
  p.depth = 5;
  p.width = 2048;
  p.seed = 21;
  return p;
}

TEST(CountSketchTopKTest, RejectsZeroTracked) {
  EXPECT_TRUE(
      CountSketchTopK::Make(DefaultSketch(), 0).status().IsInvalidArgument());
}

TEST(CountSketchTopKTest, PropagatesSketchErrors) {
  CountSketchParams p = DefaultSketch();
  p.width = 0;
  EXPECT_TRUE(CountSketchTopK::Make(p, 10).status().IsInvalidArgument());
}

TEST(CountSketchTopKTest, FindsTrueTopKOnSkewedStream) {
  auto gen = ZipfGenerator::Make(10000, 1.1, 33);
  ASSERT_TRUE(gen.ok());
  const Stream stream = gen->Take(200000);
  ExactCounter oracle;
  oracle.AddAll(stream);

  constexpr size_t kK = 20;
  auto algo = CountSketchTopK::Make(DefaultSketch(), 2 * kK);
  ASSERT_TRUE(algo.ok());
  algo->AddAll(stream);

  std::unordered_set<ItemId> candidates;
  for (const ItemCount& ic : algo->Candidates(2 * kK)) candidates.insert(ic.item);
  size_t found = 0;
  for (const ItemCount& ic : oracle.TopK(kK)) found += candidates.count(ic.item);
  EXPECT_GE(found, kK - 1) << "nearly all true top-k must be tracked";
}

TEST(CountSketchTopKTest, TrackedCountsAreAccurate) {
  auto gen = ZipfGenerator::Make(10000, 1.2, 35);
  ASSERT_TRUE(gen.ok());
  const Stream stream = gen->Take(100000);
  ExactCounter oracle;
  oracle.AddAll(stream);

  auto algo = CountSketchTopK::Make(DefaultSketch(), 50);
  ASSERT_TRUE(algo.ok());
  algo->AddAll(stream);

  // Head items are tracked early, so their tracked counts (estimate at
  // insertion + exact increments) are close to truth.
  for (const ItemCount& ic : algo->Candidates(5)) {
    const double truth = static_cast<double>(oracle.CountOf(ic.item));
    EXPECT_NEAR(static_cast<double>(ic.count), truth, truth * 0.1 + 50.0);
  }
}

// Replays `stream` through a tracker of `tracked` items and checks every
// arrival against a naive shadow of the tracked set: a tracked item gains
// its weight; an untracked one is admitted at its sketch estimate while
// there is room, or when that estimate is greater than the smallest
// (count, id) pair, which it evicts. Returns how many evictions picked
// their victim among several pairs with the same smallest count.
size_t CheckTrackerAgainstShadow(const Stream& stream, size_t tracked) {
  auto algo = CountSketchTopK::Make(DefaultSketch(), tracked);
  EXPECT_TRUE(algo.ok());
  std::map<ItemId, Count> shadow;  // tracked item -> tracked count
  size_t tie_evictions = 0;
  for (const ItemId q : stream) {
    const bool was_tracked = shadow.contains(q);
    EXPECT_EQ(algo->IsTracked(q), was_tracked);
    const TrackerEvent e = algo->AddTracked(q);
    if (was_tracked) {
      ++shadow[q];
      EXPECT_FALSE(e.inserted);
      EXPECT_EQ(e.evicted, 0u);
    } else {
      const Count estimate = algo->sketch().Estimate(q);
      bool admit = shadow.size() < tracked;
      ItemId victim = 0;
      if (!admit) {
        auto min_it = shadow.begin();
        size_t at_min = 0;
        for (auto it = shadow.begin(); it != shadow.end(); ++it) {
          if (it->second < min_it->second) {
            min_it = it;
            at_min = 0;
          }
          if (it->second == min_it->second) ++at_min;
        }
        admit = estimate > min_it->second;
        if (admit) {
          victim = min_it->first;
          if (at_min > 1) ++tie_evictions;
          shadow.erase(min_it);
        }
      }
      if (admit) shadow.emplace(q, estimate);
      EXPECT_EQ(e.inserted, admit);
      EXPECT_EQ(e.evicted, victim);
    }
    for (const auto& [id, count] : shadow) {
      EXPECT_TRUE(algo->IsTracked(id));
      EXPECT_EQ(algo->Estimate(id), count);
    }
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first divergence at item " << q;
      break;
    }
  }
  return tie_evictions;
}

TEST(CountSketchTopKTest, TrackerEventsMaintainInvariant) {
  auto gen = ZipfGenerator::Make(1000, 1.0, 37);
  ASSERT_TRUE(gen.ok());
  CheckTrackerAgainstShadow(gen->Take(20000), 10);

  // Planted ties: block r holds 16 ids that arrive r + 1 times each in a
  // burst. Each block's ids pass a count that a whole slate of tracked
  // items shares, so the smallest id among equals is what gets evicted.
  Stream tied;
  for (ItemId r = 1; r <= 8; ++r) {
    for (ItemId q = 16 * r + 1; q <= 16 * r + 16; ++q) {
      for (ItemId i = 0; i <= r; ++i) tied.push_back(q);
    }
  }
  EXPECT_GT(CheckTrackerAgainstShadow(tied, 10), 0u)
      << "no eviction was decided by a tie";
}

TEST(CountSketchTopKTest, EstimateUsesTrackedCountWhenAvailable) {
  auto algo = CountSketchTopK::Make(DefaultSketch(), 5);
  ASSERT_TRUE(algo.ok());
  for (int i = 0; i < 100; ++i) algo->Add(1);
  ASSERT_TRUE(algo->IsTracked(1));
  EXPECT_EQ(algo->Estimate(1), 100) << "tracked: exact count expected";
  EXPECT_EQ(algo->Estimate(12345), 0) << "untracked: sketch estimate";
}

TEST(CountSketchTopKTest, CandidatesTruncatedAndSorted) {
  auto algo = CountSketchTopK::Make(DefaultSketch(), 10);
  ASSERT_TRUE(algo.ok());
  for (ItemId q = 1; q <= 5; ++q) {
    for (ItemId i = 0; i < q * 10; ++i) algo->Add(q);
  }
  const auto top3 = algo->Candidates(3);
  ASSERT_EQ(top3.size(), 3u);
  EXPECT_EQ(top3[0].item, 5u);
  EXPECT_EQ(top3[1].item, 4u);
  EXPECT_EQ(top3[2].item, 3u);
  EXPECT_GE(top3[0].count, top3[1].count);
}

TEST(CountSketchTopKTest, CandidatesBreakTiesTowardSmallerIds) {
  auto algo = CountSketchTopK::Make(DefaultSketch(), 10);
  ASSERT_TRUE(algo.ok());
  for (ItemId q : {9, 3, 7, 5}) algo->Add(q, 4);
  algo->Add(8, 6);
  const auto top = algo->Candidates(4);
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0], (ItemCount{8, 6}));
  EXPECT_EQ(top[1], (ItemCount{3, 4}));
  EXPECT_EQ(top[2], (ItemCount{5, 4}));
  EXPECT_EQ(top[3], (ItemCount{7, 4}));
}

TEST(TrackedSetTest, EvictsTheSmallestPairOnlyForAGreaterCount) {
  TrackedSet set(2);
  EXPECT_TRUE(set.TryAdmit(0, 5).admitted);
  EXPECT_TRUE(set.TryAdmit(4, 5).admitted);
  // Full: an equal count is refused, a greater one evicts the smallest
  // (count, id) pair. That is item 0, which the flag reports.
  const TrackedSet::Admission refused = set.TryAdmit(6, 5);
  EXPECT_FALSE(refused.admitted);
  EXPECT_FALSE(refused.evicted);
  const TrackedSet::Admission taken = set.TryAdmit(6, 6);
  EXPECT_TRUE(taken.admitted);
  EXPECT_TRUE(taken.evicted);
  EXPECT_EQ(taken.victim, 0u);
  EXPECT_FALSE(set.Contains(0));
  EXPECT_TRUE(set.AddIfTracked(4, 3));
  EXPECT_FALSE(set.AddIfTracked(0, 3));
  EXPECT_EQ(set.CountOf(4), 8);
  EXPECT_EQ(set.CountOf(0), std::nullopt);
  EXPECT_EQ(set.Top(5), (std::vector<ItemCount>{{4, 8}, {6, 6}}));
  EXPECT_EQ(set.Top(1), (std::vector<ItemCount>{{4, 8}}));
}

TEST(CountSketchTopKTest, SolvesApproxTopOnBoundaryInstance) {
  // The adversarial instance: k head items, shadows at head-1. ApproxTop
  // permits shadows in the output (they exceed (1-eps) n_k) but must not
  // output tail items, and must include all (1+eps) n_k items = heads.
  AdversarialSpec spec;
  spec.k = 10;
  spec.shadows = 20;
  spec.head_count = 2000;
  spec.gap = 1;
  spec.tail_items = 5000;
  spec.tail_count = 3;
  spec.seed = 5;
  auto stream = MakeAdversarialStream(spec);
  ASSERT_TRUE(stream.ok());

  CountSketchParams p = DefaultSketch();
  p.width = 8192;
  auto algo = CountSketchTopK::Make(p, 40);
  ASSERT_TRUE(algo.ok());
  algo->AddAll(*stream);

  for (const ItemCount& ic : algo->Candidates(spec.k)) {
    EXPECT_LT(ic.item, kTailBase) << "tail item in the top-k output";
    EXPECT_GE(ic.item, kHeadBase);
  }
}

TEST(CountSketchTopKTest, SpaceIncludesSketchAndHeap) {
  auto algo = CountSketchTopK::Make(DefaultSketch(), 100);
  ASSERT_TRUE(algo.ok());
  const size_t empty_space = algo->SpaceBytes();
  EXPECT_GE(empty_space, algo->sketch().SpaceBytes());
  for (ItemId q = 1; q <= 100; ++q) algo->Add(q);
  EXPECT_GT(algo->SpaceBytes(), empty_space);
}

TEST(CountSketchTopKTest, NameEncodesParameters) {
  auto algo = CountSketchTopK::Make(DefaultSketch(), 7);
  ASSERT_TRUE(algo.ok());
  EXPECT_EQ(algo->Name(), "CountSketchTopK(t=5,b=2048,l=7)");
}

}  // namespace
}  // namespace streamfreq
