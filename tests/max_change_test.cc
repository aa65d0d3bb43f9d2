#include "core/max_change.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <unordered_set>
#include <vector>

#include "stream/exact_counter.h"
#include "stream/query_log.h"
#include "stream/zipf.h"

namespace streamfreq {
namespace {

CountSketchParams DefaultSketch() {
  CountSketchParams p;
  p.depth = 5;
  p.width = 4096;
  p.seed = 77;
  return p;
}

TEST(MaxChangeTest, RejectsZeroTracked) {
  EXPECT_TRUE(
      MaxChangeDetector::Make(DefaultSketch(), 0).status().IsInvalidArgument());
}

TEST(MaxChangeTest, SimplePlantedChange) {
  // S1: item 1 x100, item 2 x100. S2: item 1 x100, item 2 x10, item 3 x200.
  Stream s1, s2;
  for (int i = 0; i < 100; ++i) s1.push_back(1);
  for (int i = 0; i < 100; ++i) s1.push_back(2);
  for (int i = 0; i < 100; ++i) s2.push_back(1);
  for (int i = 0; i < 10; ++i) s2.push_back(2);
  for (int i = 0; i < 200; ++i) s2.push_back(3);

  auto changes = MaxChangeDetector::Run(DefaultSketch(), 10, s1, s2, 3);
  ASSERT_TRUE(changes.ok());
  ASSERT_GE(changes->size(), 2u);
  EXPECT_EQ((*changes)[0].item, 3u);
  EXPECT_EQ((*changes)[0].Delta(), 200);
  EXPECT_EQ((*changes)[1].item, 2u);
  EXPECT_EQ((*changes)[1].Delta(), -90);
}

TEST(MaxChangeTest, ExactCountsForReportedItems) {
  Stream s1 = {5, 5, 5, 6, 6};
  Stream s2 = {5, 6, 6, 6, 6, 7};
  auto changes = MaxChangeDetector::Run(DefaultSketch(), 10, s1, s2, 10);
  ASSERT_TRUE(changes.ok());
  for (const ChangeResult& c : *changes) {
    if (c.item == 5) {
      EXPECT_EQ(c.count_s1, 3);
      EXPECT_EQ(c.count_s2, 1);
    }
    if (c.item == 6) {
      EXPECT_EQ(c.count_s1, 2);
      EXPECT_EQ(c.count_s2, 4);
    }
    if (c.item == 7) {
      EXPECT_EQ(c.count_s1, 0);
      EXPECT_EQ(c.count_s2, 1);
    }
  }
}

TEST(MaxChangeTest, IdenticalStreamsReportZeroDeltas) {
  auto gen = ZipfGenerator::Make(100, 1.0, 5);
  ASSERT_TRUE(gen.ok());
  const Stream s = gen->Take(5000);
  auto changes = MaxChangeDetector::Run(DefaultSketch(), 20, s, s, 5);
  ASSERT_TRUE(changes.ok());
  for (const ChangeResult& c : *changes) {
    EXPECT_EQ(c.Delta(), 0);
  }
}

TEST(MaxChangeTest, DetectsTrendingQueriesInSyntheticLog) {
  QueryLogSpec spec;
  spec.universe = 20000;
  spec.z = 1.0;
  spec.period_length = 150000;
  spec.trending = 10;
  spec.fading = 10;
  spec.boost = 16.0;
  spec.fade = 0.0625;
  spec.seed = 99;
  auto log = MakeQueryLog(spec);
  ASSERT_TRUE(log.ok());

  // Ground truth: top-20 exact |delta| items.
  ExactCounter c1, c2;
  c1.AddAll(log->period1);
  c2.AddAll(log->period2);
  ExactCounter delta;
  for (const auto& [item, cnt] : c1.counts()) delta.Add(item, -cnt);
  for (const auto& [item, cnt] : c2.counts()) delta.Add(item, cnt);
  std::vector<std::pair<Count, ItemId>> truth;
  for (const auto& [item, d] : delta.counts()) {
    truth.push_back({d < 0 ? -d : d, item});
  }
  std::sort(truth.rbegin(), truth.rend());
  truth.resize(20);

  auto changes = MaxChangeDetector::Run(DefaultSketch(), 100, log->period1,
                                        log->period2, 20);
  ASSERT_TRUE(changes.ok());
  std::unordered_set<ItemId> reported;
  for (const ChangeResult& c : *changes) reported.insert(c.item);

  size_t hits = 0;
  for (const auto& [mag, item] : truth) hits += reported.count(item);
  EXPECT_GE(hits, 16u) << "at least 80% of true top changers found";
}

TEST(MaxChangeTest, ReportsBothRisersAndFallers) {
  Stream s1, s2;
  for (int i = 0; i < 500; ++i) s1.push_back(1);  // disappears
  for (int i = 0; i < 500; ++i) s2.push_back(2);  // appears
  auto changes = MaxChangeDetector::Run(DefaultSketch(), 10, s1, s2, 2);
  ASSERT_TRUE(changes.ok());
  ASSERT_EQ(changes->size(), 2u);
  std::unordered_set<ItemId> reported;
  for (const ChangeResult& c : *changes) reported.insert(c.item);
  EXPECT_TRUE(reported.count(1));
  EXPECT_TRUE(reported.count(2));
}

TEST(MaxChangeTest, IncrementalApiMatchesRun) {
  Stream s1 = {1, 1, 2};
  Stream s2 = {2, 2, 2, 3};
  auto det = MaxChangeDetector::Make(DefaultSketch(), 10);
  ASSERT_TRUE(det.ok());
  for (ItemId q : s1) det->ObserveS1(q);
  for (ItemId q : s2) det->ObserveS2(q);
  det->FinishFirstPass();
  for (ItemId q : s1) det->SecondPass(1, q);
  for (ItemId q : s2) det->SecondPass(2, q);
  const auto a = det->TopChanges(10);
  auto b = MaxChangeDetector::Run(DefaultSketch(), 10, s1, s2, 10);
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.size(), b->size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item, (*b)[i].item);
    EXPECT_EQ(a[i].Delta(), (*b)[i].Delta());
  }
}

TEST(MaxChangeTest, DifferenceSketchEstimatesDeltas) {
  Stream s1, s2;
  for (int i = 0; i < 300; ++i) s1.push_back(10);
  for (int i = 0; i < 120; ++i) s2.push_back(10);
  auto det = MaxChangeDetector::Make(DefaultSketch(), 5);
  ASSERT_TRUE(det.ok());
  for (ItemId q : s1) det->ObserveS1(q);
  for (ItemId q : s2) det->ObserveS2(q);
  det->FinishFirstPass();
  EXPECT_EQ(det->difference_sketch().Estimate(10), -180);
}

TEST(MaxChangeTest, SecondPassMatchesNaiveReferenceOnEveryArrival) {
  // Two samples of one Zipf law differ by noise alone, so many items hold
  // small, often equal |nhat| and the candidate set A keeps turning over.
  // Item 0 opens S1: it enters A first and leaves it at the first eviction.
  auto gen = ZipfGenerator::Make(300, 1.0, 41);
  ASSERT_TRUE(gen.ok());
  Stream s1 = {0};
  const Stream rest = gen->Take(3000);
  s1.insert(s1.end(), rest.begin(), rest.end());
  const Stream s2 = gen->Take(3000);

  constexpr size_t kTracked = 8;
  auto det = MaxChangeDetector::Make(DefaultSketch(), kTracked);
  ASSERT_TRUE(det.ok());
  for (ItemId q : s1) det->ObserveS1(q);
  for (ItemId q : s2) det->ObserveS2(q);
  det->FinishFirstPass();

  // The naive A: admit at |nhat| while there is room, or when |nhat| is
  // greater than the smallest (|nhat|, id) member, which leaves.
  struct Member {
    Count nhat_abs;
    Count count_s1 = 0;
    Count count_s2 = 0;
  };
  std::map<ItemId, Member> shadow;
  bool zero_evicted = false;
  const auto arrive = [&](int stream, ItemId q) {
    auto it = shadow.find(q);
    if (it == shadow.end()) {
      const Count nhat_abs = std::llabs(det->difference_sketch().Estimate(q));
      if (shadow.size() == kTracked) {
        auto min_it = shadow.begin();
        for (auto m = shadow.begin(); m != shadow.end(); ++m) {
          if (m->second.nhat_abs < min_it->second.nhat_abs) min_it = m;
        }
        if (nhat_abs <= min_it->second.nhat_abs) return;
        zero_evicted |= min_it->first == 0;
        shadow.erase(min_it);
      }
      it = shadow.emplace(q, Member{nhat_abs}).first;
    }
    ++(stream == 1 ? it->second.count_s1 : it->second.count_s2);
  };
  const auto naive_top = [&shadow] {
    std::vector<ChangeResult> out;
    for (const auto& [id, m] : shadow) {
      out.push_back({id, m.count_s1, m.count_s2});
    }
    std::sort(out.begin(), out.end(),
              [](const ChangeResult& a, const ChangeResult& b) {
                if (a.AbsDelta() != b.AbsDelta()) {
                  return a.AbsDelta() > b.AbsDelta();
                }
                return a.item < b.item;
              });
    return out;
  };

  for (int stream : {1, 2}) {
    for (ItemId q : stream == 1 ? s1 : s2) {
      det->SecondPass(stream, q);
      arrive(stream, q);
      const std::vector<ChangeResult> want = naive_top();
      const std::vector<ChangeResult> got = det->TopChanges(kTracked);
      ASSERT_EQ(got.size(), want.size()) << "stream " << stream << " at " << q;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].item, want[i].item)
            << "stream " << stream << " at " << q;
        ASSERT_EQ(got[i].count_s1, want[i].count_s1);
        ASSERT_EQ(got[i].count_s2, want[i].count_s2);
      }
    }
  }
  EXPECT_TRUE(zero_evicted) << "item 0 should have left A";
}

TEST(MaxChangeTest, AbsDeltaHelper) {
  ChangeResult r{1, 10, 3};
  EXPECT_EQ(r.Delta(), -7);
  EXPECT_EQ(r.AbsDelta(), 7);
}

// A sketch holding the signed counts of a few well-separated items, exact
// under the 5x4096 geometry.
CountSketch SketchOf(const std::vector<ItemCount>& counts) {
  auto sketch = CountSketch::Make(DefaultSketch());
  EXPECT_TRUE(sketch.ok());
  for (const ItemCount& c : counts) sketch->Add(c.item, c.count);
  return std::move(*sketch);
}

std::vector<ItemId> Items(const std::vector<ItemCount>& ranked) {
  std::vector<ItemId> items;
  for (const ItemCount& c : ranked) items.push_back(c.item);
  return items;
}

TEST(RankByEstimateTest, TiesKeepInputOrder) {
  const CountSketch sketch = SketchOf({{5, 10}, {3, 10}, {9, 10}, {7, 40}});
  const std::vector<ItemId> candidates = {9, 3, 7, 5};
  EXPECT_EQ(Items(RankByEstimate(candidates, sketch, 4, /*absolute=*/false)),
            (std::vector<ItemId>{7, 9, 3, 5}));
  const std::vector<ItemId> reversed = {5, 7, 3, 9};
  EXPECT_EQ(Items(RankByEstimate(reversed, sketch, 4, /*absolute=*/false)),
            (std::vector<ItemId>{7, 5, 3, 9}));
}

TEST(RankByEstimateTest, AbsoluteModeRanksByMagnitude) {
  const CountSketch sketch = SketchOf({{1, 50}, {2, -80}, {3, 20}, {4, -50}});
  const std::vector<ItemId> candidates = {1, 2, 3, 4};
  EXPECT_EQ(RankByEstimate(candidates, sketch, 4, /*absolute=*/true),
            (std::vector<ItemCount>{{2, -80}, {1, 50}, {4, -50}, {3, 20}}));
  EXPECT_EQ(RankByEstimate(candidates, sketch, 4, /*absolute=*/false),
            (std::vector<ItemCount>{{1, 50}, {3, 20}, {4, -50}, {2, -80}}));
}

TEST(RankByEstimateTest, KBeyondTheSlateReturnsTheWholeSlate) {
  const CountSketch sketch = SketchOf({{1, 5}, {2, 9}, {3, 7}});
  const std::vector<ItemId> candidates = {1, 2, 3};
  EXPECT_EQ(Items(RankByEstimate(candidates, sketch, 2, /*absolute=*/false)),
            (std::vector<ItemId>{2, 3}));
  for (size_t k : {size_t{3}, size_t{100}, std::numeric_limits<size_t>::max()}) {
    EXPECT_EQ(Items(RankByEstimate(candidates, sketch, k, /*absolute=*/false)),
              (std::vector<ItemId>{2, 3, 1}))
        << "k " << k;
  }
  EXPECT_TRUE(RankByEstimate({}, sketch, 5, /*absolute=*/false).empty());
}

TEST(RankByEstimateTest, EpochMaxChangeRanksTheDifference) {
  const CountSketch marked = SketchOf({{1, 100}, {2, 30}, {3, 60}});
  const CountSketch current = SketchOf({{1, 110}, {2, 90}, {3, 10}, {4, 5}});
  const std::vector<ItemId> candidates = {1, 2, 3, 4};

  auto unmarked = EpochMaxChange(current, nullptr, candidates, 3);
  ASSERT_TRUE(unmarked.ok());
  EXPECT_EQ(*unmarked,
            RankByEstimate(candidates, current, 3, /*absolute=*/true));

  auto changes = EpochMaxChange(current, &marked, candidates, 3);
  ASSERT_TRUE(changes.ok());
  EXPECT_EQ(*changes,
            (std::vector<ItemCount>{{2, 60}, {3, -50}, {1, 10}}));

  CountSketchParams other = DefaultSketch();
  other.seed += 1;
  auto incompatible = CountSketch::Make(other);
  ASSERT_TRUE(incompatible.ok());
  EXPECT_FALSE(EpochMaxChange(current, &*incompatible, candidates, 3).ok());
}

// EstimateDifference is Subtract-then-Estimate without the copy: identical
// answers at every depth from 1 to 8 (odd and even medians), under both
// estimators, and where current - marked wraps around int64.
TEST(RankByEstimateTest, EstimateDifferenceEqualsSubtractThenEstimate) {
  constexpr ItemId kHeavy = 123456789;
  // 1000 below the limit: the small weights below stay inside int64 on each
  // sketch, while the difference of the heavy item's cells wraps.
  constexpr Count kNearMax = std::numeric_limits<Count>::max() - 1000;
  for (size_t depth = 1; depth <= 8; ++depth) {
    for (const Estimator estimator : {Estimator::kMedian, Estimator::kMean}) {
      CountSketchParams p;
      p.depth = depth;
      p.width = 64;
      p.seed = 40 + depth;
      p.estimator = estimator;
      auto current = CountSketch::Make(p);
      auto marked = CountSketch::Make(p);
      ASSERT_TRUE(current.ok() && marked.ok());
      current->Add(kHeavy, kNearMax);
      marked->Add(kHeavy, -kNearMax);
      for (ItemId q = 1; q <= 200; ++q) current->Add(q, 1);
      for (ItemId q = 100; q <= 300; ++q) marked->Add(q, 1);

      CountSketch delta = *current;
      ASSERT_TRUE(delta.Subtract(*marked).ok());
      std::vector<ItemId> candidates = {kHeavy};
      for (ItemId q = 1; q <= 400; ++q) candidates.push_back(q);
      for (const ItemId q : candidates) {
        ASSERT_EQ(current->EstimateDifference(q, *marked), delta.Estimate(q))
            << "depth " << depth << " mean "
            << (estimator == Estimator::kMean) << " item " << q;
      }
      auto changes = EpochMaxChange(*current, &*marked, candidates, 50);
      ASSERT_TRUE(changes.ok());
      EXPECT_EQ(*changes,
                RankByEstimate(candidates, delta, 50, /*absolute=*/true));
    }
  }
}

}  // namespace
}  // namespace streamfreq
