// The flat tracked-candidate table (core/tracked_set.h) against a reference
// model, the node-based table it replaced (an unordered_map plus a
// std::set of (count, id) pairs), op by op; its capacity bound; and what
// the table and the ApproxTop tracker on top of it allocate.
#include "core/tracked_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/count_min_topk.h"
#include "core/frequent.h"
#include "core/max_change.h"
#include "core/top_k_tracker.h"
#include "counting_allocator.h"
#include "hash/random.h"
#include "stream/zipf.h"

namespace streamfreq {
namespace {

// The node-based table, kept as the model: the same API, in the
// containers the flat table replaced.
class ReferenceTrackedSet {
 public:
  explicit ReferenceTrackedSet(size_t capacity) : capacity_(capacity) {}

  std::optional<Count> CountOf(ItemId item) const {
    auto it = counts_.find(item);
    if (it == counts_.end()) return std::nullopt;
    return it->second;
  }

  bool AddIfTracked(ItemId item, Count weight) {
    auto it = counts_.find(item);
    if (it == counts_.end()) return false;
    by_count_.erase({it->second, item});
    it->second += weight;
    by_count_.insert({it->second, item});
    return true;
  }

  TrackedSet::Admission TryAdmit(ItemId item, Count count) {
    TrackedSet::Admission admission;
    if (counts_.size() == capacity_) {
      const auto min_it = by_count_.begin();
      if (count <= min_it->first) return admission;
      admission.evicted = true;
      admission.victim = min_it->second;
      counts_.erase(min_it->second);
      by_count_.erase(min_it);
    }
    counts_.emplace(item, count);
    by_count_.insert({count, item});
    admission.admitted = true;
    return admission;
  }

  std::vector<ItemCount> Top(size_t k) const {
    std::vector<ItemCount> out;
    for (const auto& [count, item] : by_count_) out.push_back({item, count});
    return RankByCount(std::move(out), k);
  }

  size_t size() const { return counts_.size(); }
  bool full() const { return counts_.size() == capacity_; }
  /// The smallest tracked count; the set must not be empty.
  Count min_count() const { return by_count_.begin()->first; }

 private:
  size_t capacity_;
  std::unordered_map<ItemId, Count> counts_;
  std::set<std::pair<Count, ItemId>> by_count_;
};

// The inverse of an odd 64-bit constant modulo 2^64 (Newton's iteration).
uint64_t InverseMod64(uint64_t odd) {
  uint64_t inv = odd;  // correct to 3 bits
  for (int i = 0; i < 5; ++i) inv *= 2 - odd * inv;
  return inv;
}

// Ids whose Fibonacci hash (id * 2^64/phi) has the top bits `home` in a
// table of 2^log2_cells index cells, so they all share one probe run.
std::vector<ItemId> IdsWithOneHome(uint64_t home, int log2_cells, size_t n) {
  const uint64_t inverse = InverseMod64(0x9E3779B97F4A7C15ULL);
  std::vector<ItemId> ids;
  for (uint64_t j = 0; j < n; ++j) {
    ids.push_back(((home << (64 - log2_cells)) + j) * inverse);
  }
  return ids;
}

// One table and its model, driven by the tracker's own step: a tracked
// item gains its weight, an untracked one is offered at a count.
struct Pair {
  TrackedSet table;
  ReferenceTrackedSet model;
};

struct Scenario {
  size_t capacity;
  std::vector<ItemId> universe;
  Count min_weight;  ///< weights, and offered counts relative to the
  Count max_weight;  ///< minimum, are drawn from [min_weight, max_weight]
};

class Driver {
 public:
  Driver(const Scenario& scenario, uint64_t seed)
      : scenario_(scenario), rng_(seed) {}

  // One random op on both sides; a fatal failure when they disagree.
  void Step(Pair* pair) {
    const ItemId item =
        scenario_.universe[rng_.UniformBelow(scenario_.universe.size())];
    const Count value = Draw();
    const bool tracked = pair->table.AddIfTracked(item, value);
    ASSERT_EQ(tracked, pair->model.AddIfTracked(item, value))
        << "AddIfTracked(" << item << ", " << value << ")";
    if (tracked) return;
    // Tracked counts drift as a random walk; offers to a full set land
    // around its minimum, so ties there and evictions stay common.
    const Count offered =
        pair->model.full() ? pair->model.min_count() + Draw() : Draw();
    const TrackedSet::Admission got = pair->table.TryAdmit(item, offered);
    const TrackedSet::Admission want = pair->model.TryAdmit(item, offered);
    ASSERT_EQ(got.admitted, want.admitted) << "TryAdmit(" << item << ")";
    ASSERT_EQ(got.evicted, want.evicted) << "TryAdmit(" << item << ")";
    if (want.evicted) {
      ASSERT_EQ(got.victim, want.victim) << "TryAdmit(" << item << ")";
      evicted_.insert(want.victim);
      ++evictions_;
    }
    if (want.admitted && evicted_.contains(item)) ++readmissions_;
  }

  void ExpectSame(const Pair& pair) const {
    for (const ItemId item : scenario_.universe) {
      ASSERT_EQ(pair.table.CountOf(item), pair.model.CountOf(item))
          << "CountOf(" << item << ")";
      ASSERT_EQ(pair.table.Contains(item), pair.model.CountOf(item).has_value());
    }
    const size_t cap = scenario_.capacity;
    for (const size_t k : {size_t{0}, size_t{1}, size_t{2}, cap / 2, cap, cap + 1}) {
      ASSERT_EQ(pair.table.Top(k), pair.model.Top(k)) << "Top(" << k << ")";
    }
    ASSERT_EQ(pair.table.SpaceBytes(),
              pair.model.size() * TrackedSet::kBytesPerPair);
  }

  size_t evictions() const { return evictions_; }
  size_t readmissions() const { return readmissions_; }

 private:
  Count Draw() {
    const uint64_t span =
        static_cast<uint64_t>(scenario_.max_weight - scenario_.min_weight) + 1;
    return scenario_.min_weight + static_cast<Count>(rng_.UniformBelow(span));
  }

  const Scenario& scenario_;
  Xoshiro256 rng_;
  std::set<ItemId> evicted_;
  size_t evictions_ = 0;
  size_t readmissions_ = 0;
};

std::vector<ItemId> SmallIds(size_t n) {
  std::vector<ItemId> ids;
  for (ItemId id = 0; id < n; ++id) ids.push_back(id);  // id 0 included
  return ids;
}

std::vector<Scenario> Scenarios() {
  std::vector<Scenario> out;
  // Capacity 1 and 2, counts in a narrow range so the minimum is tied
  // most of the time, weights of both signs.
  out.push_back({1, SmallIds(4), -2, 3});
  out.push_back({2, SmallIds(5), -2, 2});
  out.push_back({2, SmallIds(8), -1, 2});
  out.push_back({3, SmallIds(9), -3, 3});
  // Wider tables, where evicted items keep coming back.
  out.push_back({16, SmallIds(48), -4, 4});
  out.push_back({64, SmallIds(160), -6, 6});
  // Only increments, as CountSketchTopK on an insert-only stream.
  out.push_back({32, SmallIds(96), 1, 4});
  // Ids spread over the 64-bit space, including the top bit.
  std::vector<ItemId> wide;
  Xoshiro256 rng(3);
  for (int i = 0; i < 40; ++i) wide.push_back(rng());
  wide.push_back(~ItemId{0});
  wide.push_back(ItemId{1} << 63);
  out.push_back({12, wide, -3, 3});
  // Every id in one probe run of a capacity-8 table (16 cells): the run
  // starts at the last cell and wraps, so backward-shift deletion crosses
  // the end of the index.
  out.push_back({8, IdsWithOneHome(15, 4, 20), -2, 2});
  std::vector<ItemId> two_runs = IdsWithOneHome(14, 4, 10);
  for (const ItemId id : IdsWithOneHome(0, 4, 10)) two_runs.push_back(id);
  out.push_back({8, two_runs, -1, 1});
  return out;
}

TEST(TrackedSetDifferentialTest, MatchesTheReferenceModelAfterEveryOp) {
  size_t evictions = 0;
  size_t readmissions = 0;
  uint64_t seed = 1;
  for (const Scenario& scenario : Scenarios()) {
    SCOPED_TRACE("capacity " + std::to_string(scenario.capacity) + ", " +
                 std::to_string(scenario.universe.size()) + " ids");
    Driver driver(scenario, seed++);
    Pair pair{TrackedSet(scenario.capacity),
              ReferenceTrackedSet(scenario.capacity)};
    for (int op = 0; op < 3000; ++op) {
      driver.Step(&pair);
      driver.ExpectSame(pair);
      if (::testing::Test::HasFatalFailure()) return;
    }
    evictions += driver.evictions();
    readmissions += driver.readmissions();
  }
  EXPECT_GT(evictions, 1000u);
  EXPECT_GT(readmissions, 1000u) << "no evicted item came back";
}

// A copy shares nothing: after the copy, the original and the copy take
// different op sequences, and each still matches its own model.
TEST(TrackedSetDifferentialTest, ACopyEvolvesIndependently) {
  for (const Scenario& scenario : Scenarios()) {
    SCOPED_TRACE("capacity " + std::to_string(scenario.capacity));
    Driver warmup(scenario, 100);
    Pair original{TrackedSet(scenario.capacity),
                  ReferenceTrackedSet(scenario.capacity)};
    for (int op = 0; op < 500; ++op) warmup.Step(&original);
    Pair copy = original;
    Driver left(scenario, 200);
    Driver right(scenario, 300);
    for (int op = 0; op < 1000; ++op) {
      left.Step(&original);
      right.Step(&copy);
      left.ExpectSame(original);
      right.ExpectSame(copy);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// The capacity a user passes (sfq topk/maxchange --tracked) is checked by
// the factories, not by the table's abort: the u32 index cells bound it.
TEST(TrackedSetCapacityTest, FactoriesRefuseCapacitiesTheIndexCannotHold) {
  CountSketchParams params;
  params.width = 64;
  for (const size_t tracked : {size_t{0}, TrackedSet::kMaxCapacity + 1}) {
    EXPECT_TRUE(CountSketchTopK::Make(params, tracked).status().IsInvalidArgument());
    EXPECT_TRUE(MaxChangeDetector::Make(params, tracked).status().IsInvalidArgument());
    CountMinParams cm;
    cm.width = 64;
    EXPECT_TRUE(CountMinTopK::Make(cm, tracked).status().IsInvalidArgument());
  }
}

// The table is one block sized at construction: TrackedSet(256) is 4 KiB
// of slots plus 2 KiB of index cells, against 8 KiB allowed.
TEST(TrackedSetAllocationTest, ATableOf256IsAtMost8KiB) {
  const size_t before = testing_alloc::NewBytes();
  const TrackedSet set(256);
  EXPECT_LE(testing_alloc::NewBytes() - before, size_t{8} << 10);
  EXPECT_EQ(set.SpaceBytes(), 0u);
}

// kBytesPerPair, the charge the budget rule uses, bounds the real bytes of
// the table for every capacity, including the ones just past a power of
// two, where the index has the most cells per pair.
TEST(TrackedSetAllocationTest, BudgetChargeBoundsTheRealBytes) {
  ASSERT_EQ(TrackedSet::kBytesPerPair, 64u);
  for (size_t capacity = 1; capacity <= 4097; ++capacity) {
    const size_t before = testing_alloc::NewBytes();
    const TrackedSet set(capacity);
    const size_t allocated = testing_alloc::NewBytes() - before;
    ASSERT_GT(allocated, 0u);
    ASSERT_LE(allocated, capacity * TrackedSet::kBytesPerPair)
        << "capacity " << capacity;
  }
}

TEST(TrackedSetAllocationTest, UpdatesAllocateNothing) {
  Scenario scenario{256, SmallIds(1024), -3, 20};
  Driver driver(scenario, 9);
  Pair pair{TrackedSet(256), ReferenceTrackedSet(256)};
  for (int op = 0; op < 5000; ++op) driver.Step(&pair);
  ASSERT_EQ(pair.table.SpaceBytes(), 256 * TrackedSet::kBytesPerPair);

  Xoshiro256 rng(10);
  const size_t before = testing_alloc::NewBytes();
  for (int op = 0; op < 100000; ++op) {
    const ItemId item = rng.UniformBelow(1024);
    const Count weight = static_cast<Count>(rng.UniformBelow(9)) - 2;
    if (!pair.table.AddIfTracked(item, weight)) pair.table.TryAdmit(item, weight);
  }
  EXPECT_EQ(testing_alloc::NewBytes() - before, 0u);
}

// The paper's tracker, filled, on the track-skewed shape (t = 5, b = 4096,
// l = 256, Zipf(1.1) over 1e5 ids): 2^20 arrivals, tracked and untracked,
// evictions included, allocate nothing.
TEST(TrackedSetAllocationTest, FilledTrackerAddTrackedAllocatesNothing) {
  CountSketchParams params;
  params.depth = 5;
  params.width = 4096;
  params.seed = 7;
  auto tracker = CountSketchTopK::Make(params, 256);
  ASSERT_TRUE(tracker.ok());
  auto zipf = ZipfGenerator::Make(100000, 1.1, 11);
  ASSERT_TRUE(zipf.ok());
  std::vector<ItemId> items(size_t{1} << 20);
  for (ItemId& item : items) item = zipf->Next();
  for (size_t i = 0; i < 4096; ++i) tracker->AddTracked(items[i]);
  ASSERT_EQ(tracker->SpaceBytes(),
            tracker->sketch().SpaceBytes() + 256 * TrackedSet::kBytesPerPair);

  size_t evictions = 0;
  const size_t before = testing_alloc::AllocatedBytes();
  for (const ItemId item : items) {
    if (tracker->AddTracked(item).evicted != 0) ++evictions;
  }
  EXPECT_EQ(testing_alloc::AllocatedBytes() - before, 0u);
  EXPECT_GT(evictions, 0u);
}

}  // namespace
}  // namespace streamfreq
