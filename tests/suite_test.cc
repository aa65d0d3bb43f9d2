#include "eval/suite.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>

#include "core/count_min.h"
#include "core/count_min_topk.h"
#include "core/count_sketch.h"
#include "core/counter_matrix.h"
#include "core/top_k_tracker.h"
#include "core/tracked_set.h"
#include "eval/workload.h"

namespace streamfreq {
namespace {

SuiteSpec SmallSpec() {
  SuiteSpec spec;
  spec.space_budget_bytes = 32 * 1024;
  spec.k = 20;
  spec.seed = 3;
  spec.expected_stream_length = 100000;
  return spec;
}

TEST(SuiteTest, RejectsDegenerateSpecs) {
  SuiteSpec spec = SmallSpec();
  spec.k = 0;
  EXPECT_TRUE(
      MakeAlgorithm(AlgorithmKind::kMisraGries, spec).status().IsInvalidArgument());
  spec = SmallSpec();
  spec.space_budget_bytes = 0;
  EXPECT_TRUE(
      MakeAlgorithm(AlgorithmKind::kSpaceSaving, spec).status().IsInvalidArgument());
}

TEST(SuiteTest, DefaultSuiteHasDistinctNames) {
  auto suite = MakeDefaultSuite(SmallSpec());
  ASSERT_TRUE(suite.ok());
  EXPECT_EQ(suite->size(), 11u);
  std::unordered_set<std::string> names;
  for (const auto& algo : *suite) names.insert(algo->Name());
  EXPECT_EQ(names.size(), suite->size()) << "algorithm names must be unique";
}

TEST(SuiteTest, AllAlgorithmsRunAndStayNearBudget) {
  auto workload = MakeZipfWorkload(20000, 1.1, 100000, 5);
  ASSERT_TRUE(workload.ok());
  const SuiteSpec spec = SmallSpec();
  auto suite = MakeDefaultSuite(spec);
  ASSERT_TRUE(suite.ok());

  for (const auto& algo : *suite) {
    algo->AddAll(workload->stream);
    // Space should be within 4x of the requested budget in either
    // direction (capacity-based algorithms may not fill up).
    EXPECT_LT(algo->SpaceBytes(), spec.space_budget_bytes * 4)
        << algo->Name() << " blew the budget";
    EXPECT_FALSE(algo->Candidates(spec.k).empty())
        << algo->Name() << " returned no candidates";
  }
}

TEST(SuiteTest, AllAlgorithmsFindTheHeadOnHeavySkew) {
  // At z=1.3 the rank-1 item is unmissable; every algorithm in the suite
  // must put it in its top-5 candidates.
  auto workload = MakeZipfWorkload(10000, 1.3, 120000, 7);
  ASSERT_TRUE(workload.ok());
  const ItemId head = workload->oracle.TopK(1)[0].item;

  auto suite = MakeDefaultSuite(SmallSpec());
  ASSERT_TRUE(suite.ok());
  for (const auto& algo : *suite) {
    algo->AddAll(workload->stream);
    bool found = false;
    for (const ItemCount& ic : algo->Candidates(5)) {
      if (ic.item == head) found = true;
    }
    EXPECT_TRUE(found) << algo->Name() << " missed the rank-1 item";
  }
}

// The sketch entrants spend the budget on their sketch plus 2k tracked
// pairs at TrackedSet::kBytesPerPair (64 bytes) each: with every pair
// filled they stay within it, and one more cache line of counters per row
// would not fit.
TEST(SuiteTest, SketchEntrantsFillTheBudgetAndStayWithinIt) {
  ASSERT_EQ(TrackedSet::kBytesPerPair, 64u);
  auto workload = MakeZipfWorkload(20000, 1.0, 50000, 11);
  ASSERT_TRUE(workload.ok());
  for (const size_t budget : {size_t{8} << 10, size_t{32} << 10,
                              size_t{100000}, size_t{512} << 10}) {
    SuiteSpec spec = SmallSpec();
    spec.space_budget_bytes = budget;
    const size_t pair_bytes = 2 * spec.k * TrackedSet::kBytesPerPair;
    for (const AlgorithmKind kind :
         {AlgorithmKind::kCountSketchTopK, AlgorithmKind::kCountMinTopK,
          AlgorithmKind::kCountMinConservativeTopK}) {
      auto algo = MakeAlgorithm(kind, spec);
      ASSERT_TRUE(algo.ok()) << algo.status().ToString();
      (*algo)->AddAll(workload->stream);
      ASSERT_EQ((*algo)->Candidates(SIZE_MAX).size(), 2 * spec.k)
          << (*algo)->Name() << ": the tracked set is not full";
      EXPECT_LE((*algo)->SpaceBytes(), budget) << (*algo)->Name();

      // One more line per row, at the entrant's own accounting, overflows.
      size_t width = 0;
      size_t wider_bytes = 0;
      if (const auto* cs = dynamic_cast<const CountSketchTopK*>(algo->get())) {
        CountSketchParams p = cs->sketch().params();
        width = p.width;
        p.width += CounterMatrix::kLineCounters;
        auto wider = CountSketch::Make(p);
        ASSERT_TRUE(wider.ok());
        wider_bytes = wider->SpaceBytes();
      } else {
        const auto* cm = dynamic_cast<const CountMinTopK*>(algo->get());
        ASSERT_NE(cm, nullptr) << (*algo)->Name();
        width = cm->sketch().width();
        CountMinParams p;
        p.depth = cm->sketch().depth();
        p.width = width + CounterMatrix::kLineCounters;
        auto wider = CountMin::Make(p);
        ASSERT_TRUE(wider.ok());
        wider_bytes = wider->SpaceBytes();
      }
      EXPECT_EQ(width % CounterMatrix::kLineCounters, 0u) << (*algo)->Name();
      EXPECT_GT(wider_bytes + pair_bytes, budget)
          << (*algo)->Name() << " at budget " << budget << ": width " << width
          << " is not the widest that fits";
    }
  }
}

TEST(SuiteTest, BiggerBudgetNeverHurtsCountSketch) {
  auto workload = MakeZipfWorkload(20000, 1.0, 150000, 9);
  ASSERT_TRUE(workload.ok());
  const auto truth = workload->oracle.TopK(20);

  auto run_with_budget = [&](size_t budget) {
    SuiteSpec spec = SmallSpec();
    spec.space_budget_bytes = budget;
    auto algo = MakeAlgorithm(AlgorithmKind::kCountSketchTopK, spec);
    EXPECT_TRUE(algo.ok());
    (*algo)->AddAll(workload->stream);
    double total_err = 0;
    for (const ItemCount& ic : truth) {
      total_err += std::abs(
          static_cast<double>((*algo)->Estimate(ic.item) - ic.count));
    }
    return total_err;
  };

  const double small_err = run_with_budget(8 * 1024);
  const double large_err = run_with_budget(512 * 1024);
  EXPECT_LE(large_err, small_err + 1.0)
      << "64x more space should not increase total error";
}

}  // namespace
}  // namespace streamfreq
