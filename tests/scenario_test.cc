// Scenario-guard tests: the qualitative claims the examples demonstrate,
// asserted so CI catches regressions the unit tests might miss.
#include <gtest/gtest.h>

#include <cmath>

#include "core/count_sketch.h"
#include "core/hierarchical_cm.h"
#include "core/phi_heavy_hitters.h"
#include "core/top_k_tracker.h"
#include "core/windowed.h"
#include "hash/random.h"

namespace streamfreq {
namespace {

// live_dashboard: after drift, the whole-stream view is stale while the
// windowed view ranks the current hero first.
TEST(ScenarioTest, RecencyModelsDivergeAfterDrift) {
  CountSketchParams base;
  base.depth = 5;
  base.width = 2048;
  base.seed = 77;
  auto whole = CountSketchTopK::Make(base, 10);
  ASSERT_TRUE(whole.ok());

  WindowedSketchParams wp;
  wp.window = 40000;
  wp.blocks = 8;
  wp.sketch = base;
  auto window = WindowedCountSketch::Make(wp);
  ASSERT_TRUE(window.ok());

  Xoshiro256 rng(5);
  for (int epoch = 0; epoch < 2; ++epoch) {
    const ItemId hero = 1001 + static_cast<ItemId>(epoch);
    for (int i = 0; i < 80000; ++i) {
      const ItemId q = rng.UniformDouble() < 0.1
                           ? hero
                           : (1u << 20) + static_cast<ItemId>(
                                              rng.UniformBelow(1u << 17));
      whole->Add(q);
      window->Add(q);
    }
  }

  // Whole-stream: both heroes similar; stale.
  const double whole_ratio =
      static_cast<double>(whole->Estimate(1002)) /
      static_cast<double>(std::max<Count>(1, whole->Estimate(1001)));
  EXPECT_LT(whole_ratio, 2.0) << "whole-stream view should not forget";
  // Window: old hero gone.
  EXPECT_GT(window->Estimate(1002), 20 * std::max<Count>(1, window->Estimate(1001)));
}

// latency_quantiles: a planted spike at one value is isolated by the
// dyadic heavy-hitter descent and visible in the p999.
TEST(ScenarioTest, LatencySpikeIsolatedByDyadicDescent) {
  HierarchicalParams params;
  params.bits = 18;
  params.depth = 4;
  params.width = 2048;
  params.seed = 3;
  auto sketch = HierarchicalCountMin::Make(params);
  ASSERT_TRUE(sketch.ok());

  Xoshiro256 rng(7);
  constexpr int kN = 300000;
  constexpr uint64_t kSpike = 10000;
  for (int i = 0; i < kN; ++i) {
    if (rng.UniformDouble() < 0.005) {
      sketch->Add(kSpike);
    } else {
      const double u1 = std::max(rng.UniformDouble(), 1e-12);
      const double u2 = rng.UniformDouble();
      const double z =
          std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
      sketch->Add(static_cast<uint64_t>(
          std::clamp(std::exp(6.0 + 0.8 * z), 1.0, 262143.0)));
    }
  }

  const auto hits = sketch->HeavyHitters(kN / 400);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].key, kSpike) << "spike must be the top heavy bucket";

  const uint64_t p999 = sketch->KeyAtRank(kN * 999 / 1000);
  EXPECT_NEAR(static_cast<double>(p999), static_cast<double>(kSpike), 500.0)
      << "the spike should pin the p999";
}

// network_heavy_hitters: the phi facade never misses an elephant and the
// ApproxTop verdict holds for a properly sized Count-Sketch.
TEST(ScenarioTest, ElephantFlowsAlwaysReported) {
  auto hh = PhiHeavyHitters::Make(0.02);
  ASSERT_TRUE(hh.ok());
  Xoshiro256 rng(11);
  // 3 elephants at ~5% each, mice fill the rest.
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.UniformDouble();
    if (u < 0.05) {
      hh->Add(1);
    } else if (u < 0.10) {
      hh->Add(2);
    } else if (u < 0.15) {
      hh->Add(3);
    } else {
      hh->Add(1000 + rng.UniformBelow(50000));
    }
  }
  bool found1 = false, found2 = false, found3 = false;
  for (const PhiHeavyHitter& r : hh->GuaranteedOnly()) {
    found1 |= r.item == 1;
    found2 |= r.item == 2;
    found3 |= r.item == 3;
  }
  EXPECT_TRUE(found1 && found2 && found3)
      << "every 5% elephant must be in the guaranteed list at phi=2%";
}

}  // namespace
}  // namespace streamfreq
