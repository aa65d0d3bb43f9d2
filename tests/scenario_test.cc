// Scenario-guard tests: the qualitative claims the examples demonstrate,
// asserted so CI catches regressions the unit tests might miss.
#include <gtest/gtest.h>

#include "core/phi_heavy_hitters.h"
#include "hash/random.h"

namespace streamfreq {
namespace {

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
