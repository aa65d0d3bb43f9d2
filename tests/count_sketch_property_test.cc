// Property-style sweeps over Count-Sketch parameters: the paper's error
// bound (Lemma 3-5), variance scaling (Lemma 1-2), and sketch linearity,
// checked across widths, depths, skews, and hash families.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/count_sketch.h"
#include "stream/exact_counter.h"
#include "stream/zipf.h"

namespace streamfreq {
namespace {

struct SketchCase {
  size_t depth;
  size_t width;
  double z;
  HashFamily family;
};

std::string CaseName(const ::testing::TestParamInfo<SketchCase>& info) {
  const auto& c = info.param;
  const char* fam = c.family == HashFamily::kCarterWegman    ? "CW"
                    : c.family == HashFamily::kMultiplyShift ? "MS"
                                                             : "TAB";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "d%zu_b%zu_z%dp%02d_%s", c.depth, c.width,
                static_cast<int>(c.z),
                static_cast<int>(c.z * 100) % 100, fam);
  return buf;
}

class CountSketchPropertyTest : public ::testing::TestWithParam<SketchCase> {
 protected:
  static constexpr uint64_t kUniverse = 2000;
  static constexpr uint64_t kStreamLen = 100000;
  static constexpr size_t kK = 20;
};

// Paper Lemma 3-4: for the top-k items, |estimate - truth| <= 8 * gamma
// with gamma = sqrt(F2^{>k} / b), with probability 1 - delta. We check all
// top-k items and allow one failure out of k to keep flake probability
// negligible while still rejecting broken implementations.
TEST_P(CountSketchPropertyTest, ErrorWithinEightGammaForTopK) {
  const SketchCase& c = GetParam();
  auto gen = ZipfGenerator::Make(kUniverse, c.z, 1234);
  ASSERT_TRUE(gen.ok());
  const Stream stream = gen->Take(kStreamLen);
  ExactCounter oracle;
  oracle.AddAll(stream);

  CountSketchParams p;
  p.depth = c.depth;
  p.width = c.width;
  p.seed = 987;
  p.family = c.family;
  auto sketch = CountSketch::Make(p);
  ASSERT_TRUE(sketch.ok());
  for (ItemId q : stream) sketch->Add(q);

  const double gamma = oracle.Gamma(kK, c.width);
  size_t violations = 0;
  for (const ItemCount& ic : oracle.TopK(kK)) {
    const double err = std::abs(
        static_cast<double>(sketch->Estimate(ic.item) - ic.count));
    if (err > 8.0 * gamma + 1.0) ++violations;  // +1 absorbs median rounding
  }
  EXPECT_LE(violations, 1u) << "gamma=" << gamma;
}

// Linearity: sketching S1 then S2 equals merging independent sketches, and
// subtracting recovers the delta sketch, for every parameterization.
TEST_P(CountSketchPropertyTest, LinearityHolds) {
  const SketchCase& c = GetParam();
  CountSketchParams p;
  p.depth = c.depth;
  p.width = c.width;
  p.seed = 55;
  p.family = c.family;

  auto gen = ZipfGenerator::Make(500, c.z, 8);
  ASSERT_TRUE(gen.ok());
  const Stream s1 = gen->Take(5000);
  const Stream s2 = gen->Take(5000);

  auto a = CountSketch::Make(p);
  auto b = CountSketch::Make(p);
  auto both = CountSketch::Make(p);
  ASSERT_TRUE(a.ok() && b.ok() && both.ok());
  for (ItemId q : s1) {
    a->Add(q);
    both->Add(q);
  }
  for (ItemId q : s2) {
    b->Add(q);
    both->Add(q);
  }
  ASSERT_TRUE(a->Merge(*b).ok());
  for (size_t row = 0; row < p.depth; ++row) {
    for (size_t col = 0; col < p.width; col += 7) {
      ASSERT_EQ(a->CounterAt(row, col), both->CounterAt(row, col));
    }
  }
  // Subtract b back out: a - b == sketch(s1).
  ASSERT_TRUE(a->Subtract(*b).ok());
  auto only_s1 = CountSketch::Make(p);
  ASSERT_TRUE(only_s1.ok());
  for (ItemId q : s1) only_s1->Add(q);
  for (size_t row = 0; row < p.depth; ++row) {
    for (size_t col = 0; col < p.width; col += 7) {
      ASSERT_EQ(a->CounterAt(row, col), only_s1->CounterAt(row, col));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CountSketchPropertyTest,
    ::testing::Values(
        SketchCase{3, 256, 1.0, HashFamily::kCarterWegman},
        SketchCase{5, 256, 1.0, HashFamily::kCarterWegman},
        SketchCase{7, 1024, 1.0, HashFamily::kCarterWegman},
        SketchCase{5, 1024, 0.5, HashFamily::kCarterWegman},
        SketchCase{5, 1024, 1.5, HashFamily::kCarterWegman},
        SketchCase{5, 4096, 0.8, HashFamily::kCarterWegman},
        SketchCase{5, 1024, 1.0, HashFamily::kMultiplyShift},
        SketchCase{5, 1024, 1.0, HashFamily::kTabulation},
        SketchCase{4, 512, 1.2, HashFamily::kCarterWegman},
        SketchCase{6, 2048, 0.7, HashFamily::kTabulation}),
    CaseName);

// Variance scaling (Lemma 1-2): quadrupling b should roughly halve the
// root-mean-square error of single-row estimates (depth-1 sketches, whose
// Estimate is their one row estimate).
TEST(CountSketchVarianceTest, RmseHalvesWhenWidthQuadruples) {
  auto gen = ZipfGenerator::Make(2000, 1.0, 77);
  ASSERT_TRUE(gen.ok());
  const Stream stream = gen->Take(100000);
  ExactCounter oracle;
  oracle.AddAll(stream);

  auto rmse_at_width = [&](size_t width) {
    double se = 0.0;
    int samples = 0;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      CountSketchParams p;
      p.depth = 1;
      p.width = width;
      p.seed = seed * 7919;
      auto s = CountSketch::Make(p);
      EXPECT_TRUE(s.ok());
      for (ItemId q : stream) s->Add(q);
      for (uint64_t rank = 30; rank < 50; ++rank) {
        const ItemId item = gen->IdForRank(rank);
        const double err = static_cast<double>(
            s->Estimate(item) - oracle.CountOf(item));
        se += err * err;
        ++samples;
      }
    }
    return std::sqrt(se / samples);
  };

  const double rmse_small = rmse_at_width(128);
  const double rmse_large = rmse_at_width(512);
  EXPECT_LT(rmse_large, rmse_small * 0.75)
      << "variance must fall with width (got " << rmse_small << " -> "
      << rmse_large << ")";
}

// Depth concentration (Lemma 3): deeper sketches fail less often at fixed
// width. Count how many of the top items deviate past 8*gamma.
TEST(CountSketchDepthTest, FailuresDropWithDepth) {
  auto gen = ZipfGenerator::Make(2000, 1.0, 99);
  ASSERT_TRUE(gen.ok());
  const Stream stream = gen->Take(100000);
  ExactCounter oracle;
  oracle.AddAll(stream);
  constexpr size_t kWidth = 64;  // deliberately narrow: errors are common
  const double threshold = 2.0 * oracle.Gamma(0, kWidth);

  auto violation_rate = [&](size_t depth) {
    int violations = 0, total = 0;
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      CountSketchParams p;
      p.depth = depth;
      p.width = kWidth;
      p.seed = seed * 104729;
      auto s = CountSketch::Make(p);
      EXPECT_TRUE(s.ok());
      for (ItemId q : stream) s->Add(q);
      for (uint64_t rank = 1; rank <= 100; ++rank) {
        const ItemId item = gen->IdForRank(rank);
        const double err = std::abs(static_cast<double>(
            s->Estimate(item) - oracle.CountOf(item)));
        violations += err > threshold;
        ++total;
      }
    }
    return static_cast<double>(violations) / total;
  };

  const double shallow = violation_rate(1);
  const double deep = violation_rate(9);
  EXPECT_LT(deep, shallow * 0.7)
      << "median over more rows must concentrate (got " << shallow << " -> "
      << deep << ")";
}

}  // namespace
}  // namespace streamfreq
