// Algebraic property sweeps: the sketch group/monoid laws that distributed
// aggregation relies on (associativity, commutativity, identity, inverse),
// checked counter-exactly across parameterizations.
#include <gtest/gtest.h>

#include "core/count_sketch.h"
#include "stream/zipf.h"

namespace streamfreq {
namespace {

struct LawCase {
  size_t depth;
  size_t width;
  HashFamily family;
};

std::string CaseName(const ::testing::TestParamInfo<LawCase>& info) {
  const char* fam = info.param.family == HashFamily::kCarterWegman    ? "CW"
                    : info.param.family == HashFamily::kMultiplyShift ? "MS"
                                                                      : "TAB";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "d%zu_b%zu_%s", info.param.depth,
                info.param.width, fam);
  return buf;
}

class SketchLawTest : public ::testing::TestWithParam<LawCase> {
 protected:
  CountSketchParams Params() const {
    CountSketchParams p;
    p.depth = GetParam().depth;
    p.width = GetParam().width;
    p.seed = 404;
    p.family = GetParam().family;
    return p;
  }

  CountSketch SketchOf(const Stream& s) const {
    auto sketch = CountSketch::Make(Params());
    EXPECT_TRUE(sketch.ok());
    for (ItemId q : s) sketch->Add(q);
    return std::move(*sketch);
  }

  static void ExpectEqualCounters(const CountSketch& a, const CountSketch& b) {
    for (size_t row = 0; row < a.depth(); ++row) {
      for (size_t col = 0; col < a.width(); ++col) {
        ASSERT_EQ(a.CounterAt(row, col), b.CounterAt(row, col))
            << "row " << row << " col " << col;
      }
    }
  }
};

TEST_P(SketchLawTest, MergeIsAssociativeAndCommutative) {
  auto gen = ZipfGenerator::Make(500, 1.0, 3);
  ASSERT_TRUE(gen.ok());
  const Stream s1 = gen->Take(3000);
  const Stream s2 = gen->Take(3000);
  const Stream s3 = gen->Take(3000);

  // (1 + 2) + 3
  CountSketch left = SketchOf(s1);
  ASSERT_TRUE(left.Merge(SketchOf(s2)).ok());
  ASSERT_TRUE(left.Merge(SketchOf(s3)).ok());
  // 1 + (2 + 3)
  CountSketch right23 = SketchOf(s2);
  ASSERT_TRUE(right23.Merge(SketchOf(s3)).ok());
  CountSketch right = SketchOf(s1);
  ASSERT_TRUE(right.Merge(right23).ok());
  ExpectEqualCounters(left, right);

  // 3 + 2 + 1 (commutativity)
  CountSketch reversed = SketchOf(s3);
  ASSERT_TRUE(reversed.Merge(SketchOf(s2)).ok());
  ASSERT_TRUE(reversed.Merge(SketchOf(s1)).ok());
  ExpectEqualCounters(left, reversed);
}

TEST_P(SketchLawTest, EmptySketchIsIdentity) {
  auto gen = ZipfGenerator::Make(500, 1.0, 5);
  ASSERT_TRUE(gen.ok());
  const Stream s = gen->Take(3000);
  CountSketch loaded = SketchOf(s);
  auto empty = CountSketch::Make(Params());
  ASSERT_TRUE(empty.ok());
  CountSketch merged = SketchOf(s);
  ASSERT_TRUE(merged.Merge(*empty).ok());
  ExpectEqualCounters(loaded, merged);
}

TEST_P(SketchLawTest, SubtractIsInverseOfMerge) {
  auto gen = ZipfGenerator::Make(500, 1.0, 7);
  ASSERT_TRUE(gen.ok());
  const Stream s1 = gen->Take(3000);
  const Stream s2 = gen->Take(3000);
  CountSketch a = SketchOf(s1);
  ASSERT_TRUE(a.Merge(SketchOf(s2)).ok());
  ASSERT_TRUE(a.Subtract(SketchOf(s2)).ok());
  ExpectEqualCounters(a, SketchOf(s1));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SketchLawTest,
    ::testing::Values(LawCase{1, 64, HashFamily::kCarterWegman},
                      LawCase{5, 256, HashFamily::kCarterWegman},
                      LawCase{4, 128, HashFamily::kMultiplyShift},
                      LawCase{3, 512, HashFamily::kTabulation}),
    CaseName);

}  // namespace
}  // namespace streamfreq
