#include "core/count_min.h"

#include <gtest/gtest.h>

#include "stream/exact_counter.h"
#include "stream/zipf.h"

namespace streamfreq {
namespace {

CountMinParams SmallParams() {
  CountMinParams p;
  p.depth = 4;
  p.width = 256;
  p.seed = 11;
  return p;
}

TEST(CountMinTest, RejectsBadParams) {
  CountMinParams p = SmallParams();
  p.depth = 0;
  EXPECT_TRUE(CountMin::Make(p).status().IsInvalidArgument());
  p = SmallParams();
  p.width = 0;
  EXPECT_TRUE(CountMin::Make(p).status().IsInvalidArgument());
}

TEST(CountMinTest, UnallocatableDimensionsAreAnError) {
  CountMinParams p = SmallParams();
  p.depth = 1u << 20;
  p.width = 1ull << 34;
  const Result<CountMin> s = CountMin::Make(p);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.status().IsIoError()) << s.status().ToString();
}

TEST(CountMinTest, SingleItemExact) {
  auto s = CountMin::Make(SmallParams());
  ASSERT_TRUE(s.ok());
  s->Add(5, 42);
  EXPECT_EQ(s->Estimate(5), 42);
  EXPECT_EQ(s->Estimate(6), 0);
}

TEST(CountMinTest, NeverUnderestimates) {
  auto gen = ZipfGenerator::Make(5000, 1.0, 17);
  ASSERT_TRUE(gen.ok());
  const Stream stream = gen->Take(50000);
  ExactCounter oracle;
  oracle.AddAll(stream);

  auto s = CountMin::Make(SmallParams());
  ASSERT_TRUE(s.ok());
  for (ItemId q : stream) s->Add(q);
  for (const auto& [item, count] : oracle.counts()) {
    ASSERT_GE(s->Estimate(item), count) << "CMS must overestimate";
  }
}

TEST(CountMinTest, ConservativeNeverUnderestimatesAndIsTighter) {
  auto gen = ZipfGenerator::Make(5000, 1.0, 19);
  ASSERT_TRUE(gen.ok());
  const Stream stream = gen->Take(50000);
  ExactCounter oracle;
  oracle.AddAll(stream);

  auto plain = CountMin::Make(SmallParams());
  CountMinParams cup = SmallParams();
  cup.conservative = true;
  auto cu = CountMin::Make(cup);
  ASSERT_TRUE(plain.ok() && cu.ok());
  for (ItemId q : stream) {
    plain->Add(q);
    cu->Add(q);
  }

  double plain_err = 0, cu_err = 0;
  for (const auto& [item, count] : oracle.counts()) {
    ASSERT_GE(cu->Estimate(item), count) << "CU must still overestimate";
    plain_err += static_cast<double>(plain->Estimate(item) - count);
    cu_err += static_cast<double>(cu->Estimate(item) - count);
  }
  EXPECT_LE(cu_err, plain_err) << "conservative update cannot be worse";
  EXPECT_LT(cu_err, plain_err * 0.9) << "and should be measurably better";
}

TEST(CountMinTest, ErrorBoundedByEpsN) {
  // Classic guarantee: est <= true + (e / width) * n w.h.p. Use 2e/width
  // to keep the test robust at depth 4.
  auto gen = ZipfGenerator::Make(5000, 1.0, 23);
  ASSERT_TRUE(gen.ok());
  const Stream stream = gen->Take(50000);
  ExactCounter oracle;
  oracle.AddAll(stream);
  auto s = CountMin::Make(SmallParams());
  ASSERT_TRUE(s.ok());
  for (ItemId q : stream) s->Add(q);

  const double bound =
      2.0 * 2.718281828 / 256.0 * static_cast<double>(stream.size());
  size_t violations = 0;
  for (const auto& [item, count] : oracle.counts()) {
    if (static_cast<double>(s->Estimate(item) - count) > bound) ++violations;
  }
  EXPECT_LE(violations, oracle.Distinct() / 100)
      << "more than 1% of items exceeded the eps*n bound";
}

TEST(CountMinTest, MergeMatchesUnion) {
  auto a = CountMin::Make(SmallParams());
  auto b = CountMin::Make(SmallParams());
  auto both = CountMin::Make(SmallParams());
  ASSERT_TRUE(a.ok() && b.ok() && both.ok());
  for (ItemId q = 1; q <= 100; ++q) {
    a->Add(q, 2);
    both->Add(q, 2);
  }
  for (ItemId q = 50; q <= 150; ++q) {
    b->Add(q, 3);
    both->Add(q, 3);
  }
  ASSERT_TRUE(a->Merge(*b).ok());
  for (ItemId q = 1; q <= 150; ++q) {
    EXPECT_EQ(a->Estimate(q), both->Estimate(q));
  }
}

TEST(CountMinTest, MergeRejectsIncompatibleAndConservative) {
  auto a = CountMin::Make(SmallParams());
  CountMinParams p = SmallParams();
  p.seed = 12;
  auto b = CountMin::Make(p);
  p = SmallParams();
  p.conservative = true;
  auto cu1 = CountMin::Make(p);
  auto cu2 = CountMin::Make(p);
  ASSERT_TRUE(a.ok() && b.ok() && cu1.ok() && cu2.ok());
  EXPECT_TRUE(a->Merge(*b).IsInvalidArgument());
  EXPECT_TRUE(cu1->Merge(*cu2).IsInvalidArgument())
      << "CU sketches are not linear";
}

TEST(CountMinTest, SpaceBytesCoversCounters) {
  auto s = CountMin::Make(SmallParams());
  ASSERT_TRUE(s.ok());
  EXPECT_GE(s->SpaceBytes(), 4 * 256 * sizeof(int64_t));
}

}  // namespace
}  // namespace streamfreq
