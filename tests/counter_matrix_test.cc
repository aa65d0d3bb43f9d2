// CounterMatrix and the PageBuffer storage under it: cells (padding too)
// start zero on both the heap path and the mapped path, rows stay 64-byte
// aligned, copies are independent (a same-size copy-assignment reuses its
// storage), whole-buffer arithmetic keeps padding zero, and an allocation
// that cannot succeed is a Status.
#include "core/counter_matrix.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "util/pages.h"

namespace streamfreq {
namespace {

struct Dims {
  size_t depth;
  size_t width;
};

// Straddles both thresholds (128 KiB and 2 MiB of padded storage) with
// power-of-two and odd widths; the odd ones carry padding cells.
const std::vector<Dims>& AllDims() {
  static const std::vector<Dims> dims = {
      {3, 37},         // 1.0 KB, heap, padded
      {4, 1000},       // 32 KB, heap
      {1, 16376},      // 128 KiB - 64 B, heap
      {2, 8191},       // exactly 128 KiB once padded, mapped
      {5, 4096},       // 160 KB, mapped (the default tracker geometry)
      {5, 4097},       // mapped, padded
      {1, 262144},     // exactly 2 MiB, huge-page aligned
      {3, 100003},     // 2.4 MB, huge-page aligned, padded
      {5, 1u << 18},   // 10 MiB, huge-page aligned
  };
  return dims;
}

size_t PaddedBytes(const Dims& d) {
  const size_t stride = (d.width + 7) / 8 * 8;
  return d.depth * stride * sizeof(int64_t);
}

CounterMatrix MustMake(const Dims& d) {
  Result<CounterMatrix> m = CounterMatrix::Make(d.depth, d.width);
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  return std::move(m).ValueOrDie();
}

// Every cell of every row, padding included.
bool AllZero(const CounterMatrix& m) {
  for (size_t i = 0; i < m.depth(); ++i) {
    for (size_t j = 0; j < m.stride(); ++j) {
      if (m.Row(i)[j] != 0) return false;
    }
  }
  return true;
}

bool PaddingZero(const CounterMatrix& m) {
  for (size_t i = 0; i < m.depth(); ++i) {
    for (size_t j = m.width(); j < m.stride(); ++j) {
      if (m.Row(i)[j] != 0) return false;
    }
  }
  return true;
}

void Fill(CounterMatrix* m, int64_t base) {
  for (size_t i = 0; i < m->depth(); ++i) {
    for (size_t j = 0; j < m->width(); ++j) {
      m->At(i, j) = base + static_cast<int64_t>(i * 7 + j);
    }
  }
}

TEST(CounterMatrixTest, MakeZeroesEveryCellAtEverySize) {
  for (const Dims& d : AllDims()) {
    SCOPED_TRACE(testing::Message() << d.depth << "x" << d.width);
    const CounterMatrix m = MustMake(d);
    EXPECT_EQ(m.depth(), d.depth);
    EXPECT_EQ(m.width(), d.width);
    EXPECT_EQ(m.stride() % CounterMatrix::kLineCounters, 0u);
    EXPECT_EQ(m.AllocatedBytes(), PaddedBytes(d));
    EXPECT_TRUE(AllZero(m));
  }
}

TEST(CounterMatrixTest, RowsAreCacheLineAligned) {
  for (const Dims& d : AllDims()) {
    SCOPED_TRACE(testing::Message() << d.depth << "x" << d.width);
    const CounterMatrix m = MustMake(d);
    for (size_t i = 0; i < m.depth(); ++i) {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(m.Row(i)) % 64, 0u);
    }
  }
}

TEST(CounterMatrixTest, CopyIsIndependentAndEqual) {
  for (const Dims& d : AllDims()) {
    SCOPED_TRACE(testing::Message() << d.depth << "x" << d.width);
    CounterMatrix a = MustMake(d);
    Fill(&a, 1);
    CounterMatrix b(a);
    EXPECT_TRUE(a == b);
    EXPECT_TRUE(PaddingZero(b));
    EXPECT_EQ(b.AllocatedBytes(), a.AllocatedBytes());
    b.At(d.depth - 1, d.width - 1) += 5;
    EXPECT_FALSE(a == b);
    EXPECT_EQ(a.At(d.depth - 1, d.width - 1) + 5,
              b.At(d.depth - 1, d.width - 1));

    CounterMatrix c = MustMake(Dims{1, 8});
    c = a;
    EXPECT_TRUE(c == a);
    c.At(0, 0) = -1;
    EXPECT_NE(a.At(0, 0), -1);
  }
}

TEST(CounterMatrixTest, MoveTransfersStorage) {
  CounterMatrix a = MustMake(Dims{5, 4097});
  Fill(&a, 3);
  const CounterMatrix expected(a);
  const int64_t* row0 = a.Row(0);
  CounterMatrix b(std::move(a));
  EXPECT_EQ(b.Row(0), row0);
  EXPECT_TRUE(b == expected);
  CounterMatrix c;
  c = std::move(b);
  EXPECT_EQ(c.Row(0), row0);
  EXPECT_TRUE(c == expected);
}

TEST(CounterMatrixTest, SelfAssignmentKeepsContents) {
  for (const Dims& d : {Dims{3, 37}, Dims{5, 4096}}) {
    CounterMatrix a = MustMake(d);
    Fill(&a, 9);
    const CounterMatrix expected(a);
    CounterMatrix& alias = a;
    a = alias;
    EXPECT_TRUE(a == expected);
  }
}

TEST(CounterMatrixTest, AddAllAndSubtractAllKeepPaddingZero) {
  for (const Dims& d : AllDims()) {
    SCOPED_TRACE(testing::Message() << d.depth << "x" << d.width);
    CounterMatrix a = MustMake(d);
    CounterMatrix b = MustMake(d);
    Fill(&a, 10);
    Fill(&b, -4);
    const CounterMatrix original(a);
    a.AddAll(b);
    EXPECT_TRUE(PaddingZero(a));
    EXPECT_EQ(a.At(0, 0), 6);
    a.SubtractAll(b);
    EXPECT_TRUE(PaddingZero(a));
    EXPECT_TRUE(a == original);
    a.SubtractAll(original);
    EXPECT_TRUE(AllZero(a));
  }
}

TEST(CounterMatrixTest, ClearZeroesAfterWrites) {
  CounterMatrix m = MustMake(Dims{3, 100003});
  Fill(&m, 1);
  m.Clear();
  EXPECT_TRUE(AllZero(m));
}

TEST(PageBufferTest, ZeroedAlignedAndHugeAlignedFromTwoMiB) {
  for (const size_t bytes :
       {size_t{64}, PageBuffer::kMapThreshold - 64, PageBuffer::kMapThreshold,
        PageBuffer::kHugePageBytes - 4096, PageBuffer::kHugePageBytes,
        PageBuffer::kHugePageBytes * 3 + 4096}) {
    SCOPED_TRACE(bytes);
    Result<PageBuffer> buf = PageBuffer::Zeroed(bytes);
    ASSERT_TRUE(buf.ok()) << buf.status().ToString();
    EXPECT_EQ(buf->size(), bytes);
    const uintptr_t at = reinterpret_cast<uintptr_t>(buf->data());
    EXPECT_EQ(at % 64, 0u);
    if (bytes >= PageBuffer::kHugePageBytes) {
      EXPECT_EQ(at % PageBuffer::kHugePageBytes, 0u);
    }
    auto* p = static_cast<unsigned char*>(buf->data());
    size_t nonzero = 0;
    for (size_t i = 0; i < bytes; ++i) nonzero += p[i] != 0;
    EXPECT_EQ(nonzero, 0u);

    for (size_t i = 0; i < bytes; i += 4093) {
      p[i] = static_cast<unsigned char>(i);
    }
    Result<PageBuffer> copy = PageBuffer::CopyOf(*buf);
    ASSERT_TRUE(copy.ok());
    EXPECT_EQ(copy->size(), bytes);
    EXPECT_NE(copy->data(), buf->data());
    EXPECT_EQ(reinterpret_cast<uintptr_t>(copy->data()) % 64, 0u);
    EXPECT_EQ(std::memcmp(copy->data(), buf->data(), bytes), 0);
  }
}

TEST(PageBufferTest, EmptyBufferHoldsNothing) {
  Result<PageBuffer> buf = PageBuffer::Zeroed(0);
  ASSERT_TRUE(buf.ok());
  EXPECT_EQ(buf->size(), 0u);
  EXPECT_EQ(buf->data(), nullptr);
}

TEST(PageBufferTest, ImpossibleAllocationIsAStatus) {
  // 2^57 bytes is past any x86-64 or AArch64 user address space; the
  // largest request overflows the alignment arithmetic if not refused.
  for (const size_t bytes : {size_t{1} << 57, SIZE_MAX}) {
    SCOPED_TRACE(bytes);
    const Result<PageBuffer> buf = PageBuffer::Zeroed(bytes);
    ASSERT_FALSE(buf.ok());
    EXPECT_TRUE(buf.status().IsIoError()) << buf.status().ToString();
  }
  const Result<CounterMatrix> m = CounterMatrix::Make(1u << 20, 1ull << 34);
  ASSERT_FALSE(m.ok());
  EXPECT_TRUE(m.status().IsIoError()) << m.status().ToString();
}

}  // namespace
}  // namespace streamfreq
