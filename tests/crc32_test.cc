#include "util/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

namespace streamfreq {
namespace crc32c {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC-32C test vectors (RFC 3720 appendix / common test suites).
  EXPECT_EQ(Value("", 0), 0x00000000U);
  const std::string num = "123456789";
  EXPECT_EQ(Value(num.data(), num.size()), 0xE3069283U);
  const std::string zeros(32, '\0');
  EXPECT_EQ(Value(zeros.data(), zeros.size()), 0x8A9136AAU);
}

// RFC 3720 appendix B.4, checked through both the dispatched Extend and the
// portable table.
TEST(Crc32cTest, Rfc3720Vectors) {
  std::string ones(32, '\xff');
  std::string ascending(32, '\0');
  std::string descending(32, '\0');
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  const std::string zeros(32, '\0');
  const struct {
    const std::string* data;
    uint32_t crc;
  } kVectors[] = {{&zeros, 0x8A9136AAU},
                  {&ones, 0x62A8AB43U},
                  {&ascending, 0x46DD794EU},
                  {&descending, 0x113FDB5CU}};
  for (const auto& v : kVectors) {
    EXPECT_EQ(Value(v.data->data(), v.data->size()), v.crc);
    EXPECT_EQ(ExtendPortable(0, v.data->data(), v.data->size()), v.crc);
  }
}

// The dispatched path (the SSE4.2 loop when the CPU has it) against the
// table oracle at every length up to 4 KB and every start alignment
// within a word, so the 8-byte body and the byte tail both meet every
// split.
TEST(Crc32cTest, HardwareMatchesTableAtEveryLengthAndAlignment) {
  std::printf("crc32c: %s\n",
              HardwareAccelerated() ? "hardware (sse4.2)" : "portable table");
  constexpr size_t kMaxLen = 4096;
  constexpr size_t kAlignments = 8;
  std::string buffer(kMaxLen + kAlignments, '\0');
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (char& c : buffer) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    c = static_cast<char>(x);
  }
  for (size_t align = 0; align < kAlignments; ++align) {
    const char* base = buffer.data() + align;
    for (size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(Extend(0, base, len), ExtendPortable(0, base, len))
          << "length " << len << " alignment " << align;
    }
  }
}

TEST(Crc32cTest, ExtendAtEverySplitMatchesWholeBuffer) {
  std::string data(1024, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 131 + 7);
  }
  const uint32_t whole = Value(data.data(), data.size());
  ASSERT_EQ(whole, ExtendPortable(0, data.data(), data.size()));
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t head = Extend(0, data.data(), split);
    ASSERT_EQ(Extend(head, data.data() + split, data.size() - split), whole)
        << "split at " << split;
  }
}

TEST(Crc32cTest, ExtendMatchesWholeBuffer) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Value(data.data(), data.size());
  uint32_t incremental = 0;
  incremental = Extend(incremental, data.data(), 10);
  incremental = Extend(incremental, data.data() + 10, data.size() - 10);
  EXPECT_EQ(incremental, whole);
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::string data(100, 'a');
  const uint32_t original = Value(data.data(), data.size());
  for (size_t byte : {0u, 50u, 99u}) {
    std::string corrupted = data;
    corrupted[byte] ^= 1;
    EXPECT_NE(Value(corrupted.data(), corrupted.size()), original);
  }
}

TEST(Crc32cTest, MaskRoundTrips) {
  for (uint32_t crc : {0x0U, 0x1U, 0xDEADBEEFU, 0xFFFFFFFFU}) {
    EXPECT_EQ(Unmask(Mask(crc)), crc);
    EXPECT_NE(Mask(crc), crc) << "mask must change the value";
  }
}

}  // namespace
}  // namespace crc32c
}  // namespace streamfreq
