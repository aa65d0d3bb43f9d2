// The util/frame.h codec and the three formats built on it: RPC frames
// (DecodeFrame), journal records (ReplayWalSegments) and blob files
// (ReadBlobFileVerified). One corruption matrix runs over all three and
// expects each format's own verdict: Corruption for a frame or a blob
// file, a torn-tail stop for the journal. Golden bytes pin the encodings
// so that "the bytes did not change" is a test, not a one-off diff.
#include "util/frame.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/sketch_io.h"
#include "server/protocol.h"
#include "server/snapshotter.h"
#include "server/wal.h"
#include "util/crc32.h"

namespace streamfreq {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/frame_test_" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

std::string Hex(const std::string& bytes) {
  std::string out;
  char digits[3];
  for (const unsigned char c : bytes) {
    std::snprintf(digits, sizeof(digits), "%02x", c);
    out += digits;
  }
  return out;
}

// ---------------------------------------------------------------------------
// The codec itself.
// ---------------------------------------------------------------------------

constexpr uint64_t kTestMagic = 0x0123456789ABCDEFULL;

TEST(FrameCodecTest, EncodesInPlaceBehindExistingBytes) {
  std::string out = "prefix";
  const size_t start = frame::Begin(&out);
  EXPECT_EQ(start, 6u);
  EXPECT_EQ(out.size(), 6u + frame::kHeaderSize);
  out += "payload";
  frame::Finish(&out, start, kTestMagic);
  EXPECT_EQ(out.substr(0, 6), "prefix");

  std::string appended = "prefix";
  frame::Append(&appended, kTestMagic, "payload");
  EXPECT_EQ(out, appended);

  auto payload = frame::Decode(std::string_view(out).substr(start),
                               kTestMagic, 1024);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_EQ(*payload, "payload");
  EXPECT_EQ(payload->data(), out.data() + start + frame::kHeaderSize);
}

// The CRC runs across the pieces in order, so any split of a payload (empty
// pieces and no pieces at all included) gives Append's header.
TEST(FrameCodecTest, HeaderOverPiecesMatchesAppend) {
  const std::string payload = "the payload, split at every byte";
  for (size_t cut = 0; cut <= payload.size(); ++cut) {
    const std::string_view whole(payload);
    const std::vector<std::string_view> pieces = {
        whole.substr(0, cut), "", whole.substr(cut)};
    const std::array<char, frame::kHeaderSize> header =
        frame::HeaderFor(kTestMagic, pieces);
    std::string appended;
    frame::Append(&appended, kTestMagic, payload);
    EXPECT_EQ(std::string(header.data(), header.size()),
              appended.substr(0, frame::kHeaderSize))
        << "cut at " << cut;
  }
  std::string empty;
  frame::Append(&empty, kTestMagic, "");
  const std::array<char, frame::kHeaderSize> none =
      frame::HeaderFor(kTestMagic, {});
  EXPECT_EQ(std::string(none.data(), none.size()), empty);
}

TEST(FrameCodecTest, DecodePrefixLeavesTheRestForTheCaller) {
  std::string stream;
  frame::Append(&stream, kTestMagic, "one");
  frame::Append(&stream, kTestMagic, "two!");
  auto first = frame::DecodePrefix(stream, kTestMagic, 1024);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, "one");
  const size_t next = frame::kHeaderSize + first->size();
  auto second = frame::DecodePrefix(std::string_view(stream).substr(next),
                                    kTestMagic, 1024);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, "two!");
  // The whole-buffer decoder refuses the second frame as trailing bytes.
  EXPECT_TRUE(frame::Decode(stream, kTestMagic, 1024).status().IsCorruption());
}

TEST(FrameCodecTest, LengthBoundIsCheckedBeforeThePayload) {
  std::string out;
  frame::Append(&out, kTestMagic, std::string(65, 'x'));
  EXPECT_TRUE(frame::Decode(out, kTestMagic, 65).ok());
  EXPECT_TRUE(frame::Decode(out, kTestMagic, 64).status().IsCorruption());
  EXPECT_TRUE(frame::ParseHeader(out, kTestMagic, 64).status().IsCorruption());
  EXPECT_TRUE(
      frame::ParseHeader(out, kTestMagic + 1, 65).status().IsCorruption());
  auto header = frame::ParseHeader(out, kTestMagic, 65);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->payload_len, 65u);
  EXPECT_TRUE(frame::VerifyPayload(*header, std::string(65, 'x')).ok());
  EXPECT_TRUE(
      frame::VerifyPayload(*header, std::string(65, 'y')).IsCorruption());
}

// ---------------------------------------------------------------------------
// One corruption matrix over the three formats.
// ---------------------------------------------------------------------------

enum class Format { kRpcFrame, kWalRecord, kBlobFile };

// What a format's reader made of a (possibly damaged) one-frame input.
enum class Verdict {
  kIntact,          // the whole frame decoded
  kRejected,        // Corruption (frame, blob) / torn tail at byte 0 (WAL)
  kEmpty,           // WAL only: an empty journal
  kIntactThenTorn,  // WAL only: the record applied, the rest is a torn tail
  kUnexpected,      // anything else: a wrong status code or a partial read
};

const char* FormatName(Format format) {
  switch (format) {
    case Format::kRpcFrame:
      return "RpcFrame";
    case Format::kWalRecord:
      return "WalRecord";
    case Format::kBlobFile:
      return "BlobFile";
  }
  return "unknown";
}

class FrameFormatTest : public ::testing::TestWithParam<Format> {
 protected:
  void SetUp() override {
    path_ = TempPath(FormatName(GetParam()));
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  // One intact frame of the format, as it appears on the wire or on disk.
  std::string Encode() {
    switch (GetParam()) {
      case Format::kRpcFrame:
        return EncodeFrame("corruption matrix payload");
      case Format::kWalRecord: {
        auto wal = WalWriter::Open(path_, WalFsync::kNever);
        EXPECT_TRUE(wal.ok());
        EXPECT_TRUE(wal->Append(1, std::vector<ItemId>{7, 8, 9}).ok());
        break;
      }
      case Format::kBlobFile:
        EXPECT_TRUE(WriteBlobFileAtomic(path_, kSketchFileMagic,
                                        std::vector<std::string_view>{
                                            "blob payload ", "bytes"})
                        .ok());
        break;
    }
    return ReadFileBytes(path_);
  }

  Verdict Read(const std::string& bytes) {
    switch (GetParam()) {
      case Format::kRpcFrame: {
        const Status status = DecodeFrame(bytes).status();
        if (status.ok()) return Verdict::kIntact;
        return status.IsCorruption() ? Verdict::kRejected
                                     : Verdict::kUnexpected;
      }
      case Format::kWalRecord: {
        WriteFileBytes(path_, bytes);
        auto stats = ReplayWalSegments(
            std::span<const std::string>(&path_, 1), 0,
            [](uint64_t, std::span<const ItemId>) { return Status::OK(); });
        if (!stats.ok()) return Verdict::kUnexpected;
        if (stats->records_applied == 0 && !stats->torn_tail) {
          return bytes.empty() ? Verdict::kEmpty : Verdict::kUnexpected;
        }
        if (stats->records_applied == 0 &&
            stats->discarded_bytes == bytes.size()) {
          return Verdict::kRejected;
        }
        if (stats->records_applied == 1) {
          return stats->torn_tail ? Verdict::kIntactThenTorn
                                  : Verdict::kIntact;
        }
        return Verdict::kUnexpected;
      }
      case Format::kBlobFile: {
        WriteFileBytes(path_, bytes);
        const Status status =
            ReadBlobFileVerified(path_, kSketchFileMagic).status();
        if (status.ok()) return Verdict::kIntact;
        return status.IsCorruption() ? Verdict::kRejected
                                     : Verdict::kUnexpected;
      }
    }
    return Verdict::kUnexpected;
  }

  std::string path_;
};

TEST_P(FrameFormatTest, IntactFrameDecodes) {
  const std::string bytes = Encode();
  ASSERT_GT(bytes.size(), frame::kHeaderSize);
  EXPECT_EQ(Read(bytes), Verdict::kIntact);
}

TEST_P(FrameFormatTest, EveryTruncationBoundary) {
  const std::string bytes = Encode();
  // An empty journal is a journal with nothing past the snapshot; an empty
  // frame or blob file is damage.
  EXPECT_EQ(Read(""), GetParam() == Format::kWalRecord ? Verdict::kEmpty
                                                       : Verdict::kRejected);
  for (size_t len = 1; len < bytes.size(); ++len) {
    EXPECT_EQ(Read(bytes.substr(0, len)), Verdict::kRejected)
        << "prefix of " << len << " bytes";
  }
}

TEST_P(FrameFormatTest, EveryHeaderBitFlip) {
  const std::string bytes = Encode();
  for (size_t byte = 0; byte < frame::kHeaderSize; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = bytes;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
      EXPECT_EQ(Read(damaged), Verdict::kRejected)
          << "flip at header byte " << byte << " bit " << bit;
    }
  }
}

TEST_P(FrameFormatTest, PayloadBitFlip) {
  std::string damaged = Encode();
  damaged[frame::kHeaderSize + 3] ^= 0x10;
  EXPECT_EQ(Read(damaged), Verdict::kRejected);
}

TEST_P(FrameFormatTest, TrailingBytes) {
  // A frame or blob with bytes after it is damage; in a journal the intact
  // record still applies and the extra bytes are a torn tail.
  EXPECT_EQ(Read(Encode() + "x"), GetParam() == Format::kWalRecord
                                      ? Verdict::kIntactThenTorn
                                      : Verdict::kRejected);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, FrameFormatTest,
                         ::testing::Values(Format::kRpcFrame,
                                           Format::kWalRecord,
                                           Format::kBlobFile),
                         [](const ::testing::TestParamInfo<Format>& info) {
                           return std::string(FormatName(info.param));
                         });

// ---------------------------------------------------------------------------
// Golden bytes. Each hex string is an encoding written before the formats
// shared one codec; a change here is a wire or file format break.
// ---------------------------------------------------------------------------

TEST(FrameGoldenTest, RpcFrame) {
  // "SFQRPC01" | len 6 | masked CRC | "golden"
  EXPECT_EQ(Hex(EncodeFrame("golden")),
            "5346515250433031"
            "0600000000000000"
            "ae6fd9e4"
            "676f6c64656e");
}

TEST(FrameGoldenTest, WalRecord) {
  const std::string path = TempPath("golden_wal");
  std::filesystem::remove(path);
  {
    auto wal = WalWriter::Open(path, WalFsync::kNever);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(1, std::vector<ItemId>{42}).ok());
  }
  // "SFQWAL01" | len 24 | masked CRC | seqno 1 | count 1 | item 42
  EXPECT_EQ(Hex(ReadFileBytes(path)),
            "53465157414c3031"
            "1800000000000000"
            "cf0ea913"
            "0100000000000000"
            "0100000000000000"
            "2a00000000000000");
  std::filesystem::remove(path);
}

TEST(FrameGoldenTest, SnapshotHeader) {
  const std::string dir = TempPath("golden_tenant");
  std::filesystem::remove_all(dir);
  CountSketchParams params;
  params.depth = 2;
  params.width = 8;
  params.seed = 3;
  TenantSpec spec;
  spec.depth = 2;
  spec.width = 8;
  spec.seed = 3;
  spec.tracked = 4;
  ASSERT_TRUE(
      TenantStore::Create(dir, spec, params, WalFsync::kNever, 0).ok());
  const std::string snapshot =
      ReadFileBytes(TenantStore::SnapshotPath(dir));
  ASSERT_EQ(snapshot.size(), 372u);
  // kSnapshotMagic (its bytes spell "SQQSNP01") | len 352 | masked CRC
  EXPECT_EQ(Hex(snapshot.substr(0, frame::kHeaderSize)),
            "535151534e503031"
            "6001000000000000"
            "1225bd8e");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace streamfreq
