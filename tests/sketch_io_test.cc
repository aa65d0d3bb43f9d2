#include "core/sketch_io.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "counting_allocator.h"
#include "server/snapshotter.h"
#include "util/bytes.h"
#include "util/failpoint.h"
#include "util/frame.h"
#include "verify/program.h"

namespace streamfreq {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

CountSketch MakeLoadedSketch() {
  CountSketchParams p;
  p.depth = 4;
  p.width = 256;
  p.seed = 99;
  auto s = CountSketch::Make(p);
  EXPECT_TRUE(s.ok());
  for (ItemId q = 1; q <= 1000; ++q) s->Add(q, static_cast<Count>(q % 31));
  return std::move(*s);
}

TEST(SketchIoTest, RoundTrip) {
  const std::string path = TempPath("sfq_sketch_roundtrip.skf");
  const CountSketch original = MakeLoadedSketch();
  ASSERT_TRUE(WriteSketchFile(path, original).ok());
  auto loaded = ReadSketchFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->CompatibleWith(original));
  for (ItemId q = 1; q <= 1000; ++q) {
    ASSERT_EQ(loaded->Estimate(q), original.Estimate(q));
  }
  std::remove(path.c_str());
}

TEST(SketchIoTest, MissingFileIsIoError) {
  EXPECT_TRUE(ReadSketchFile(TempPath("nope.skf")).status().IsIoError());
}

// A path that opens but cannot be read as a file (a directory, say a
// mistyped --sketch flag) is a clean error, not a size-driven allocation.
// A FIFO is one too, without waiting for a writer.
TEST(SketchIoTest, DirectoryIsCorruptionNotACrash) {
  const std::string dir = TempPath("sfq_sketch_dir.skf");
  std::filesystem::create_directories(dir);
  EXPECT_TRUE(ReadSketchFile(dir).status().IsCorruption());
  std::filesystem::remove(dir);

  const std::string fifo = TempPath("sfq_sketch_fifo.skf");
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  EXPECT_TRUE(ReadSketchFile(fifo).status().IsCorruption());
  std::remove(fifo.c_str());
}

TEST(SketchIoTest, FlippedPayloadBitIsCorruption) {
  const std::string path = TempPath("sfq_sketch_bitflip.skf");
  ASSERT_TRUE(WriteSketchFile(path, MakeLoadedSketch()).ok());

  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  data[data.size() / 2] ^= 0x10;  // corrupt mid-payload
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(data.data(), static_cast<std::streamsize>(data.size()));

  EXPECT_TRUE(ReadSketchFile(path).status().IsCorruption());
  std::remove(path.c_str());
}

TEST(SketchIoTest, TruncationIsCorruption) {
  const std::string path = TempPath("sfq_sketch_trunc.skf");
  ASSERT_TRUE(WriteSketchFile(path, MakeLoadedSketch()).ok());
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(data.data(), static_cast<std::streamsize>(data.size() - 100));
  EXPECT_TRUE(ReadSketchFile(path).status().IsCorruption());

  // Header-only truncation.
  std::ofstream(path, std::ios::binary | std::ios::trunc).write(data.data(), 10);
  EXPECT_TRUE(ReadSketchFile(path).status().IsCorruption());
  std::remove(path.c_str());
}

TEST(SketchIoTest, BadMagicIsCorruption) {
  const std::string path = TempPath("sfq_sketch_magic.skf");
  std::ofstream(path, std::ios::binary)
      << std::string(64, 'x');  // 64 junk bytes
  EXPECT_TRUE(ReadSketchFile(path).status().IsCorruption());
  std::remove(path.c_str());
}

// Metamorphic relation from the verify fuzz grammar: serializing the sketch
// mid-stream and continuing on the deserialized copy must be invisible —
// exact counter equality against an uninterrupted ingest, across every
// fuzz workload family.
TEST(SketchIoTest, SerializeMidStreamIsInvisible) {
  for (uint64_t index = 0; index < 4; ++index) {
    const FuzzProgram program = ProgramFromSeed(2026, index);
    auto stream = MaterializeStream(program);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();

    CountSketchParams p;
    p.depth = 5;
    p.width = 512;
    p.seed = 31;
    auto uninterrupted = CountSketch::Make(p);
    ASSERT_TRUE(uninterrupted.ok());
    for (ItemId q : *stream) uninterrupted->Add(q);

    auto first_half = CountSketch::Make(p);
    ASSERT_TRUE(first_half.ok());
    const size_t cut = stream->size() / 2;
    for (size_t i = 0; i < cut; ++i) first_half->Add((*stream)[i]);
    const std::string path = TempPath("sfq_sketch_midstream.skf");
    ASSERT_TRUE(WriteSketchFile(path, *first_half).ok());
    auto resumed = ReadSketchFile(path);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    std::remove(path.c_str());
    for (size_t i = cut; i < stream->size(); ++i) resumed->Add((*stream)[i]);

    for (size_t row = 0; row < uninterrupted->depth(); ++row) {
      for (size_t col = 0; col < uninterrupted->width(); ++col) {
        ASSERT_EQ(resumed->CounterAt(row, col),
                  uninterrupted->CounterAt(row, col))
            << "program " << index << " row " << row << " col " << col;
      }
    }
  }
}

TEST(SketchIoTest, SavedSketchStaysMergeable) {
  const std::string path = TempPath("sfq_sketch_merge.skf");
  CountSketchParams p;
  p.depth = 4;
  p.width = 128;
  p.seed = 7;
  auto a = CountSketch::Make(p);
  ASSERT_TRUE(a.ok());
  a->Add(42, 10);
  ASSERT_TRUE(WriteSketchFile(path, *a).ok());

  auto b = ReadSketchFile(path);
  ASSERT_TRUE(b.ok());
  b->Add(42, 5);
  ASSERT_TRUE(a->Merge(*b).ok());
  EXPECT_EQ(a->Estimate(42), 25);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Corruption matrix + crash-consistency. Every adversarial mutation of a
// valid file must come back as a clean Corruption status — no crash, no UB
// (this file runs under the ASan/UBSan step of scripts/check.sh).

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.flush();
  EXPECT_TRUE(static_cast<bool>(out)) << path;
}

TEST(SketchIoTest, CorruptionMatrixTruncationAtEveryFieldBoundary) {
  const std::string path = TempPath("sfq_sketch_matrix_trunc.skf");
  ASSERT_TRUE(WriteSketchFile(path, MakeLoadedSketch()).ok());
  const std::string valid = ReadAll(path);
  ASSERT_GT(valid.size(), 20u);

  // Field boundaries of the header (magic | length | crc | payload) plus
  // mid-field cuts and the one-byte-short file.
  const size_t cuts[] = {0, 1, 7, 8, 12, 15, 16, 19, 20, 21,
                         20 + (valid.size() - 20) / 2, valid.size() - 1};
  for (const size_t cut : cuts) {
    WriteAll(path, valid.substr(0, cut));
    const Status s = ReadSketchFile(path).status();
    EXPECT_TRUE(s.IsCorruption()) << "cut at " << cut << ": " << s.ToString();
  }
  std::remove(path.c_str());
}

TEST(SketchIoTest, CorruptionMatrixSingleBitFlips) {
  const std::string path = TempPath("sfq_sketch_matrix_bits.skf");
  ASSERT_TRUE(WriteSketchFile(path, MakeLoadedSketch()).ok());
  const std::string valid = ReadAll(path);

  // Every bit of the header, then a stride through the payload. A flip in
  // the length field may masquerade as truncation or an implausible length;
  // all of those are Corruption too, never a crash.
  std::vector<size_t> byte_positions;
  for (size_t i = 0; i < 20; ++i) byte_positions.push_back(i);
  for (size_t i = 20; i < valid.size(); i += 37) byte_positions.push_back(i);
  for (const size_t pos : byte_positions) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = valid;
      mutated[pos] = static_cast<char>(
          static_cast<unsigned char>(mutated[pos]) ^ (1u << bit));
      WriteAll(path, mutated);
      const Status s = ReadSketchFile(path).status();
      EXPECT_TRUE(s.IsCorruption())
          << "flip byte " << pos << " bit " << bit << ": " << s.ToString();
    }
  }
  std::remove(path.c_str());
}

TEST(SketchIoTest, CorruptionMatrixWrongMagicAndVersion) {
  const std::string path = TempPath("sfq_sketch_matrix_magic.skf");
  ASSERT_TRUE(WriteSketchFile(path, MakeLoadedSketch()).ok());
  const std::string valid = ReadAll(path);

  // A future-version tag (last magic byte bumped) must be rejected, as must
  // an entirely alien magic.
  std::string version_bump = valid;
  version_bump[7] = static_cast<char>(version_bump[7] + 1);
  WriteAll(path, version_bump);
  EXPECT_TRUE(ReadSketchFile(path).status().IsCorruption());

  std::string alien = valid;
  for (size_t i = 0; i < 8; ++i) alien[i] = 'Z';
  WriteAll(path, alien);
  EXPECT_TRUE(ReadSketchFile(path).status().IsCorruption());
  std::remove(path.c_str());
}

TEST(SketchIoTest, TrailingBytesAreCorruption) {
  const std::string path = TempPath("sfq_sketch_matrix_trailing.skf");
  ASSERT_TRUE(WriteSketchFile(path, MakeLoadedSketch()).ok());
  WriteAll(path, ReadAll(path) + "junk");
  EXPECT_TRUE(ReadSketchFile(path).status().IsCorruption());
  std::remove(path.c_str());
}

TEST(SketchIoTest, AtomicWriteLeavesNoTempFileBehind) {
  const std::string path = TempPath("sfq_sketch_atomic.skf");
  ASSERT_TRUE(WriteSketchFile(path, MakeLoadedSketch()).ok());
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(static_cast<bool>(tmp)) << "temp file must be renamed away";
  std::remove(path.c_str());
}

// Crash consistency: a save that dies before the rename (injected) must
// leave the previous checkpoint byte-for-byte intact.
TEST(SketchIoTest, FailedRenameLeavesPreviousCheckpointIntact) {
  const std::string path = TempPath("sfq_sketch_crash.skf");
  const CountSketch original = MakeLoadedSketch();
  ASSERT_TRUE(WriteSketchFile(path, original).ok());
  const std::string before = ReadAll(path);

  {
    ScopedFailpoints fp("sketch_io.rename=error*1", 3);
    ASSERT_TRUE(fp.status().ok());
    CountSketchParams p;
    p.depth = 4;
    p.width = 256;
    p.seed = 99;
    auto newer = CountSketch::Make(p);
    ASSERT_TRUE(newer.ok());
    newer->Add(7, 7);
    EXPECT_TRUE(WriteSketchFile(path, *newer).IsIoError());
  }

  EXPECT_EQ(ReadAll(path), before);
  auto loaded = ReadSketchFile(path);
  ASSERT_TRUE(loaded.ok());
  for (ItemId q = 1; q <= 1000; ++q) {
    ASSERT_EQ(loaded->Estimate(q), original.Estimate(q));
  }
  std::remove(path.c_str());
}

// A torn write (injected) bypasses the temp+rename protocol by design; the
// reader must then catch the prefix via its truncation/CRC checks.
TEST(SketchIoTest, InjectedTornWriteIsCaughtOnRead) {
  const std::string path = TempPath("sfq_sketch_torn.skf");
  {
    ScopedFailpoints fp("sketch_io.write=torn*1", 5);
    ASSERT_TRUE(fp.status().ok());
    EXPECT_TRUE(WriteSketchFile(path, MakeLoadedSketch()).IsIoError());
  }
  EXPECT_TRUE(ReadSketchFile(path).status().IsCorruption());
  std::remove(path.c_str());
}

TEST(SketchIoTest, InjectedReadFaultsSurfaceAsStatuses) {
  const std::string path = TempPath("sfq_sketch_readfp.skf");
  ASSERT_TRUE(WriteSketchFile(path, MakeLoadedSketch()).ok());
  {
    ScopedFailpoints fp("sketch_io.read=error*1", 7);
    ASSERT_TRUE(fp.status().ok());
    EXPECT_TRUE(ReadSketchFile(path).status().IsIoError());
  }
  {
    ScopedFailpoints fp("sketch_io.read=bitflip*1", 7);
    ASSERT_TRUE(fp.status().ok());
    EXPECT_TRUE(ReadSketchFile(path).status().IsCorruption());
  }
  // Disarmed again: the file itself was never touched.
  EXPECT_TRUE(ReadSketchFile(path).ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The writer sends the frame header, a small head buffer and the counter
// rows straight from the sketch. The file must be exactly the frame the
// copying encoder built: the header over the SerializeTo payload.

CountSketch MakeSketch(size_t depth, size_t width) {
  CountSketchParams p;
  p.depth = depth;
  p.width = width;
  p.seed = 2026;
  auto s = CountSketch::Make(p);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  for (ItemId q = 1; q <= 5000; ++q) s->Add(q * 7919, static_cast<Count>(q % 13));
  return std::move(*s);
}

TEST(SketchIoTest, SketchFileIsTheFrameOfSerializeTo) {
  const std::string path = TempPath("sfq_sketch_bytes.skf");
  // Width 37 has a padded row stride (40 counters); 4096 has none.
  for (const size_t width : {size_t{37}, size_t{4096}}) {
    for (const size_t depth : {size_t{1}, size_t{5}}) {
      const CountSketch sketch = MakeSketch(depth, width);
      ASSERT_TRUE(WriteSketchFile(path, sketch).ok());
      std::string payload;
      sketch.SerializeTo(&payload);
      std::string want;
      frame::Append(&want, kSketchFileMagic, payload);
      EXPECT_EQ(ReadAll(path), want) << "depth " << depth << " width " << width;
    }
  }
  std::remove(path.c_str());
}

// The snapshot layout of snapshotter.h, encoded the copying way: every field,
// then the sketch as a length-prefixed SerializeTo string.
std::string CopyingSnapshotPayload(const TenantSnapshot& snap,
                                   const CountSketch& sketch) {
  std::string out;
  ByteWriter w(&out);
  w.PutU64(kSnapshotVersion);
  snap.spec.EncodeTo(w);
  w.PutU64(snap.wal_seqno);
  w.PutU64(snap.durable_items);
  w.PutU64(snap.ledger.rejected_items);
  w.PutU64(snap.ledger.rejected_requests);
  w.PutU64(snap.ledger.queries);
  w.PutU64(snap.ledger.stale_serves);
  w.PutU64(snap.ledger.sealed ? 1 : 0);
  w.PutU64(snap.candidate_capacity);
  w.PutU64(snap.candidates.size());
  for (const SpaceSavingEntry& e : snap.candidates) {
    w.PutU64(e.item);
    w.PutI64(e.count);
    w.PutI64(e.error);
  }
  std::string blob;
  sketch.SerializeTo(&blob);
  w.PutString(blob);
  return out;
}

TenantSnapshot MakeSnapshotState(const CountSketch& sketch) {
  TenantSnapshot snap;
  snap.spec.depth = sketch.depth();
  snap.spec.width = sketch.width();
  snap.spec.seed = sketch.seed();
  snap.spec.tracked = 64;
  snap.wal_seqno = 17;
  snap.durable_items = 5000;
  snap.ledger.rejected_items = 3;
  snap.ledger.rejected_requests = 1;
  snap.ledger.queries = 9;
  snap.ledger.stale_serves = 2;
  snap.ledger.sealed = true;
  snap.candidate_capacity = 64;
  for (ItemId q = 1; q <= 40; ++q) {
    snap.candidates.push_back({q * 7919, static_cast<Count>(100 - q),
                               static_cast<Count>(q % 3)});
  }
  return snap;
}

TEST(SketchIoTest, TenantSnapshotIsTheFrameOfItsCopyingEncoding) {
  const std::string path = TempPath("sfq_snapshot_bytes.sfs");
  for (const size_t width : {size_t{37}, size_t{4096}}) {
    const CountSketch sketch = MakeSketch(5, width);
    const TenantSnapshot snap = MakeSnapshotState(sketch);
    ASSERT_TRUE(WriteTenantSnapshot(path, snap, sketch).ok());
    std::string want;
    frame::Append(&want, kSnapshotMagic, CopyingSnapshotPayload(snap, sketch));
    EXPECT_EQ(ReadAll(path), want) << "width " << width;

    auto loaded = ReadTenantSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->state.candidates.size(), snap.candidates.size());
    for (ItemId q = 1; q <= 5000; q += 97) {
      ASSERT_EQ(loaded->sketch.Estimate(q * 7919), sketch.Estimate(q * 7919));
    }
  }
  std::remove(path.c_str());
}

// Publishing a 2^20-counter (8 MiB) sketch allocates a few small buffers:
// the head, the piece list, the iovecs and the temp path. A copy of the file
// in a staging buffer would be over 8 MiB.
TEST(SketchIoTest, WriterAllocatesNoSketchSizedBuffer) {
  constexpr size_t kBound = 64 << 10;
  const CountSketch sketch = MakeSketch(4, size_t{1} << 18);
  const TenantSnapshot snap = MakeSnapshotState(sketch);
  const std::string sketch_path = TempPath("sfq_alloc_guard.skf");
  const std::string snapshot_path = TempPath("sfq_alloc_guard.sfs");

  const size_t before = testing_alloc::NewBytes();
  const Status sketch_written = WriteSketchFile(sketch_path, sketch);
  const Status snapshot_written =
      WriteTenantSnapshot(snapshot_path, snap, sketch);
  const size_t allocated = testing_alloc::NewBytes() - before;

  ASSERT_TRUE(sketch_written.ok()) << sketch_written.ToString();
  ASSERT_TRUE(snapshot_written.ok()) << snapshot_written.ToString();
  EXPECT_LT(allocated, kBound);
  // The counting operator new is live: reading the file back allocates it.
  const size_t before_read = testing_alloc::NewBytes();
  ASSERT_TRUE(ReadSketchFile(sketch_path).ok());
  EXPECT_GT(testing_alloc::NewBytes() - before_read, sketch.SerializedSize());
  std::remove(sketch_path.c_str());
  std::remove(snapshot_path.c_str());
}

// Reading a 2^20-counter (8 MiB) sketch file back allocates its payload
// once: the header goes to a local array and the payload to one string
// sized from the checked length field. A reader that grows a buffer in
// chunks and then drops the header allocates several times the file.
TEST(SketchIoTest, ReaderAllocatesThePayloadOnce) {
  const CountSketch sketch = MakeSketch(4, size_t{1} << 18);
  const std::string path = TempPath("sfq_alloc_guard_read.skf");
  ASSERT_TRUE(WriteSketchFile(path, sketch).ok());
  const size_t file_bytes = std::filesystem::file_size(path);

  const size_t before = testing_alloc::NewBytes();
  const Result<std::string> payload =
      ReadBlobFileVerified(path, kSketchFileMagic);
  const size_t allocated = testing_alloc::NewBytes() - before;

  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_LE(allocated, file_bytes + file_bytes / 10);
  std::string want;
  sketch.SerializeTo(&want);
  EXPECT_EQ(*payload, want);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace streamfreq
