// Crash-recovery battery for the durable tenant layer (PR "durable
// tenants"): WAL framing and replay (torn tails at every truncation
// boundary, bit flips, duplicate sequences, gaps), TenantStore
// snapshot+journal recovery, and whole-service recovery with the
// conservation ledger and bit-identical sketches.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/count_sketch.h"
#include "counting_allocator.h"
#include "server/protocol.h"
#include "server/service.h"
#include "server/snapshotter.h"
#include "server/wal.h"
#include "util/bytes.h"
#include "util/failpoint.h"
#include "util/frame.h"

namespace streamfreq {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
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

/// Appends `batches` as records 1..N and returns the journal path.
std::string WriteJournal(const std::string& dir,
                         const std::vector<std::vector<ItemId>>& batches) {
  const std::string path = dir + "/journal.sfw";
  auto wal = WalWriter::Open(path, WalFsync::kNever);
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  uint64_t seqno = 0;
  for (const std::vector<ItemId>& batch : batches) {
    EXPECT_TRUE(wal->Append(++seqno, batch).ok());
  }
  return path;
}

struct Replayed {
  std::vector<uint64_t> seqnos;
  std::vector<ItemId> items;
};

Result<WalReplayStats> Replay(const std::string& path, uint64_t base,
                              Replayed* out) {
  return ReplayWalSegments(
      std::span<const std::string>(&path, 1), base,
      [out](uint64_t seqno, std::span<const ItemId> items) {
        out->seqnos.push_back(seqno);
        out->items.insert(out->items.end(), items.begin(), items.end());
        return Status::OK();
      });
}

TEST(WalTest, RoundTrip) {
  const std::string dir = TempDir("wal_roundtrip");
  const std::string path =
      WriteJournal(dir, {{1, 2, 3}, {4, 5}, {6}});
  Replayed got;
  auto stats = Replay(path, 0, &got);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->records_applied, 3u);
  EXPECT_EQ(stats->last_seqno, 3u);
  EXPECT_FALSE(stats->torn_tail);
  EXPECT_EQ(stats->duplicates_skipped, 0u);
  EXPECT_EQ(got.seqnos, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(got.items, (std::vector<ItemId>{1, 2, 3, 4, 5, 6}));
}

TEST(WalTest, MissingJournalIsEmpty) {
  Replayed got;
  auto stats = Replay(TempDir("wal_missing") + "/nope.sfw", 7, &got);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records_applied, 0u);
  EXPECT_EQ(stats->last_seqno, 7u);
  EXPECT_FALSE(stats->torn_tail);
  EXPECT_TRUE(got.seqnos.empty());
}

// The load-bearing property: truncation at EVERY byte boundary — through
// the magic, the length, the CRC, and each payload byte of the final
// record — yields the intact prefix plus a reported torn tail. Replay
// never errors and never mis-applies on a torn write.
TEST(WalTest, TornTailAtEveryTruncationBoundary) {
  const std::string dir = TempDir("wal_torn");
  const std::string path = WriteJournal(dir, {{10, 11}, {20}, {30, 31, 32}});
  const std::string full = ReadFileBytes(path);
  // Record sizes: header 20 + payload (16 + 8*count).
  const size_t rec1 = 20 + 16 + 8 * 2;
  const size_t rec2 = 20 + 16 + 8 * 1;
  ASSERT_EQ(full.size(), rec1 + rec2 + (20 + 16 + 8 * 3));

  for (size_t keep = 0; keep <= full.size(); ++keep) {
    WriteFileBytes(path, full.substr(0, keep));
    Replayed got;
    auto stats = Replay(path, 0, &got);
    ASSERT_TRUE(stats.ok()) << "keep=" << keep << ": "
                            << stats.status().ToString();
    const size_t expect_records =
        keep >= full.size() ? 3 : keep >= rec1 + rec2 ? 2 : keep >= rec1 ? 1
                                                                         : 0;
    EXPECT_EQ(stats->records_applied, expect_records) << "keep=" << keep;
    const bool boundary =
        keep == 0 || keep == rec1 || keep == rec1 + rec2 || keep == full.size();
    EXPECT_EQ(stats->torn_tail, !boundary) << "keep=" << keep;
    if (!boundary) {
      EXPECT_GT(stats->discarded_bytes, 0u) << "keep=" << keep;
    }
    // The applied prefix is byte-exact, never partial.
    std::vector<ItemId> expect_items;
    if (expect_records >= 1) expect_items.insert(expect_items.end(), {10, 11});
    if (expect_records >= 2) expect_items.push_back(20);
    if (expect_records >= 3) {
      expect_items.insert(expect_items.end(), {30, 31, 32});
    }
    EXPECT_EQ(got.items, expect_items) << "keep=" << keep;
  }
}

// A flipped byte in the middle record ends replay there — even though a
// fully intact record follows. Skipping over damage would silently reorder
// history.
TEST(WalTest, BitFlipStopsReplayAtTheDamage) {
  const std::string dir = TempDir("wal_bitflip");
  const std::string path = WriteJournal(dir, {{1, 2}, {3, 4}, {5, 6}});
  std::string data = ReadFileBytes(path);
  const size_t rec = 20 + 16 + 8 * 2;
  for (const size_t victim : {rec + 25, rec + 5, rec}) {  // payload, len, magic
    std::string damaged = data;
    damaged[victim] ^= 0x40;
    WriteFileBytes(path, damaged);
    Replayed got;
    auto stats = Replay(path, 0, &got);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->records_applied, 1u);
    EXPECT_TRUE(stats->torn_tail);
    EXPECT_EQ(stats->discarded_bytes, data.size() - rec);
    EXPECT_EQ(got.items, (std::vector<ItemId>{1, 2}));
  }
}

// Records at or below the snapshot's base seqno are the crash window
// between snapshot publish and journal truncation: skipped exactly-once.
TEST(WalTest, DuplicateSequencesBelowBaseAreSkipped) {
  const std::string dir = TempDir("wal_dup");
  const std::string path =
      WriteJournal(dir, {{1}, {2}, {3}, {4}});
  Replayed got;
  auto stats = Replay(path, 2, &got);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->duplicates_skipped, 2u);
  EXPECT_EQ(stats->records_applied, 2u);
  EXPECT_EQ(stats->last_seqno, 4u);
  EXPECT_EQ(got.seqnos, (std::vector<uint64_t>{3, 4}));

  // Base beyond the whole journal: everything is a duplicate.
  Replayed none;
  auto all_dup = Replay(path, 10, &none);
  ASSERT_TRUE(all_dup.ok());
  EXPECT_EQ(all_dup->duplicates_skipped, 4u);
  EXPECT_EQ(all_dup->records_applied, 0u);
  EXPECT_EQ(all_dup->last_seqno, 10u);
}

TEST(WalTest, SequenceGapIsCorruption) {
  const std::string dir = TempDir("wal_gap");
  const std::string path = dir + "/journal.sfw";
  {
    auto wal = WalWriter::Open(path, WalFsync::kNever);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(1, std::vector<ItemId>{1}).ok());
    ASSERT_TRUE(wal->Append(3, std::vector<ItemId>{3}).ok());  // gap: no 2
  }
  Replayed got;
  EXPECT_TRUE(Replay(path, 0, &got).status().IsCorruption());
}

// A CRC-valid record whose payload is malformed was written whole — that
// is not a torn tail, it is a bug or tampering, and it fails loudly.
TEST(WalTest, CrcValidMalformedPayloadIsCorruption) {
  const std::string dir = TempDir("wal_malformed");
  const std::string path = dir + "/journal.sfw";
  std::string payload;
  ByteWriter pw(&payload);
  pw.PutU64(1);  // seqno
  pw.PutU64(5);  // claims 5 items...
  pw.PutU64(42);  // ...but carries 1
  std::string record;
  frame::Append(&record, kWalMagic, payload);
  WriteFileBytes(path, record);
  Replayed got;
  EXPECT_TRUE(Replay(path, 0, &got).status().IsCorruption());
}

// A tenant's journal is a run of segments; a pre-segment journal.sfw is
// the oldest. Replay reads them as one record stream: dedup against the
// base, continuity across the segment boundary.
TEST(WalTest, SegmentsReplayAsOneStream) {
  const std::string dir = TempDir("wal_segments");
  const std::string legacy = WriteJournal(dir, {{1}, {2, 2}});
  const std::string second = dir + "/journal.3.sfw";
  {
    auto wal = WalWriter::Open(second, WalFsync::kNever);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(3, std::vector<ItemId>{3}).ok());
    ASSERT_TRUE(wal->Append(4, std::vector<ItemId>{4, 4}).ok());
  }
  Replayed got;
  const std::vector<std::string> segments = {legacy, second};
  auto stats = ReplayWalSegments(
      segments, 1, [&](uint64_t seqno, std::span<const ItemId> items) {
        got.seqnos.push_back(seqno);
        got.items.insert(got.items.end(), items.begin(), items.end());
        return Status::OK();
      });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->duplicates_skipped, 1u);
  EXPECT_EQ(got.seqnos, (std::vector<uint64_t>{2, 3, 4}));
  EXPECT_EQ(got.items, (std::vector<ItemId>{2, 2, 3, 4, 4}));
  EXPECT_FALSE(stats->torn_tail);

  // Out of order, the second segment's records cannot follow the base.
  const std::vector<std::string> reversed = {second, legacy};
  EXPECT_TRUE(ReplayWalSegments(reversed, 0,
                                [](uint64_t, std::span<const ItemId>) {
                                  return Status::OK();
                                })
                  .status()
                  .IsCorruption());
}

// Damage in an earlier segment ends replay there: the later segments are
// discarded whole, never replayed past the gap.
TEST(WalTest, DamageStopsReplayAcrossSegments) {
  const std::string dir = TempDir("wal_segment_damage");
  const std::string first = WriteJournal(dir, {{1}, {2}});
  const std::string data = ReadFileBytes(first);
  WriteFileBytes(first, data.substr(0, data.size() - 3));
  const std::string second = dir + "/journal.3.sfw";
  {
    auto wal = WalWriter::Open(second, WalFsync::kNever);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(3, std::vector<ItemId>{3}).ok());
  }
  const std::vector<std::string> segments = {first, second};
  uint64_t applied = 0;
  auto stats = ReplayWalSegments(segments, 0,
                                 [&](uint64_t, std::span<const ItemId>) {
                                   ++applied;
                                   return Status::OK();
                                 });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(applied, 1u);
  EXPECT_TRUE(stats->torn_tail);
  EXPECT_EQ(stats->discarded_bytes,
            data.size() - 3 - stats->valid_bytes +
                std::filesystem::file_size(second));
}

// Replay reads record by record into one reused buffer: an 8 MB journal
// allocates about one record, not the file.
TEST(WalTest, ReplayAllocatesAboutOneRecord) {
  const std::string dir = TempDir("wal_alloc");
  const std::string path = dir + "/journal.sfw";
  constexpr size_t kItemsPerRecord = 512;
  constexpr uint64_t kRecords = 2048;  // 2048 x 4 KiB payloads = 8 MiB
  {
    auto wal = WalWriter::Open(path, WalFsync::kNever);
    ASSERT_TRUE(wal.ok());
    std::vector<ItemId> items(kItemsPerRecord);
    for (uint64_t seqno = 1; seqno <= kRecords; ++seqno) {
      for (size_t i = 0; i < items.size(); ++i) items[i] = seqno * 7 + i;
      ASSERT_TRUE(wal->Append(seqno, items).ok());
    }
  }
  ASSERT_GT(std::filesystem::file_size(path), size_t{8} << 20);
  uint64_t records = 0;
  uint64_t sum = 0;
  const WalReplayFn apply = [&](uint64_t, std::span<const ItemId> items) {
    ++records;
    for (const ItemId id : items) sum += id;
    return Status::OK();
  };
  const size_t before = testing_alloc::NewBytes();
  auto stats =
      ReplayWalSegments(std::span<const std::string>(&path, 1), 0, apply);
  const size_t allocated = testing_alloc::NewBytes() - before;
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(records, kRecords);
  EXPECT_FALSE(stats->torn_tail);
  uint64_t want = 0;
  for (uint64_t seqno = 1; seqno <= kRecords; ++seqno) {
    for (size_t i = 0; i < kItemsPerRecord; ++i) want += seqno * 7 + i;
  }
  EXPECT_EQ(sum, want);
  // One record's payload is 16 + 4096 bytes; the file stream's own buffer
  // and bookkeeping come on top. Reading the file whole would be 8 MiB+.
  const size_t record_bytes = 16 + kItemsPerRecord * sizeof(ItemId);
  EXPECT_GE(allocated, record_bytes) << "the counting operator new is live";
  EXPECT_LT(allocated, 4 * record_bytes + (size_t{16} << 10));
}

// A replay path that opens but is no file holds no records: Corruption,
// not a torn tail sized by a directory's length, and a FIFO fails without
// waiting for a writer. A path that cannot be opened for a reason other
// than absence is IoError, not an empty segment.
TEST(WalTest, UnreadableSegmentIsAnErrorNotATornTail) {
  const std::string dir = TempDir("wal_not_a_file");
  Replayed got;
  const std::string subdir = dir + "/journal.4.sfw";
  std::filesystem::create_directories(subdir);
  auto as_dir = Replay(subdir, 0, &got);
  EXPECT_TRUE(as_dir.status().IsCorruption()) << as_dir.status().ToString();
  const std::string fifo = dir + "/journal.5.sfw";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  auto as_fifo = Replay(fifo, 0, &got);
  EXPECT_TRUE(as_fifo.status().IsCorruption()) << as_fifo.status().ToString();

  const std::string file = WriteJournal(dir, {{1}});
  auto under_file = Replay(file + "/journal.1.sfw", 0, &got);
  EXPECT_TRUE(under_file.status().IsIoError())
      << under_file.status().ToString();
}

size_t OpenDescriptors() {
  size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++count;
  }
  return count;
}

// The journal is written and fsynced through one descriptor.
TEST(WalTest, OpenHoldsOneDescriptor) {
  const std::string dir = TempDir("wal_one_fd");
  const size_t before = OpenDescriptors();
  auto wal = WalWriter::Open(dir + "/journal.sfw", WalFsync::kAlways);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(OpenDescriptors(), before + 1);
  ASSERT_TRUE(wal->Append(1, std::vector<ItemId>{1, 2}).ok());
  EXPECT_EQ(wal->fsyncs(), 1u);
}

/// One journal record, encoded the copying way: the payload in a buffer,
/// then framed.
std::string RecordBytes(uint64_t seqno, const std::vector<ItemId>& items) {
  std::string payload;
  ByteWriter w(&payload);
  w.PutU64(seqno);
  w.PutU64(items.size());
  for (const ItemId id : items) w.PutU64(id);
  std::string record;
  frame::Append(&record, kWalMagic, payload);
  return record;
}

std::vector<ItemId> SpreadItems(size_t n) {
  std::vector<ItemId> items(n);
  for (size_t i = 0; i < n; ++i) items[i] = i * 0x9E3779B97F4A7C15ULL + 7;
  return items;
}

// An append writes the items from where they lie: no record-sized buffer.
TEST(WalTest, AppendCopiesNoItems) {
  const std::string path = TempDir("wal_append_alloc") + "/journal.sfw";
  const std::vector<ItemId> items = SpreadItems(4096);
  auto wal = WalWriter::Open(path, WalFsync::kNever);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  const size_t before = testing_alloc::NewBytes();
  const Status appended = wal->Append(1, items);
  const size_t allocated = testing_alloc::NewBytes() - before;
  ASSERT_TRUE(appended.ok()) << appended.ToString();
  EXPECT_LT(allocated, items.size() * sizeof(ItemId));
  EXPECT_EQ(ReadFileBytes(path), RecordBytes(1, items));
}

// wal.append=torn lands exactly a prefix of the record: half of it by
// default, else `param` bytes (at most the whole record), wherever the cut
// falls among header, record head and items.
TEST(WalTest, TornAppendLeavesTheRecordPrefix) {
  const std::vector<ItemId> items = SpreadItems(5);
  const std::string first = RecordBytes(1, {42});
  const std::string second = RecordBytes(2, items);
  for (const size_t param : {size_t{0}, size_t{7}, size_t{20}, size_t{30},
                             size_t{36}, size_t{50}, size_t{1} << 20}) {
    const std::string path =
        TempDir("wal_torn_append_" + std::to_string(param)) + "/journal.sfw";
    auto wal = WalWriter::Open(path, WalFsync::kAlways);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_TRUE(wal->Append(1, std::vector<ItemId>{42}).ok());
    {
      ScopedFailpoints fp("wal.append=torn:" + std::to_string(param) + "*1",
                          3);
      ASSERT_TRUE(fp.status().ok()) << fp.status().ToString();
      EXPECT_FALSE(wal->Append(2, items).ok());
    }
    const size_t keep =
        std::min(param == 0 ? second.size() / 2 : param, second.size());
    EXPECT_EQ(ReadFileBytes(path), first + second.substr(0, keep))
        << "param " << param;
  }
}

// ---------------------------------------------------------------------------
// WalFsync::kBatch: the bounded ack-durability window.
// ---------------------------------------------------------------------------

TEST(WalBatchFsyncTest, PolicyNameRoundTrips) {
  EXPECT_STREQ(WalFsyncName(WalFsync::kBatch), "batch");
  auto parsed = WalFsyncFromName("batch");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, WalFsync::kBatch);
  EXPECT_TRUE(WalFsyncFromName("sometimes").status().IsInvalidArgument());
}

TEST(WalBatchFsyncTest, FsyncsOnTheBatchCadenceExactly) {
  const std::string dir = TempDir("wal_batch_cadence");
  auto wal = WalWriter::Open(dir + "/journal.sfw", WalFsync::kBatch);
  ASSERT_TRUE(wal.ok());
  const uint64_t appends = 2 * kWalBatchFsyncEvery + 4;  // 20 when every=8
  for (uint64_t seqno = 1; seqno <= appends; ++seqno) {
    ASSERT_TRUE(wal->Append(seqno, std::vector<ItemId>{seqno}).ok());
    // The window invariant after EVERY append, not just at the end: the
    // page cache never holds a full batch of acknowledged records.
    ASSERT_LT(wal->unsynced_appends(), kWalBatchFsyncEvery) << seqno;
    ASSERT_EQ(wal->fsyncs(), seqno / kWalBatchFsyncEvery) << seqno;
  }
  EXPECT_EQ(wal->fsyncs(), appends / kWalBatchFsyncEvery);
  EXPECT_EQ(wal->unsynced_appends(), appends % kWalBatchFsyncEvery);
}

TEST(WalBatchFsyncTest, AlwaysAndNeverAreTheCadenceExtremes) {
  const std::string dir = TempDir("wal_batch_extremes");
  auto always = WalWriter::Open(dir + "/always.sfw", WalFsync::kAlways);
  auto never = WalWriter::Open(dir + "/never.sfw", WalFsync::kNever);
  ASSERT_TRUE(always.ok() && never.ok());
  for (uint64_t seqno = 1; seqno <= 5; ++seqno) {
    ASSERT_TRUE(always->Append(seqno, std::vector<ItemId>{seqno}).ok());
    ASSERT_TRUE(never->Append(seqno, std::vector<ItemId>{seqno}).ok());
  }
  EXPECT_EQ(always->fsyncs(), 5u);
  EXPECT_EQ(always->unsynced_appends(), 0u);
  EXPECT_EQ(never->fsyncs(), 0u);
  EXPECT_EQ(never->unsynced_appends(), 5u);
}

TEST(WalBatchFsyncTest, FsyncFailpointFiresAtTheBatchBoundaryOnly) {
  const std::string dir = TempDir("wal_batch_failpoint");
  auto wal = WalWriter::Open(dir + "/journal.sfw", WalFsync::kBatch);
  ASSERT_TRUE(wal.ok());
  ScopedFailpoints failpoints("wal.fsync=error*1", /*seed=*/1);
  ASSERT_TRUE(failpoints.status().ok());
  // The first batch-1 appends never reach the fsync site; the batch-th
  // does and eats the injected error.
  for (uint64_t seqno = 1; seqno < kWalBatchFsyncEvery; ++seqno) {
    ASSERT_TRUE(wal->Append(seqno, std::vector<ItemId>{seqno}).ok()) << seqno;
  }
  const Status boundary =
      wal->Append(kWalBatchFsyncEvery, std::vector<ItemId>{8});
  EXPECT_TRUE(boundary.IsIoError()) << boundary.ToString();
  // Every record was written and flushed before the failed barrier: the
  // journal itself replays cleanly (the caller poisons the store instead).
  Replayed got;
  auto stats = Replay(dir + "/journal.sfw", 0, &got);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records_applied, kWalBatchFsyncEvery);
}

// ---------------------------------------------------------------------------
// TenantStore: snapshot + journal recovery.
// ---------------------------------------------------------------------------

TenantSpec TestSpec() {
  TenantSpec spec;
  spec.depth = 4;
  spec.width = 256;
  spec.seed = 77;
  spec.threads = 2;
  spec.batch_items = 128;
  spec.queue_batches = 4;
  spec.push_timeout_ms = 0;
  spec.policy = OverflowPolicy::kShed;
  spec.tracked = 32;
  return spec;
}

CountSketchParams TestParams() {
  CountSketchParams params;
  params.depth = 4;
  params.width = 256;
  params.seed = 77;
  return params;
}

TEST(TenantStoreTest, CreateAppendReopenReplays) {
  const std::string dir = TempDir("store_roundtrip") + "/t";
  {
    auto store = TenantStore::Create(dir, TestSpec(), TestParams(),
                                     WalFsync::kAlways, /*every=*/1 << 20);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Append(std::vector<ItemId>{1, 2, 3}).ok());
    ASSERT_TRUE((*store)->Append(std::vector<ItemId>{2, 3, 4, 4}).ok());
    EXPECT_EQ((*store)->last_seqno(), 2u);
    EXPECT_EQ((*store)->durable_items(), 7u);
  }  // "crash": no snapshot since create, the journal carries everything

  auto opened = TenantStore::Open(dir, WalFsync::kAlways, 1 << 20);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened->recovery.recovered);
  EXPECT_EQ(opened->recovery.snapshot_seqno, 0u);
  EXPECT_EQ(opened->recovery.replayed_records, 2u);
  EXPECT_EQ(opened->recovery.replayed_items, 7u);
  EXPECT_EQ(opened->recovery.base_items, 7u);
  EXPECT_FALSE(opened->recovery.torn_tail);

  // The recovered sketch is the exact linear accumulation of the journal.
  auto reference = CountSketch::Make(TestParams());
  ASSERT_TRUE(reference.ok());
  for (const ItemId q : {1, 2, 3, 2, 3, 4, 4}) reference->Add(q, 1);
  std::string got_bytes, want_bytes;
  opened->store->ingestor().Snapshot()->SerializeTo(&got_bytes);
  reference->SerializeTo(&want_bytes);
  EXPECT_EQ(got_bytes, want_bytes);

  // Recovery re-snapshots and truncates: a second open replays nothing.
  opened->store.reset();
  auto again = TenantStore::Open(dir, WalFsync::kAlways, 1 << 20);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->recovery.snapshot_seqno, 2u);
  EXPECT_EQ(again->recovery.replayed_records, 0u);
  EXPECT_EQ(again->recovery.base_items, 7u);
  got_bytes.clear();
  again->store->ingestor().Snapshot()->SerializeTo(&got_bytes);
  EXPECT_EQ(got_bytes, want_bytes);
}

TEST(TenantStoreTest, CreateWithBatchFsyncReplays) {
  // The full durability path under kBatch: appends land in the journal
  // (flushed, possibly unsynced), a process "crash" preserves them, and
  // recovery replays the exact sketch — kBatch's weaker window only
  // matters against machine crashes, which tests cannot fake.
  const std::string dir = TempDir("store_batch") + "/t";
  const uint64_t appends = 2 * kWalBatchFsyncEvery + 3;
  {
    auto store = TenantStore::Create(dir, TestSpec(), TestParams(),
                                     WalFsync::kBatch, /*every=*/1 << 20);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (uint64_t seqno = 1; seqno <= appends; ++seqno) {
      ASSERT_TRUE((*store)->Append(std::vector<ItemId>{seqno % 5}).ok());
    }
  }  // crash with a partially-unsynced tail in the page cache

  auto opened = TenantStore::Open(dir, WalFsync::kBatch, 1 << 20);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened->recovery.recovered);
  EXPECT_EQ(opened->recovery.replayed_records, appends);
  auto reference = CountSketch::Make(TestParams());
  ASSERT_TRUE(reference.ok());
  for (uint64_t seqno = 1; seqno <= appends; ++seqno) {
    reference->Add(seqno % 5, 1);
  }
  std::string got_bytes, want_bytes;
  opened->store->ingestor().Snapshot()->SerializeTo(&got_bytes);
  reference->SerializeTo(&want_bytes);
  EXPECT_EQ(got_bytes, want_bytes);
}

TEST(TenantStoreTest, SnapshotWithNoJournalRecovers) {
  const std::string dir = TempDir("store_nojournal") + "/t";
  {
    auto store = TenantStore::Create(dir, TestSpec(), TestParams(),
                                     WalFsync::kAlways, 1 << 20);
    ASSERT_TRUE(store.ok());
  }
  ASSERT_TRUE(std::filesystem::remove(TenantStore::JournalPath(dir, 1)));
  auto opened = TenantStore::Open(dir, WalFsync::kAlways, 1 << 20);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->recovery.replayed_records, 0u);
  EXPECT_EQ(opened->recovery.base_items, 0u);
}

// A journal with no snapshot has no base state: silent re-creation would
// hide data loss, so recovery must refuse.
TEST(TenantStoreTest, JournalWithoutSnapshotIsRefused) {
  const std::string dir = TempDir("store_nosnap") + "/t";
  std::filesystem::create_directories(dir);
  WriteJournal(dir, {{1, 2, 3}});
  EXPECT_FALSE(TenantStore::Open(dir, WalFsync::kAlways, 1 << 20).ok());
}

TEST(TenantStoreTest, CreateRefusesExistingSnapshot) {
  const std::string dir = TempDir("store_exists") + "/t";
  ASSERT_TRUE(TenantStore::Create(dir, TestSpec(), TestParams(),
                                  WalFsync::kAlways, 1 << 20)
                  .ok());
  auto second = TenantStore::Create(dir, TestSpec(), TestParams(),
                                    WalFsync::kAlways, 1 << 20);
  EXPECT_TRUE(second.status().IsInvalidArgument());
}

TEST(TenantStoreTest, TornJournalTailRecoversPrefixThenHeals) {
  const std::string dir = TempDir("store_torn") + "/t";
  {
    auto store = TenantStore::Create(dir, TestSpec(), TestParams(),
                                     WalFsync::kAlways, 1 << 20);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append(std::vector<ItemId>{1, 2}).ok());
    ASSERT_TRUE((*store)->Append(std::vector<ItemId>{3}).ok());
  }
  const std::string journal = TenantStore::JournalPath(dir, 1);
  const std::string full = ReadFileBytes(journal);
  WriteFileBytes(journal, full.substr(0, full.size() - 3));  // tear record 2

  auto opened = TenantStore::Open(dir, WalFsync::kAlways, 1 << 20);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened->recovery.torn_tail);
  EXPECT_EQ(opened->recovery.replayed_records, 1u);
  EXPECT_EQ(opened->recovery.base_items, 2u);
  EXPECT_GT(opened->recovery.discarded_bytes, 0u);

  // Recovery re-snapshotted and truncated: the torn bytes are gone, new
  // appends land on a clean journal.
  ASSERT_TRUE(opened->store->Append(std::vector<ItemId>{7}).ok());
  opened->store.reset();
  auto again = TenantStore::Open(dir, WalFsync::kAlways, 1 << 20);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(again->recovery.torn_tail);
  EXPECT_EQ(again->recovery.replayed_records, 1u);
  EXPECT_EQ(again->recovery.base_items, 3u);
}

TEST(TenantStoreTest, BitFlippedSnapshotIsRefused) {
  const std::string dir = TempDir("store_snapflip") + "/t";
  ASSERT_TRUE(TenantStore::Create(dir, TestSpec(), TestParams(),
                                  WalFsync::kAlways, 1 << 20)
                  .ok());
  const std::string snap = TenantStore::SnapshotPath(dir);
  std::string data = ReadFileBytes(snap);
  data[data.size() / 2] ^= 0x20;
  WriteFileBytes(snap, data);
  EXPECT_FALSE(TenantStore::Open(dir, WalFsync::kAlways, 1 << 20).ok());
}

std::string SketchBytes(const CountSketch& sketch) {
  std::string out;
  sketch.SerializeTo(&out);
  return out;
}

std::string RecoveredBytes(const TenantStore::Opened& opened) {
  return SketchBytes(*opened.store->ingestor().Snapshot());
}

LedgerSample EmptyLedger() {
  LedgerSample ledger;
  ledger.candidate_capacity = TestSpec().tracked;
  return ledger;
}

// While a publish is stalled in its snapshot write, appends to the same
// store go on: the publish holds the store lock only to cut the journal.
TEST(TenantStoreTest, AppendDoesNotWaitForAStalledPublish) {
  const std::string dir = TempDir("store_stall") + "/t";
  {
    auto store = TenantStore::Create(dir, TestSpec(), TestParams(),
                                     WalFsync::kNever, 1 << 20);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Append(std::vector<ItemId>{1, 2}).ok());
    ASSERT_TRUE((*store)->Append(std::vector<ItemId>{2}).ok());
    ScopedFailpoints fp("snapshot.publish=stall:500*1", 5);
    ASSERT_TRUE(fp.status().ok());
    std::atomic<bool> published{false};
    std::thread publisher([&] {
      EXPECT_TRUE((*store)->WriteSnapshot(EmptyLedger()).ok());
      published.store(true);
    });
    // The cut starts segment 3; the publish then folds and stalls.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!std::filesystem::exists(TenantStore::JournalPath(dir, 3)) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE((*store)->Append(std::vector<ItemId>{3}).ok());
    EXPECT_FALSE(published.load()) << "the append waited for the publish";
    publisher.join();
    EXPECT_EQ((*store)->snapshots_written(), 1u);
    EXPECT_FALSE(std::filesystem::exists(TenantStore::JournalPath(dir, 1)))
        << "the covered segment is unlinked after the rename";
  }
  // The snapshot covers exactly records <= 2; record 3 is journal tail.
  auto opened = TenantStore::Open(dir, WalFsync::kNever, 1 << 20);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->recovery.snapshot_seqno, 2u);
  EXPECT_EQ(opened->recovery.replayed_records, 1u);
  EXPECT_EQ(opened->recovery.base_items, 4u);
  auto reference = CountSketch::Make(TestParams());
  ASSERT_TRUE(reference.ok());
  for (const ItemId q : {1, 2, 2, 3}) reference->Add(q, 1);
  EXPECT_EQ(RecoveredBytes(*opened), SketchBytes(*reference));
}

// Admission comes before the journal, so a shed or sampled batch is
// journaled exactly as the workers fold it: the sketch recovered after a
// kill equals the live sketch at the kill.
TEST(TenantStoreTest, ShedAndSampleTenantsRecoverTheLiveSketch) {
  for (const OverflowPolicy policy :
       {OverflowPolicy::kShed, OverflowPolicy::kSample}) {
    const std::string dir =
        TempDir(std::string("store_policy_") + PolicyName(policy)) + "/t";
    TenantSpec spec = TestSpec();
    spec.threads = 1;
    spec.batch_items = 64;
    spec.queue_batches = 1;
    spec.push_timeout_ms = 1;
    spec.policy = policy;
    spec.sample_keep_one_in = 4;
    std::string live;
    IngestStats stats;
    {
      // Every batch keeps the one worker busy for 3 ms, so admissions
      // keep missing their 1 ms deadline.
      ScopedFailpoints fp("ingestor.worker_batch=stall:3", 7);
      ASSERT_TRUE(fp.status().ok());
      auto store = TenantStore::Create(dir, spec, TestParams(),
                                       WalFsync::kNever, 0);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      std::vector<ItemId> request(64);
      for (int r = 0; r < 150; ++r) {
        for (size_t i = 0; i < request.size(); ++i) {
          request[i] = (r * 64 + i) % 97;
        }
        ASSERT_TRUE((*store)->Append(request).ok());
      }
      TenantStore::Ingestor& ingestor = (*store)->ingestor();
      auto pin = ingestor.AwaitFold(ingestor.StartFold());
      ASSERT_TRUE(pin.ok()) << pin.status().ToString();
      live = SketchBytes(**pin);
      stats = ingestor.Stats();
      EXPECT_GT(stats.DroppedItems(), 0u) << PolicyName(policy);
      EXPECT_EQ((*store)->durable_items(), stats.items_ingested);
    }  // the kill: nothing more reaches the data dir
    auto opened = TenantStore::Open(dir, WalFsync::kNever, 0);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(opened->recovery.base_items, stats.items_ingested);
    EXPECT_EQ(RecoveredBytes(*opened), live) << PolicyName(policy);
  }
}

// A publish whose fold failed, or whose cut was faulted, writes nothing
// and keeps every segment; one whose unlink was faulted leaves covered
// segments that replay skips as duplicates. Recovery is exact throughout.
TEST(TenantStoreTest, PublishFaultsKeepRecoveryExact) {
  const std::string dir = TempDir("store_publish_faults") + "/t";
  {
    auto store = TenantStore::Create(dir, TestSpec(), TestParams(),
                                     WalFsync::kNever, 1 << 20);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    {
      ScopedFailpoints fp("ingestor.worker_batch=error*1", 9);
      ASSERT_TRUE(fp.status().ok());
      ASSERT_TRUE((*store)->Append(std::vector<ItemId>{1, 2}).ok());
      EXPECT_FALSE((*store)->WriteSnapshot(EmptyLedger()).ok());
    }
    EXPECT_EQ((*store)->snapshots_written(), 0u);
    EXPECT_TRUE(std::filesystem::exists(TenantStore::JournalPath(dir, 1)));
  }
  {
    auto opened = TenantStore::Open(dir, WalFsync::kNever, 1 << 20);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(opened->recovery.snapshot_seqno, 0u);
    EXPECT_EQ(opened->recovery.replayed_records, 1u);
    TenantStore& store = *opened->store;
    ASSERT_TRUE(store.Append(std::vector<ItemId>{3}).ok());
    {
      ScopedFailpoints fp("snapshot.cut=error*1", 11);
      ASSERT_TRUE(fp.status().ok());
      EXPECT_FALSE(store.WriteSnapshot(EmptyLedger()).ok());
    }
    ASSERT_TRUE(store.Append(std::vector<ItemId>{4}).ok());
    {
      ScopedFailpoints fp("snapshot.unlink=error*1", 13);
      ASSERT_TRUE(fp.status().ok());
      EXPECT_TRUE(store.WriteSnapshot(EmptyLedger()).ok());
    }
    EXPECT_TRUE(std::filesystem::exists(TenantStore::JournalPath(dir, 2)));
  }
  auto opened = TenantStore::Open(dir, WalFsync::kNever, 1 << 20);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->recovery.snapshot_seqno, 3u);
  EXPECT_EQ(opened->recovery.duplicates_skipped, 2u);
  EXPECT_EQ(opened->recovery.replayed_records, 0u);
  EXPECT_EQ(opened->recovery.base_items, 4u);
  auto reference = CountSketch::Make(TestParams());
  ASSERT_TRUE(reference.ok());
  for (const ItemId q : {1, 2, 3, 4}) reference->Add(q, 1);
  EXPECT_EQ(RecoveredBytes(*opened), SketchBytes(*reference));
}

// ---------------------------------------------------------------------------
// Whole-service recovery: ledger conservation + bit-identity across a
// simulated crash (the service object dies, the data dir survives).
// ---------------------------------------------------------------------------

int64_t JsonField(const std::string& json, const std::string& scope,
                  const std::string& field) {
  const size_t at = json.find("\"" + scope + "\":{");
  if (at == std::string::npos) return -1;
  const size_t field_at = json.find("\"" + field + "\":", at);
  if (field_at == std::string::npos || field_at > json.find('}', at)) {
    return -1;
  }
  return std::strtoll(json.c_str() + field_at + field.size() + 3, nullptr, 10);
}

Response Handle1(SketchService& svc, Opcode op, const std::string& tenant,
                 std::vector<ItemId> items = {}) {
  Request req;
  req.op = op;
  req.tenant = tenant;
  req.items = std::move(items);
  if (op == Opcode::kCreateTenant) req.spec = TestSpec();
  if (op == Opcode::kTopK) req.k = 5;
  return svc.Handle(req);
}

TEST(ServiceRecoveryTest, RecoverReplaysLedgerAndSketchExactly) {
  const std::string data_dir = TempDir("svc_recover");
  ServiceOptions options;
  options.data_dir = data_dir;
  options.fsync = WalFsync::kAlways;
  options.snapshot_every_items = 1 << 20;  // force journal-tail recovery

  std::vector<ItemId> stream;
  for (ItemId q = 0; q < 3000; ++q) stream.push_back(q % 97);

  {
    SketchService svc(options);
    ASSERT_TRUE(svc.Recover().ok());
    ASSERT_TRUE(Handle1(svc, Opcode::kCreateTenant, "t").ok());
    for (size_t begin = 0; begin < stream.size(); begin += 500) {
      const size_t len = std::min<size_t>(500, stream.size() - begin);
      ASSERT_TRUE(Handle1(svc, Opcode::kIngest, "t",
                          std::vector<ItemId>(stream.begin() + begin,
                                              stream.begin() + begin + len))
                      .ok());
    }
  }  // service dies without sealing; the journal carries every batch

  SketchService svc(options);
  ASSERT_TRUE(svc.Recover().ok());
  EXPECT_TRUE(svc.recovery_failures().empty());
  EXPECT_EQ(svc.TenantCount(), 1u);

  const Response info = Handle1(svc, Opcode::kRecoveryInfo, "t");
  ASSERT_TRUE(info.ok()) << info.message;
  EXPECT_NE(info.blob.find("\"recovered\":true"), std::string::npos);
  EXPECT_NE(info.blob.find("\"replayed_records\":6"), std::string::npos);

  // Conservation across the crash: the recovered prefix is base_ingested.
  const std::string tenants = svc.TenantsJson();
  const int64_t offered = JsonField(tenants, "t", "offered_items");
  const int64_t rejected = JsonField(tenants, "t", "rejected_items");
  const int64_t ingested = JsonField(tenants, "t", "items_ingested");
  const int64_t dropped = JsonField(tenants, "t", "dropped_items");
  const int64_t base = JsonField(tenants, "t", "base_ingested");
  EXPECT_EQ(base, 3000);
  EXPECT_EQ(offered - rejected, base + ingested + dropped);

  // Bit-identity: the recovered serving sketch equals a sequential run.
  const Response exported = Handle1(svc, Opcode::kExport, "t");
  ASSERT_TRUE(exported.ok()) << exported.message;
  auto recovered = CountSketch::Deserialize(exported.blob);
  ASSERT_TRUE(recovered.ok());
  auto reference = CountSketch::Make(TestParams());
  ASSERT_TRUE(reference.ok());
  for (const ItemId q : stream) reference->Add(q, 1);
  std::string got_bytes, want_bytes;
  recovered->SerializeTo(&got_bytes);
  reference->SerializeTo(&want_bytes);
  EXPECT_EQ(got_bytes, want_bytes);

  // The recovered tenant keeps serving and ingesting.
  ASSERT_TRUE(Handle1(svc, Opcode::kIngest, "t", {1, 2, 3}).ok());
  EXPECT_TRUE(Handle1(svc, Opcode::kTopK, "t").ok());
}

TEST(ServiceRecoveryTest, SealedTenantRecoversReadOnly) {
  const std::string data_dir = TempDir("svc_sealed");
  ServiceOptions options;
  options.data_dir = data_dir;

  {
    SketchService svc(options);
    ASSERT_TRUE(svc.Recover().ok());
    ASSERT_TRUE(Handle1(svc, Opcode::kCreateTenant, "t").ok());
    ASSERT_TRUE(Handle1(svc, Opcode::kIngest, "t", {5, 5, 6}).ok());
    ASSERT_TRUE(Handle1(svc, Opcode::kSeal, "t").ok());
  }

  SketchService svc(options);
  ASSERT_TRUE(svc.Recover().ok());
  EXPECT_TRUE(Handle1(svc, Opcode::kTopK, "t").ok());
  const Response rejected = Handle1(svc, Opcode::kIngest, "t", {7});
  EXPECT_FALSE(rejected.ok());
  EXPECT_NE(rejected.message.find("sealed"), std::string::npos);
}

TEST(ServiceRecoveryTest, CorruptTenantIsReportedNotRecreated) {
  const std::string data_dir = TempDir("svc_corrupt");
  ServiceOptions options;
  options.data_dir = data_dir;

  {
    SketchService svc(options);
    ASSERT_TRUE(svc.Recover().ok());
    ASSERT_TRUE(Handle1(svc, Opcode::kCreateTenant, "t").ok());
    ASSERT_TRUE(Handle1(svc, Opcode::kIngest, "t", {1, 2, 3}).ok());
  }
  const std::string snap = TenantStore::SnapshotPath(data_dir + "/t");
  std::string data = ReadFileBytes(snap);
  data[data.size() - 5] ^= 0x01;
  WriteFileBytes(snap, data);

  SketchService svc(options);
  ASSERT_TRUE(svc.Recover().ok());  // service survives; the tenant does not
  EXPECT_EQ(svc.TenantCount(), 0u);
  const auto failures = svc.recovery_failures();
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_TRUE(failures.count("t"));
  // The damaged directory still holds a snapshot, so re-creating the name
  // is refused instead of silently shadowing the broken state.
  EXPECT_FALSE(Handle1(svc, Opcode::kCreateTenant, "t").ok());
}

TEST(ServiceRecoveryTest, DuplicateJournalRecordsAreDedupedOnReplay) {
  // Simulate the crash window between snapshot publish and journal
  // truncation: the snapshot covers seqnos 1..2, the journal still holds
  // 1..3. Only record 3 may be applied.
  const std::string dir = TempDir("svc_dup") + "/t";
  {
    auto store = TenantStore::Create(dir, TestSpec(), TestParams(),
                                     WalFsync::kAlways, 1 << 20);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append(std::vector<ItemId>{1}).ok());
    ASSERT_TRUE((*store)->Append(std::vector<ItemId>{2}).ok());
    LedgerSample ledger;
    ledger.candidate_capacity = TestSpec().tracked;
    ASSERT_TRUE((*store)->WriteSnapshot(ledger).ok());
    // WriteSnapshot unlinked the segment it covers; re-append records 1..3
    // as a pre-segment journal.sfw, the oldest segment, would hold them.
  }
  {
    auto wal = WalWriter::Open(dir + "/journal.sfw", WalFsync::kAlways);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(1, std::vector<ItemId>{1}).ok());
    ASSERT_TRUE(wal->Append(2, std::vector<ItemId>{2}).ok());
    ASSERT_TRUE(wal->Append(3, std::vector<ItemId>{3}).ok());
  }
  auto opened = TenantStore::Open(dir, WalFsync::kAlways, 1 << 20);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->recovery.duplicates_skipped, 2u);
  EXPECT_EQ(opened->recovery.replayed_records, 1u);
  EXPECT_EQ(opened->recovery.base_items, 3u);

  auto reference = CountSketch::Make(TestParams());
  ASSERT_TRUE(reference.ok());
  for (const ItemId q : {1, 2, 3}) reference->Add(q, 1);
  std::string got_bytes, want_bytes;
  opened->store->ingestor().Snapshot()->SerializeTo(&got_bytes);
  reference->SerializeTo(&want_bytes);
  EXPECT_EQ(got_bytes, want_bytes);
}

// A journal segment name that is a directory makes the tenant's recovery
// fail and keeps its files; replay must not read it as a torn tail and
// then drop the segments.
TEST(ServiceRecoveryTest, SegmentThatIsADirectoryFailsRecovery) {
  const std::string data_dir = TempDir("svc_segment_dir");
  const std::string dir = data_dir + "/t";
  {
    auto store = TenantStore::Create(dir, TestSpec(), TestParams(),
                                     WalFsync::kAlways, 1 << 20);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (const ItemId q : {1, 2, 3}) {
      ASSERT_TRUE((*store)->Append(std::vector<ItemId>{q}).ok());
    }
  }
  std::filesystem::create_directories(TenantStore::JournalPath(dir, 4));

  auto opened = TenantStore::Open(dir, WalFsync::kAlways, 1 << 20);
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
  EXPECT_TRUE(std::filesystem::exists(TenantStore::JournalPath(dir, 1)));

  ServiceOptions options;
  options.data_dir = data_dir;
  SketchService svc(options);
  ASSERT_TRUE(svc.Recover().ok());
  EXPECT_EQ(svc.TenantCount(), 0u);
  EXPECT_EQ(svc.recovery_failures().count("t"), 1u);
}

// Every persisted ledger field comes back after a restart, and so do the
// fields derived from them. A second restart reads them all back equal.
TEST(ServiceRecoveryTest, PersistedLedgerSurvivesRestart) {
  const std::string data_dir = TempDir("svc_ledger");
  ServiceOptions options;
  options.data_dir = data_dir;
  options.snapshot_every_items = 1 << 20;
  const std::vector<std::string> fields = {
      "rejected_items", "rejected_requests", "queries",      "stale_serves",
      "sealed",         "offered_items",     "base_ingested"};
  // sealed reads "true"/"false"; every other field is a number.
  const auto values = [&fields](const std::string& json) {
    std::vector<int64_t> out;
    for (const std::string& field : fields) {
      out.push_back(field == "sealed"
                        ? int64_t{json.find("\"sealed\":true") !=
                                  std::string::npos}
                        : JsonField(json, "t", field));
    }
    return out;
  };

  std::string before;
  {
    SketchService svc(options);
    ASSERT_TRUE(svc.Recover().ok());
    ASSERT_TRUE(Handle1(svc, Opcode::kCreateTenant, "t").ok());
    ASSERT_TRUE(Handle1(svc, Opcode::kIngest, "t", {1, 2, 2, 3}).ok());
    ASSERT_TRUE(Handle1(svc, Opcode::kIngest, "t", {3, 3}).ok());
    EXPECT_TRUE(Handle1(svc, Opcode::kTopK, "t").ok());
    {
      ScopedFailpoints fp("server.publish=error*1", 7);
      ASSERT_TRUE(fp.status().ok()) << fp.status().ToString();
      EXPECT_TRUE(Handle1(svc, Opcode::kTopK, "t").ok());
    }
    EXPECT_TRUE(Handle1(svc, Opcode::kTopK, "t").ok());
    ASSERT_TRUE(Handle1(svc, Opcode::kSeal, "t").ok());
    EXPECT_FALSE(Handle1(svc, Opcode::kIngest, "t", {4, 5, 6}).ok());
    Handle1(svc, Opcode::kSeal, "t");  // snapshots the ledger again
    before = svc.TenantsJson();
  }
  EXPECT_EQ(values(before),
            (std::vector<int64_t>{3, 1, 3, 1, 1, 9, 0}));
  EXPECT_EQ(JsonField(before, "t", "items_ingested"), 6);

  std::string after;
  {
    SketchService svc(options);
    ASSERT_TRUE(svc.Recover().ok());
    ASSERT_TRUE(svc.recovery_failures().empty());
    after = svc.TenantsJson();
  }
  // The created tenant's ingest is the recovered tenant's base.
  std::vector<int64_t> want = values(before);
  want.back() = JsonField(before, "t", "items_ingested");
  EXPECT_EQ(values(after), want);

  SketchService svc(options);
  ASSERT_TRUE(svc.Recover().ok());
  EXPECT_EQ(values(svc.TenantsJson()), values(after));
}

}  // namespace
}  // namespace streamfreq
