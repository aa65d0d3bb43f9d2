// The committed v1 format corpus (tests/data/compat/v1/): files written by
// an earlier build that this build must still read, and that its writers
// must still reproduce byte for byte.
//
// Two checks per fixture:
//   - read: every sketch file decodes to its committed estimates, every
//     tenant data dir recovers to its committed recovery fields, ledger,
//     candidate triples and export bytes, and both RPC frames come through
//     RecvFrame and the Request/Response decoders;
//   - write: the current writers, given the explicit inputs below (fixed
//     items, explicit Space-Saving triples, no candidate selection), write
//     the committed bytes again. Only a format change breaks this.
//
// The corpus is regenerated never: a format change bumps its version, adds
// tests/data/compat/v2/ beside v1 and keeps the v1 reader (docs/SERVER.md,
// "Format versions"). DISABLED_GenerateCorpus wrote v1 into a directory
// that did not exist yet, from the repository root:
//
//   SFQ_COMPAT_OUT=tests/data/compat/v1 build/tests/compat_test
//       --gtest_also_run_disabled_tests --gtest_filter='*GenerateCorpus'
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "core/count_sketch.h"
#include "core/sketch_io.h"
#include "server/protocol.h"
#include "server/service.h"
#include "server/snapshotter.h"
#include "server/wal.h"
#include "util/failpoint.h"
#include "util/net.h"

namespace streamfreq {
namespace {

namespace fs = std::filesystem;

const std::string kCorpus =
    std::string(SFQ_SOURCE_DIR) + "/tests/data/compat/v1";

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/compat_test_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// The explicit inputs every fixture is written from.
// ---------------------------------------------------------------------------

const std::vector<ItemId> kFirstBatch = {1, 2, 2, 3, 3, 3, 1000003};
const std::vector<ItemId> kSecondBatch = {3, 4, 4, 2, 77};

constexpr HashFamily kFamilies[] = {HashFamily::kCarterWegman,
                                    HashFamily::kMultiplyShift,
                                    HashFamily::kTabulation};

const char* FamilyName(HashFamily family) {
  switch (family) {
    case HashFamily::kCarterWegman:
      return "carter_wegman";
    case HashFamily::kMultiplyShift:
      return "multiply_shift";
    case HashFamily::kTabulation:
      return "tabulation";
  }
  return "unknown";
}

// The three tenant data dirs: each name is the tenant, with its own seed so
// that no two exports are equal.
struct TenantFixture {
  const char* name;
  uint64_t seed;
};
constexpr TenantFixture kTenants[] = {
    {"unsealed", 5}, {"sealed", 6}, {"legacy", 7}};

TenantSpec SpecFor(uint64_t seed) {
  TenantSpec spec;
  spec.depth = 3;
  spec.width = 16;
  spec.seed = seed;
  spec.threads = 1;
  spec.batch_items = 64;
  spec.queue_batches = 4;
  spec.publish_every_batches = 2;
  spec.push_timeout_ms = 0;
  spec.policy = OverflowPolicy::kBlock;
  spec.sample_keep_one_in = 8;
  spec.tracked = 8;
  return spec;
}

CountSketchParams ParamsFor(const TenantSpec& spec) {
  CountSketchParams params;
  params.depth = static_cast<size_t>(spec.depth);
  params.width = static_cast<size_t>(spec.width);
  params.seed = spec.seed;
  return params;
}

// The ledger and candidates the sealed tenant's final snapshot carries:
// distinct values, so a swapped field shows, and the exact counts of both
// batches, so the triples are valid Space-Saving state.
LedgerSample SealedSample() {
  LedgerSample sample;
  sample.ledger.rejected_items = 2;
  sample.ledger.rejected_requests = 1;
  sample.ledger.queries = 5;
  sample.ledger.stale_serves = 3;
  sample.ledger.sealed = true;
  sample.candidate_capacity = 8;
  sample.candidates = {{3, 4, 0}, {2, 3, 0}, {4, 2, 0},
                       {1, 1, 0}, {77, 1, 0}, {1000003, 1, 0}};
  return sample;
}

CountSketch SketchOf(const CountSketchParams& params,
                     std::span<const std::vector<ItemId>> batches) {
  Result<CountSketch> sketch = CountSketch::Make(params);
  EXPECT_TRUE(sketch.ok());
  for (const std::vector<ItemId>& batch : batches) sketch->BatchAdd(batch);
  return std::move(*sketch);
}

Request CorpusRequest() {
  Request request;
  request.op = Opcode::kIngest;
  request.tenant = "unsealed";
  request.spec = SpecFor(5);
  request.k = 10;
  request.item = 42;
  request.items = kFirstBatch;
  return request;
}

Response CorpusResponse() {
  Response response;
  response.epoch = 7;
  response.value = -3;
  response.entries = {{3, 4}, {2, 3}};
  response.blob = "blob bytes";
  return response;
}

void AppendRecords(const std::string& path, uint64_t first_seqno,
                   std::span<const std::vector<ItemId>> batches) {
  Result<WalWriter> wal = WalWriter::Open(path, WalFsync::kNever);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  uint64_t seqno = first_seqno;
  for (const std::vector<ItemId>& batch : batches) {
    ASSERT_TRUE(wal->Append(seqno++, batch).ok());
  }
}

/// Writes every committed fixture file (not the expectations) under `root`
/// with the current writers, straight from the explicit inputs.
void WriteFixtureFiles(const std::string& root) {
  for (const HashFamily family : kFamilies) {
    CountSketchParams params;
    params.depth = 3;
    params.width = 16;
    params.seed = 11;
    params.family = family;
    const std::vector<ItemId> items[] = {kFirstBatch, kSecondBatch};
    ASSERT_TRUE(WriteSketchFile(root + "/sketch_" + FamilyName(family) +
                                    ".skf",
                                SketchOf(params, items))
                    .ok());
  }

  const std::vector<ItemId> first[] = {kFirstBatch};
  const std::vector<ItemId> second[] = {kSecondBatch};
  const std::vector<ItemId> both[] = {kFirstBatch, kSecondBatch};
  for (const TenantFixture& tenant : kTenants) {
    const std::string dir = root + "/data/" + tenant.name;
    fs::create_directories(dir);
    const TenantSpec spec = SpecFor(tenant.seed);
    TenantSnapshot snap;
    snap.spec = spec;
    snap.candidate_capacity = spec.tracked;
    CountSketch sketch = SketchOf(ParamsFor(spec), {});
    if (std::string(tenant.name) == "sealed") {
      // The seal's snapshot covers both records; its segments stayed.
      const LedgerSample sample = SealedSample();
      snap.wal_seqno = 2;
      snap.durable_items = kFirstBatch.size() + kSecondBatch.size();
      snap.ledger = sample.ledger;
      snap.candidates = sample.candidates;
      sketch = SketchOf(ParamsFor(spec), both);
      AppendRecords(dir + "/journal.3.sfw", 3, {});
    }
    ASSERT_TRUE(
        WriteTenantSnapshot(TenantStore::SnapshotPath(dir), snap, sketch)
            .ok());
    AppendRecords(std::string(tenant.name) == "legacy"
                      ? dir + "/journal.sfw"
                      : TenantStore::JournalPath(dir, 1),
                  1, first);
    AppendRecords(TenantStore::JournalPath(dir, 2), 2, second);
  }

  std::string payload;
  CorpusRequest().EncodeTo(&payload);
  WriteFileBytes(root + "/rpc_request.frame", EncodeFrame(payload));
  payload.clear();
  CorpusResponse().EncodeTo(&payload);
  WriteFileBytes(root + "/rpc_response.frame", EncodeFrame(payload));
}

/// Every fixture file under `root` (expectations and README excluded), as
/// paths relative to it.
std::vector<std::string> FixtureFiles(const std::string& root) {
  std::vector<std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string rel = fs::relative(entry.path(), root).string();
    if (rel.starts_with("expect/") || rel == "README.md") continue;
    files.push_back(rel);
  }
  std::sort(files.begin(), files.end());
  return files;
}

// ---------------------------------------------------------------------------
// What a fixture reads back as, in the committed text form.
// ---------------------------------------------------------------------------

std::string DescribeSketch(const CountSketch& sketch) {
  const CountSketchParams& params = sketch.params();
  std::string out = "depth " + std::to_string(params.depth) + "\nwidth " +
                    std::to_string(params.width) + "\nseed " +
                    std::to_string(params.seed) + "\nfamily " +
                    std::to_string(static_cast<int>(params.family)) + "\n";
  std::vector<ItemId> distinct = kFirstBatch;
  distinct.insert(distinct.end(), kSecondBatch.begin(), kSecondBatch.end());
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  for (const ItemId item : distinct) {
    out += "estimate " + std::to_string(item) + " " +
           std::to_string(sketch.Estimate(item)) + "\n";
  }
  return out;
}

/// The recovered state of a tenant dir: recovery fields, ledger, then the
/// candidate triples sorted by item (the order Entries() lists them in is
/// the candidate table's business, not the format's).
std::string DescribeRecovery(const TenantStore::Opened& opened) {
  const TenantRecovery& r = opened.recovery;
  const TenantSnapshot& s = opened.state;
  std::string out;
  const auto line = [&out](const char* key, uint64_t value) {
    out += std::string(key) + " " + std::to_string(value) + "\n";
  };
  line("recovered", r.recovered);
  line("snapshot_seqno", r.snapshot_seqno);
  line("replayed_records", r.replayed_records);
  line("replayed_items", r.replayed_items);
  line("duplicates_skipped", r.duplicates_skipped);
  line("torn_tail", r.torn_tail);
  line("discarded_bytes", r.discarded_bytes);
  line("base_items", r.base_items);
  line("wal_seqno", s.wal_seqno);
  line("durable_items", s.durable_items);
  line("rejected_items", s.ledger.rejected_items);
  line("rejected_requests", s.ledger.rejected_requests);
  line("queries", s.ledger.queries);
  line("stale_serves", s.ledger.stale_serves);
  line("sealed", s.ledger.sealed);
  line("candidate_capacity", s.candidate_capacity);
  std::vector<SpaceSavingEntry> entries = opened.candidates.Entries();
  std::sort(entries.begin(), entries.end(),
            [](const SpaceSavingEntry& a, const SpaceSavingEntry& b) {
              return a.item < b.item;
            });
  for (const SpaceSavingEntry& e : entries) {
    out += "candidate " + std::to_string(e.item) + " " +
           std::to_string(e.count) + " " + std::to_string(e.error) + "\n";
  }
  return out;
}

/// Recovers a copy of the committed tenant dir (recovery rewrites its
/// snapshot and drops its segments) and returns its description and the
/// recovered sketch's export bytes.
void RecoverCopy(const std::string& tenant, std::string* description,
                 std::string* export_bytes) {
  const std::string dir = FreshDir("recover_" + tenant) + "/" + tenant;
  fs::copy(kCorpus + "/data/" + tenant, dir, fs::copy_options::recursive);
  Result<TenantStore::Opened> opened =
      TenantStore::Open(dir, WalFsync::kNever, 0);
  ASSERT_TRUE(opened.ok()) << tenant << ": " << opened.status().ToString();
  *description = DescribeRecovery(*opened);
  export_bytes->clear();
  opened->store->ingestor().Snapshot()->SerializeTo(export_bytes);
}

// ---------------------------------------------------------------------------
// Read checks.
// ---------------------------------------------------------------------------

TEST(CompatV1Test, SketchFilesDecodeToTheirEstimates) {
  for (const HashFamily family : kFamilies) {
    const std::string name = std::string("sketch_") + FamilyName(family);
    Result<CountSketch> sketch = ReadSketchFile(kCorpus + "/" + name + ".skf");
    ASSERT_TRUE(sketch.ok()) << name << ": " << sketch.status().ToString();
    EXPECT_EQ(sketch->params().family, family);
    EXPECT_EQ(DescribeSketch(*sketch),
              ReadFileBytes(kCorpus + "/expect/" + name + ".txt"))
        << name;
  }
}

TEST(CompatV1Test, TenantDataDirsRecover) {
  for (const TenantFixture& tenant : kTenants) {
    std::string description;
    std::string export_bytes;
    RecoverCopy(tenant.name, &description, &export_bytes);
    const std::string expect = kCorpus + "/expect/" + tenant.name;
    EXPECT_EQ(description, ReadFileBytes(expect + ".txt")) << tenant.name;
    EXPECT_TRUE(export_bytes == ReadFileBytes(expect + ".export"))
        << tenant.name << ": export bytes differ";
  }
}

// The same dirs under a serving process: every tenant recovers, the sealed
// one read-only, and each export is the committed one.
TEST(CompatV1Test, ServiceRecoversTheDataDir) {
  const std::string root = FreshDir("service") + "/data";
  fs::copy(kCorpus + "/data", root, fs::copy_options::recursive);
  ServiceOptions options;
  options.data_dir = root;
  options.fsync = WalFsync::kNever;
  SketchService service(options);
  ASSERT_TRUE(service.Recover().ok());
  EXPECT_TRUE(service.recovery_failures().empty());
  EXPECT_EQ(service.TenantCount(), std::size(kTenants));
  for (const TenantFixture& tenant : kTenants) {
    Request request;
    request.op = Opcode::kExport;
    request.tenant = tenant.name;
    const Response exported = service.Handle(request);
    ASSERT_TRUE(exported.ok()) << exported.message;
    EXPECT_TRUE(exported.blob ==
                ReadFileBytes(kCorpus + "/expect/" + tenant.name + ".export"))
        << tenant.name << ": export bytes differ";

    request.op = Opcode::kIngest;
    request.items = {9};
    EXPECT_EQ(service.Handle(request).ok(),
              std::string(tenant.name) != "sealed")
        << tenant.name;
  }
}

// Each frame goes through the socket reader (here over a pipe) and then the
// message decoder.
std::string RecvFromPipe(const std::string& bytes) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  OwnedFd read_end(fds[0]);
  OwnedFd write_end(fds[1]);
  EXPECT_EQ(::write(write_end.get(), bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  write_end.Reset();
  Result<std::string> payload = RecvFrame(read_end.get());
  EXPECT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_TRUE(RecvFrame(read_end.get()).status().IsNotFound());
  return payload.ok() ? *payload : std::string();
}

TEST(CompatV1Test, RpcFramesDecode) {
  Result<Request> request = Request::Decode(
      RecvFromPipe(ReadFileBytes(kCorpus + "/rpc_request.frame")));
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_TRUE(*request == CorpusRequest());
  Result<Response> response = Response::Decode(
      RecvFromPipe(ReadFileBytes(kCorpus + "/rpc_response.frame")));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(*response == CorpusResponse());
}

// ---------------------------------------------------------------------------
// Write check.
// ---------------------------------------------------------------------------

TEST(CompatV1Test, WritersReproduceTheCommittedBytes) {
  const std::string root = FreshDir("written");
  WriteFixtureFiles(root);
  const std::vector<std::string> written = FixtureFiles(root);
  EXPECT_EQ(written, FixtureFiles(kCorpus));
  for (const std::string& rel : written) {
    EXPECT_TRUE(ReadFileBytes(root + "/" + rel) ==
                ReadFileBytes(kCorpus + "/" + rel))
        << rel << " differs from the committed bytes";
  }
}

// ---------------------------------------------------------------------------
// The generator. It wrote v1 and refuses to overwrite a corpus.
// ---------------------------------------------------------------------------

// Drives a TenantStore the way the service does, leaving the dir a crash
// would: one failed publish keeps the first segment beside the second.
void GenerateTenantDir(const std::string& dir, const TenantFixture& tenant) {
  const TenantSpec spec = SpecFor(tenant.seed);
  Result<std::unique_ptr<TenantStore>> store = TenantStore::Create(
      dir, spec, ParamsFor(spec), WalFsync::kNever, 0);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->Append(kFirstBatch).ok());
  {
    ScopedFailpoints fp("snapshot.cut=error*1", 1);
    ASSERT_TRUE(fp.status().ok()) << fp.status().ToString();
    ASSERT_FALSE((*store)->WriteSnapshot(LedgerSample{}).ok());
  }
  ASSERT_TRUE((*store)->Append(kSecondBatch).ok());
  if (std::string(tenant.name) == "sealed") {
    // The seal's snapshot lands; the unlink of its segments does not.
    ScopedFailpoints fp("snapshot.unlink=error*1", 1);
    ASSERT_TRUE(fp.status().ok()) << fp.status().ToString();
    ASSERT_TRUE((*store)->WriteSnapshot(SealedSample()).ok());
  }
  store->reset();
  if (std::string(tenant.name) == "legacy") {
    // A journal from before segments existed, beside a segment.
    fs::rename(TenantStore::JournalPath(dir, 1), dir + "/journal.sfw");
  }
}

TEST(CompatV1Test, DISABLED_GenerateCorpus) {
#if !STREAMFREQ_FAILPOINTS
  GTEST_SKIP() << "failpoints are compiled out";
#endif
  const char* out = std::getenv("SFQ_COMPAT_OUT");
  ASSERT_NE(out, nullptr) << "set SFQ_COMPAT_OUT to the new corpus dir";
  const std::string root = out;
  ASSERT_FALSE(fs::exists(root)) << root << " exists; never regenerate";
  fs::create_directories(root + "/expect");

  WriteFixtureFiles(root);
  for (const TenantFixture& tenant : kTenants) {
    const std::string dir = root + "/data/" + tenant.name;
    fs::remove_all(dir);
    GenerateTenantDir(dir, tenant);

    const std::string copy = FreshDir("generate") + "/" + tenant.name;
    fs::copy(dir, copy, fs::copy_options::recursive);
    Result<TenantStore::Opened> opened =
        TenantStore::Open(copy, WalFsync::kNever, 0);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const std::string expect = root + "/expect/" + tenant.name;
    WriteFileBytes(expect + ".txt", DescribeRecovery(*opened));
    std::string export_bytes;
    opened->store->ingestor().Snapshot()->SerializeTo(&export_bytes);
    WriteFileBytes(expect + ".export", export_bytes);
  }
  for (const HashFamily family : kFamilies) {
    const std::string name = std::string("sketch_") + FamilyName(family);
    Result<CountSketch> sketch = ReadSketchFile(root + "/" + name + ".skf");
    ASSERT_TRUE(sketch.ok());
    WriteFileBytes(root + "/expect/" + name + ".txt", DescribeSketch(*sketch));
  }
}

}  // namespace
}  // namespace streamfreq
