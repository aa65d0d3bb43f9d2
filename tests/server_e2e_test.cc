// End-to-end battery for `sfq serve`: concurrent client threads pushing
// into disjoint and shared tenants while queriers read snapshots, then
// seal + export and judge the served sketches the same way the verify
// layer judges locally built ones — exact bit-identity to a sequential
// reference (linearity) plus the Lemma 4/5 guarantee check against the
// oracle. Runs under ThreadSanitizer via scripts/check.sh (-L concurrent).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/service.h"
#include "stream/zipf.h"
#include "util/failpoint.h"
#include "util/pages.h"
#include "verify/checkers.h"
#include "verify/oracle.h"

namespace streamfreq {
namespace {

// ThreadSanitizer slows everything ~10x; shrink the streams there so the
// concurrent suite stays fast under scripts/check.sh's race sweep.
#if defined(__SANITIZE_THREAD__)
constexpr size_t kStreamItems = 30000;
#else
constexpr size_t kStreamItems = 120000;
#endif

Stream MakeZipfStream(size_t n, uint64_t seed) {
  auto gen = ZipfGenerator::Make(8000, 1.0, seed);
  EXPECT_TRUE(gen.ok());
  return gen->Take(n);
}

struct SizedTenant {
  VerifySetup setup;
  VerifySketchPlan plan;
  TenantSpec spec;
};

// Sizes a tenant's sketch exactly the way the verify layer would size a
// local one (Lemma 5 over the stream's oracle), so the exported sketch can
// be judged against the same bounds.
SizedTenant SizeTenant(const Oracle& oracle, uint64_t seed) {
  SizedTenant sized;
  sized.setup = MakeVerifySetup(/*k=*/10, /*epsilon=*/0.2,
                                /*width_scale=*/1.0, seed, oracle);
  auto plan = PlanVerifyCountSketch(sized.setup);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  sized.plan = *plan;
  sized.spec.depth = sized.plan.params.depth;
  sized.spec.width = sized.plan.params.width;
  sized.spec.seed = sized.plan.params.seed;
  sized.spec.threads = 2;
  sized.spec.tracked = 256;
  return sized;
}

// The sequential reference the server must match bit for bit: linearity
// makes merged parallel ingest equal to one-thread ingest of the same
// multiset, byte-identical once serialized.
std::string ReferenceBytes(const CountSketchParams& params,
                           const Stream& stream) {
  auto reference = CountSketch::Make(params);
  EXPECT_TRUE(reference.ok());
  for (const ItemId q : stream) reference->Add(q, 1);
  std::string bytes;
  reference->SerializeTo(&bytes);
  return bytes;
}

std::string SketchBytes(const CountSketch& sketch) {
  std::string bytes;
  sketch.SerializeTo(&bytes);
  return bytes;
}

// Pulls `"field":<integer>` out of the statsz JSON, scoped to one tenant's
// object so equal field names across tenants cannot alias.
int64_t StatszField(const std::string& json, const std::string& tenant,
                    const std::string& field) {
  const size_t tenant_at = json.find("\"" + tenant + "\":{");
  EXPECT_NE(tenant_at, std::string::npos) << tenant << " not in " << json;
  if (tenant_at == std::string::npos) return -1;
  const size_t scope_end = json.find('}', tenant_at);
  const size_t field_at = json.find("\"" + field + "\":", tenant_at);
  EXPECT_NE(field_at, std::string::npos) << field << " not in " << json;
  if (field_at == std::string::npos || field_at > scope_end) return -1;
  return std::strtoll(json.c_str() + field_at + field.size() + 3, nullptr, 10);
}

class ServerE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.socket_path =
        ::testing::TempDir() + "/sfq_e2e_" +
        std::to_string(::getpid()) + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".sock";
    auto server = SfqServer::Start(options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->RequestStop();
  }

  SfqClient MustConnect() {
    auto client = SfqClient::Connect(server_->socket_path());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  std::unique_ptr<SfqServer> server_;
};

// Four writer threads, each owning a tenant, with two reader threads
// hammering snapshot queries the whole time. Every query must succeed with
// a non-decreasing epoch, and every sealed tenant must export a sketch
// bit-identical to its sequential reference and clean under the oracle
// check.
TEST_F(ServerE2eTest, DisjointTenantsConcurrentWritersMatchOracles) {
  constexpr size_t kWriters = 4;
  std::vector<Stream> streams;
  std::vector<std::unique_ptr<Oracle>> oracles;
  std::vector<SizedTenant> sized;
  std::vector<std::string> tenants;
  {
    SfqClient admin = MustConnect();
    for (size_t w = 0; w < kWriters; ++w) {
      streams.push_back(MakeZipfStream(kStreamItems, 100 + w));
      oracles.push_back(std::make_unique<Oracle>(streams.back()));
      sized.push_back(SizeTenant(*oracles.back(), 100 + w));
      tenants.push_back("writer-" + std::to_string(w));
      ASSERT_TRUE(admin.CreateTenant(tenants.back(), sized.back().spec).ok());
    }
  }

  std::vector<Status> writer_status(kWriters);
  std::atomic<bool> writers_done{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([this, &writer_status, &streams, &tenants, w] {
      auto client = SfqClient::Connect(server_->socket_path());
      if (!client.ok()) {
        writer_status[w] = client.status();
        return;
      }
      writer_status[w] =
          client->Ingest(tenants[w], std::span<const ItemId>(streams[w]));
    });
  }

  // Readers: every query OK, epochs never go backwards per tenant.
  std::vector<Status> reader_status(2);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < reader_status.size(); ++r) {
    readers.emplace_back([this, &reader_status, &tenants, &writers_done, r] {
      auto client = SfqClient::Connect(server_->socket_path());
      if (!client.ok()) {
        reader_status[r] = client.status();
        return;
      }
      std::vector<uint64_t> last_epoch(tenants.size(), 0);
      while (!writers_done.load(std::memory_order_acquire)) {
        for (size_t t = 0; t < tenants.size(); ++t) {
          uint64_t epoch = 0;
          auto top = client->TopK(tenants[t], 5, &epoch);
          if (!top.ok()) {
            reader_status[r] = top.status();
            return;
          }
          if (epoch < last_epoch[t]) {
            reader_status[r] = Status::Internal(
                "epoch went backwards on " + tenants[t]);
            return;
          }
          last_epoch[t] = epoch;
          auto estimate = client->Estimate(tenants[t], 1, &epoch);
          if (!estimate.ok()) {
            reader_status[r] = estimate.status();
            return;
          }
        }
      }
    });
  }

  for (std::thread& t : writers) t.join();
  writers_done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  for (size_t w = 0; w < kWriters; ++w) {
    ASSERT_TRUE(writer_status[w].ok()) << writer_status[w].ToString();
  }
  for (const Status& s : reader_status) ASSERT_TRUE(s.ok()) << s.ToString();

  SfqClient admin = MustConnect();
  for (size_t w = 0; w < kWriters; ++w) {
    auto sealed_epoch = admin.Seal(tenants[w]);
    ASSERT_TRUE(sealed_epoch.ok()) << sealed_epoch.status().ToString();

    auto exported = admin.Export(tenants[w]);
    ASSERT_TRUE(exported.ok()) << exported.status().ToString();
    EXPECT_EQ(SketchBytes(*exported),
              ReferenceBytes(sized[w].plan.params, streams[w]))
        << tenants[w] << ": served sketch is not bit-identical to the "
        << "sequential reference";

    const std::vector<Violation> violations = CheckCountSketchAgainstOracle(
        *exported, *oracles[w], sized[w].setup, sized[w].plan.lemma_width);
    EXPECT_TRUE(violations.empty())
        << tenants[w] << ": " << violations.size() << " violations, first: "
        << FormatViolation(violations.front());
  }

  // Conservation, as served by /statsz: block-policy tenants admit
  // everything they ack, so offered == ingested and nothing was dropped.
  auto statsz = admin.Statsz();
  ASSERT_TRUE(statsz.ok()) << statsz.status().ToString();
  for (size_t w = 0; w < kWriters; ++w) {
    EXPECT_EQ(StatszField(*statsz, tenants[w], "offered_items"),
              static_cast<int64_t>(kStreamItems));
    EXPECT_EQ(StatszField(*statsz, tenants[w], "items_ingested"),
              static_cast<int64_t>(kStreamItems));
    EXPECT_EQ(StatszField(*statsz, tenants[w], "rejected_items"), 0);
    EXPECT_EQ(StatszField(*statsz, tenants[w], "shed_items"), 0);
  }
}

// Four writers interleave disjoint slices of ONE stream into a shared
// tenant. By linearity the merged result must equal the one-thread
// sequential sketch of the whole stream, bit for bit, no matter how the
// slices raced.
TEST_F(ServerE2eTest, SharedTenantSlicesMergeToSequential) {
  constexpr size_t kWriters = 4;
  const Stream stream = MakeZipfStream(kStreamItems, 7);
  const Oracle oracle(stream);
  const SizedTenant sized = SizeTenant(oracle, 7);
  const std::string tenant = "shared";
  {
    SfqClient admin = MustConnect();
    ASSERT_TRUE(admin.CreateTenant(tenant, sized.spec).ok());
  }

  const size_t slice = stream.size() / kWriters;
  std::vector<Status> writer_status(kWriters);
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([this, &writer_status, &stream, &tenant, slice, w] {
      auto client = SfqClient::Connect(server_->socket_path());
      if (!client.ok()) {
        writer_status[w] = client.status();
        return;
      }
      const size_t begin = w * slice;
      const size_t end = w + 1 == kWriters ? stream.size() : begin + slice;
      writer_status[w] = client->Ingest(
          tenant, std::span<const ItemId>(stream).subspan(begin, end - begin));
    });
  }
  for (std::thread& t : writers) t.join();
  for (const Status& s : writer_status) ASSERT_TRUE(s.ok()) << s.ToString();

  SfqClient admin = MustConnect();
  ASSERT_TRUE(admin.Seal(tenant).ok());
  auto exported = admin.Export(tenant);
  ASSERT_TRUE(exported.ok()) << exported.status().ToString();
  EXPECT_EQ(SketchBytes(*exported), ReferenceBytes(sized.plan.params, stream));

  const std::vector<Violation> violations = CheckCountSketchAgainstOracle(
      *exported, oracle, sized.setup, sized.plan.lemma_width);
  EXPECT_TRUE(violations.empty()) << violations.size() << " violations";
}

// Mark-then-diff over the wire: after MarkEpoch, the max-change ranking is
// the sketch of the delta stream alone (Subtract cancels the prefix), so a
// planted heavy item in the second half must rank first with roughly its
// true delta count.
TEST_F(ServerE2eTest, MaxChangeFindsTheDeltaHeavyHitter) {
  constexpr ItemId kHeavyItem = 987654321;
  // Must out-count the delta stream's own zipf head (~11% of the half) to
  // pin the top max-change rank deterministically.
  constexpr Count kHeavyCount = 12000;
  const Stream before = MakeZipfStream(kStreamItems / 2, 21);
  Stream after = MakeZipfStream(kStreamItems / 2, 22);
  after.insert(after.end(), static_cast<size_t>(kHeavyCount), kHeavyItem);

  Stream combined = before;
  combined.insert(combined.end(), after.begin(), after.end());
  const Oracle oracle(combined);
  const SizedTenant sized = SizeTenant(oracle, 21);
  const std::string tenant = "delta";

  SfqClient client = MustConnect();
  ASSERT_TRUE(client.CreateTenant(tenant, sized.spec).ok());
  ASSERT_TRUE(client.Ingest(tenant, std::span<const ItemId>(before)).ok());
  auto marked = client.MarkEpoch(tenant);
  ASSERT_TRUE(marked.ok()) << marked.status().ToString();
  ASSERT_TRUE(client.Ingest(tenant, std::span<const ItemId>(after)).ok());
  ASSERT_TRUE(client.Seal(tenant).ok());

  auto changes = client.MaxChange(tenant, 5);
  ASSERT_TRUE(changes.ok()) << changes.status().ToString();
  ASSERT_FALSE(changes->empty());
  EXPECT_EQ(changes->front().item, kHeavyItem);
  const Oracle delta_oracle(after);
  const Count true_delta = delta_oracle.CountOf(kHeavyItem);
  EXPECT_NEAR(static_cast<double>(changes->front().count),
              static_cast<double>(true_delta), 0.2 * true_delta);
}

// A wire k whose 3k candidate slate wraps size_t (0x5555555555555556 * 3 is
// 2 mod 2^64) still ranks every candidate instead of a two-entry slate.
TEST_F(ServerE2eTest, HugeKRanksEveryCandidate) {
  constexpr uint64_t kWrappingK = 0x5555555555555556ULL;
  constexpr ItemId kDistinct = 20;
  SfqClient client = MustConnect();
  TenantSpec spec;
  spec.threads = 1;
  ASSERT_TRUE(client.CreateTenant("wide", spec).ok());
  ASSERT_TRUE(client.MarkEpoch("wide").ok());
  Stream stream;
  for (ItemId q = 1; q <= kDistinct; ++q) {
    stream.insert(stream.end(), static_cast<size_t>(10 * q), q);
  }
  ASSERT_TRUE(client.Ingest("wide", std::span<const ItemId>(stream)).ok());
  ASSERT_TRUE(client.Seal("wide").ok());

  auto top = client.TopK("wide", kWrappingK);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(top->size(), kDistinct);
  auto changes = client.MaxChange("wide", kWrappingK);
  ASSERT_TRUE(changes.ok()) << changes.status().ToString();
  EXPECT_EQ(changes->size(), kDistinct);
  ASSERT_FALSE(top->empty());
  EXPECT_EQ(top->front().item, kDistinct);
}

// A create asking for more counters than the server allows (here 2^34
// buckets per row) is refused with InvalidArgument before any allocation,
// and the server keeps answering on the same connection.
TEST_F(ServerE2eTest, OversizedGeometryIsRefusedAndServerKeepsServing) {
  SfqClient client = MustConnect();
  TenantSpec spec;
  spec.threads = 1;
  spec.width = uint64_t{1} << 34;
  const Status created = client.CreateTenant("huge", spec);
  EXPECT_TRUE(created.IsInvalidArgument()) << created.ToString();
  spec.width = 0;
  spec.depth = uint64_t{1} << 40;
  EXPECT_TRUE(client.CreateTenant("deep", spec).IsInvalidArgument());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.TopK("huge", 5).status().IsNotFound());
}

// The cap covers the whole tenant, not one array: sixteen workers over
// 2^24-counter sketches would hold 18 such arrays (2.25 GiB), so the create
// is refused before any of them is allocated.
TEST_F(ServerE2eTest, CounterCapCoversEveryArrayOfATenant) {
  SfqClient client = MustConnect();
  TenantSpec spec;
  spec.threads = 16;
  spec.depth = 4;
  spec.width = uint64_t{1} << 22;
  const Status created = client.CreateTenant("wide16", spec);
  EXPECT_TRUE(created.IsInvalidArgument()) << created.ToString();
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.TopK("wide16", 5).status().IsNotFound());
  spec.threads = 1;
  spec.width = 4096;
  EXPECT_TRUE(client.CreateTenant("narrow", spec).ok());
}

// The cap counts threads + 2 arrays (worker sketches, the latest merged
// snapshot, one pinned superseded snapshot) for every tenant: a durable
// tenant's snapshots come from the same ingestor, so it holds no extra
// array. One
// counter past the cap is refused, in memory and durable alike.
TEST(CounterCapTest, ThreadsPlusTwoArraysForEveryTenant) {
  const std::string data_dir = ::testing::TempDir() + "/sfq_cap_" +
                               std::to_string(::getpid());
  std::filesystem::remove_all(data_dir);
  for (const bool durable : {false, true}) {
    ServiceOptions options;
    if (durable) options.data_dir = data_dir;
    SketchService service(options);
    Request request;
    request.op = Opcode::kCreateTenant;
    request.tenant = durable ? "durable" : "memory";
    request.spec.threads = 14;  // 16 arrays
    request.spec.depth = 1;
    request.spec.width = (uint64_t{1} << 25) / 16 + 1;
    const Response response = service.Handle(request);
    EXPECT_FALSE(response.ok());
    EXPECT_NE(response.message.find("(threads + 2) x depth x width"),
              std::string::npos)
        << response.message;
  }
  std::filesystem::remove_all(data_dir);
}

// One in-memory tenant of an in-process SketchService. Every batch folds
// once (publish_every_batches = 1), so after n ingested batches the
// tenant's epoch settles at 1 + n, and a test can query between folds.
class ServedTenant {
 public:
  static constexpr const char* kName = "served";
  static constexpr uint64_t kBatchItems = 512;

  explicit ServedTenant(SketchService* service) : service_(service) {
    Request create;
    create.op = Opcode::kCreateTenant;
    create.tenant = kName;
    create.spec.depth = 5;
    create.spec.width = 4096;
    create.spec.threads = 2;
    create.spec.batch_items = kBatchItems;
    create.spec.publish_every_batches = 1;
    const Response created = service_->Handle(create);
    EXPECT_TRUE(created.ok()) << created.message;
  }

  // Ingests `batches` full batches and waits until every one has folded.
  void IngestAndSettle(uint64_t batches) {
    Request ingest;
    ingest.op = Opcode::kIngest;
    ingest.tenant = kName;
    ingest.items = MakeZipfStream(batches * kBatchItems, 100 + batches_);
    const Response ingested = service_->Handle(ingest);
    ASSERT_TRUE(ingested.ok()) << ingested.message;
    batches_ += batches;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (Field("epoch") < static_cast<int64_t>(1 + batches_)) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "folds never settled";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // A top-k query; returns the epoch that answered it.
  uint64_t Query() {
    Request topk;
    topk.op = Opcode::kTopK;
    topk.tenant = kName;
    topk.k = 5;
    const Response response = service_->Handle(topk);
    EXPECT_TRUE(response.ok()) << response.message;
    return response.epoch;
  }

  int64_t Field(const std::string& field) const {
    return StatszField(service_->TenantsJson(), kName, field);
  }

 private:
  SketchService* service_;
  uint64_t batches_ = 0;
};

// While server.publish withholds refreshes, every query is served the
// snapshot pinned by the first of them and counted as stale; the served
// epoch stays frozen however many folds land, and never goes backwards.
// Once the fault is disarmed the next query serves the latest epoch.
TEST(ServingCacheTest, WithheldRefreshesFreezeTheServedEpoch) {
  SketchService service;
  ServedTenant tenant(&service);
  tenant.IngestAndSettle(4);
  std::vector<uint64_t> epochs = {tenant.Query()};
  EXPECT_EQ(epochs.back(), 5u);
  EXPECT_EQ(tenant.Field("stale_serves"), 0);
  {
    ScopedFailpoints fp("server.publish=error", 7);
    ASSERT_TRUE(fp.status().ok());
    epochs.push_back(tenant.Query());
    const uint64_t frozen = epochs.back();
    EXPECT_EQ(frozen, 5u);
    for (int round = 0; round < 3; ++round) {
      tenant.IngestAndSettle(4);
      epochs.push_back(tenant.Query());
      EXPECT_EQ(epochs.back(), frozen) << "round " << round;
    }
    EXPECT_EQ(tenant.Field("stale_serves"), 4);
    EXPECT_EQ(tenant.Field("epoch"), 17);
  }
  epochs.push_back(tenant.Query());
  EXPECT_EQ(static_cast<int64_t>(epochs.back()), tenant.Field("epoch"));
  EXPECT_EQ(epochs.back(), 17u);
  EXPECT_EQ(tenant.Field("stale_serves"), 4);
  EXPECT_TRUE(std::is_sorted(epochs.begin(), epochs.end()));
}

// A tenant the fault leaves alone pins nothing between queries, so the
// folds between two queries recycle every superseded snapshot: steady
// ingest and query traffic allocates no counter array after create.
TEST(ServingCacheTest, UnfaultedQueriesBetweenFoldsAllocateNoArray) {
  SketchService service;
  ServedTenant tenant(&service);
  const size_t before = PageBuffer::AllocatedBytes();
  for (int round = 0; round < 40; ++round) {
    tenant.IngestAndSettle(4);
    EXPECT_EQ(tenant.Query(), 1 + 4 * static_cast<uint64_t>(round + 1));
  }
  EXPECT_EQ(PageBuffer::AllocatedBytes() - before, 0u);
  EXPECT_EQ(tenant.Field("stale_serves"), 0);
}

// Lifecycle errors come back as clean statuses on a connection that stays
// usable: unknown tenants, double creation, ingest-after-seal, zero k.
TEST_F(ServerE2eTest, LifecycleErrorsAreCleanAndNonFatal) {
  SfqClient client = MustConnect();
  EXPECT_TRUE(client.TopK("ghost", 5).status().IsNotFound());
  EXPECT_TRUE(client.Seal("ghost").status().IsNotFound());

  TenantSpec spec;
  spec.threads = 1;
  ASSERT_TRUE(client.CreateTenant("once", spec).ok());
  EXPECT_TRUE(client.CreateTenant("once", spec).IsInvalidArgument());

  const Stream stream = MakeZipfStream(2000, 3);
  ASSERT_TRUE(client.Ingest("once", std::span<const ItemId>(stream)).ok());
  ASSERT_TRUE(client.Seal("once").ok());
  EXPECT_TRUE(client.Ingest("once", std::span<const ItemId>(stream))
                  .IsInvalidArgument());
  EXPECT_TRUE(client.TopK("once", 0).status().IsInvalidArgument());
  EXPECT_TRUE(client.MaxChange("once", 5).status().IsInvalidArgument())
      << "maxchange without a mark must fail cleanly";

  // The same connection still answers after every rejection above.
  uint64_t epoch = 0;
  auto estimate = client.Estimate("once", stream[0], &epoch);
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  ASSERT_TRUE(client.DropTenant("once").ok());
  EXPECT_TRUE(client.Estimate("once", 1).status().IsNotFound());
}

}  // namespace
}  // namespace streamfreq
