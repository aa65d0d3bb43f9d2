// Served workloads: an in-process SfqServer driven over a unix socket by
// two generator threads, one connection each.
//
//   ingest  open loop: 512-item requests due at a fixed item rate; latency
//           is measured from each request's due time, so a stall also
//           charges the requests it delayed. Then a closed-loop capacity
//           phase sends back to back.
//   query   open loop: topk 10 at kQueryRate for the whole run.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <set>
#include <span>
#include <thread>

#include "core/count_sketch.h"
#include "util/logging.h"
#include "workloads.h"

namespace streamfreq::bench {

TenantSpec ServeSpec(uint64_t sketch_seed, size_t tracked) {
  TenantSpec spec;
  spec.depth = 5;
  spec.width = kServeWidth;
  spec.seed = sketch_seed;
  spec.threads = 2;
  spec.batch_items = 2048;
  spec.queue_batches = 64;
  // Not the server default of 1: every published snapshot is retained until
  // the tenant is dropped, which at 1 grows RSS by about 0.5 KB per item.
  spec.publish_every_batches = 64;
  spec.policy = OverflowPolicy::kBlock;
  spec.tracked = tracked;
  return spec;
}

std::unique_ptr<ServedTenant> ServedTenant::Start(const TenantSpec& spec,
                                                  bool durable) {
  static std::atomic<uint64_t> instance{0};
  const std::string stem = RunDir() + "/sfq-" + std::to_string(::getpid()) +
                           "-" + std::to_string(instance.fetch_add(1));
  std::unique_ptr<ServedTenant> t(new ServedTenant());
  t->socket_ = stem + ".sock";
  ServerOptions options;
  options.socket_path = t->socket_;
  if (durable) {
    t->data_dir_ = stem + ".data";
    options.service.data_dir = t->data_dir_;
    options.service.fsync = WalFsync::kBatch;
  }
  auto server = SfqServer::Start(options);
  SFQ_CHECK_OK(server.status());
  t->server_ = std::move(*server);
  auto ingest = SfqClient::Connect(t->socket_);
  SFQ_CHECK_OK(ingest.status());
  t->ingest_.emplace(std::move(*ingest));
  auto query = SfqClient::Connect(t->socket_);
  SFQ_CHECK_OK(query.status());
  t->query_.emplace(std::move(*query));
  SFQ_CHECK_OK(t->ingest_->CreateTenant(kTenant, spec));
  return t;
}

ServedTenant::~ServedTenant() {
  ingest_.reset();
  query_.reset();
  server_->RequestStop();
  server_.reset();
  std::error_code ec;
  std::filesystem::remove(socket_, ec);
  if (!data_dir_.empty()) std::filesystem::remove_all(data_dir_, ec);
}

namespace {

/// Copies the next kRequestItems of the endless (cyclic) stream into
/// `items` and advances `cursor`.
void NextChunk(const Stream& stream, uint64_t* cursor,
               std::vector<ItemId>* items) {
  items->resize(kRequestItems);
  for (size_t k = 0; k < kRequestItems; ++k) {
    (*items)[k] = stream[(*cursor + k) % stream.size()];
  }
  *cursor += kRequestItems;
}

void SleepUntilNs(int64_t due_ns) {
  const int64_t now = NowNs();
  if (due_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
  }
}

bool Ok(const Result<Response>& r) { return r.ok() && r->ok(); }

// Latency percentiles are taken per second of the open loop, throughput per
// half second of the capacity phase; the metrics are medians over these.
constexpr int64_t kWindowNs = 1000000000;
constexpr int64_t kCapacityWindowNs = 500000000;
// A run is this many episodes, each on a fresh server instance: how fast
// one instance serves varies by about 10% from instance to instance, even
// within one process, and the median over windows of three instances
// averages that out.
constexpr int kEpisodes = 3;
constexpr int kSetupPerEpisode = 5;

}  // namespace

namespace {

/// What one episode observed beyond the samples it appends to the run.
struct Episode {
  uint64_t items = 0;  ///< items sent, open loop and capacity phase
  uint64_t epoch = 0;  ///< statsz snapshot epoch after seal
  double retained_mb = 0;
  double late_max_ns = 0;
  uint64_t backlog_max = 0;
  uint64_t failed = 0;
  uint64_t queries = 0;
  double peak_rss_mb = 0;
  double recall = 0;
  double recall_plain = 0;
};

/// One server instance: the open loop for 0.6 of `seconds`, then the
/// capacity phase for 0.3, then the gates. Samples, windows, spans and gate
/// failures are appended to `e`; round-trip times to `rpc_us`.
Episode RunEpisode(const Workload& w, const TenantSpec& spec, const Inputs& in,
                   double seconds, bool trace, uint64_t id_base, E2E* e,
                   std::vector<double>* rpc_us) {
  Episode ep;
  const int64_t interval_ns =
      static_cast<int64_t>(static_cast<double>(kRequestItems) / w.rate * 1e9);
  const int64_t query_interval_ns = static_cast<int64_t>(1e9 / kQueryRate);
  const int64_t capacity_ns = static_cast<int64_t>(0.3 * seconds * 1e9);
  ResetPeakRss();
  const auto served = ServedTenant::Start(spec, w.durable);
  const int64_t t0 = NowNs() + 1000000;
  const int64_t open_end = t0 + static_cast<int64_t>(0.6 * seconds * 1e9);
  std::atomic<bool> ingest_done{false};
  uint64_t cursor = 0;
  uint64_t ingest_failed = 0, query_failed = 0;
  // Request ids of the query side start half way up this episode's range.
  const uint64_t query_base = id_base + (uint64_t{1} << 40);
  Tracer ingest_tracer(trace, id_base);
  Tracer query_tracer(trace, query_base);

  std::thread ingest([&] {
    Request request;
    request.op = Opcode::kIngest;
    request.tenant = ServedTenant::kTenant;
    uint64_t n = 0;
    int64_t window_end = t0;
    for (int64_t due = t0; due < open_end;
         due = t0 + static_cast<int64_t>(n * interval_ns)) {
      if (due >= window_end) {
        e->ingest_windows.push_back(e->ingest_us.size());
        window_end += kWindowNs;
      }
      if (due > NowNs()) {
        SleepUntilNs(due);
        ep.late_max_ns =
            std::max(ep.late_max_ns, static_cast<double>(NowNs() - due));
      }
      NextChunk(in.stream, &cursor, &request.items);
      const uint64_t id = id_base + ++n;
      const uint64_t root = ingest_tracer.Open("gen.ingest", 0, id, due);
      const int64_t r0 = NowNs();
      const uint64_t rpc = ingest_tracer.Open("server.rpc", root, id, r0);
      const auto resp = served->ingest().Call(request);
      const int64_t end = NowNs();
      ingest_tracer.Close(rpc, end);
      ingest_tracer.Close(root, end);
      e->ingest_us.push_back(static_cast<double>(end - due) * 1e-3);
      rpc_us->push_back(static_cast<double>(end - r0) * 1e-3);
      if (!Ok(resp)) ++ingest_failed;
    }
    // Peak RSS over the fixed offered load: the capacity phase ingests as
    // much as it can, and retained snapshots grow with every item.
    ep.peak_rss_mb = PeakRssGrowthMb();
    const int64_t capacity_end = NowNs() + capacity_ns;
    while (NowNs() < capacity_end) {
      const uint64_t w_items = cursor;
      const int64_t w0 = NowNs();
      int64_t w1 = w0;
      while (w1 - w0 < kCapacityWindowNs) {
        NextChunk(in.stream, &cursor, &request.items);
        if (!Ok(served->ingest().Call(request))) ++ingest_failed;
        w1 = NowNs();
      }
      e->rates.push_back(static_cast<double>(cursor - w_items) /
                         (static_cast<double>(w1 - w0) * 1e-9));
    }
    ingest_done.store(true);
  });

  std::thread query([&] {
    Request topk;
    topk.op = Opcode::kTopK;
    topk.tenant = ServedTenant::kTenant;
    topk.k = kTopKAggregate;
    int64_t window_end = t0;
    for (uint64_t j = 0; !ingest_done.load(); ++j) {
      const int64_t due = t0 + static_cast<int64_t>(j) * query_interval_ns;
      if (due >= window_end && due < open_end) {
        e->query_windows.push_back(e->query_us.size());
        window_end += kWindowNs;
      }
      SleepUntilNs(due);
      const uint64_t id = query_base + j + 1;
      const uint64_t root = query_tracer.Open("gen.query", 0, id, due);
      const uint64_t rpc = query_tracer.Open("server.rpc", root, id);
      const auto resp = served->query().Call(topk);
      const int64_t end = NowNs();
      query_tracer.Close(rpc, end);
      query_tracer.Close(root, end);
      ++ep.queries;
      if (!Ok(resp)) ++query_failed;
      if (due < open_end) {
        e->query_us.push_back(static_cast<double>(end - due) * 1e-3);
      }
      // Tracing also samples the ingest backlog (offered, not yet folded).
      if (trace && j % 10 == 0) {
        const auto stats = served->query().Statsz();
        uint64_t offered = 0, ingested = 0;
        if (stats.ok() && JsonU64(*stats, "offered_items", &offered) &&
            JsonU64(*stats, "items_ingested", &ingested) &&
            offered > ingested) {
          ep.backlog_max = std::max(ep.backlog_max, offered - ingested);
        }
      }
    }
  });
  ingest.join();
  query.join();
  ep.items = cursor;
  ep.failed = ingest_failed + query_failed;
  e->spans.insert(e->spans.end(), ingest_tracer.spans().begin(),
                  ingest_tracer.spans().end());
  e->spans.insert(e->spans.end(), query_tracer.spans().begin(),
                  query_tracer.spans().end());

  // Gates: seal, then the served state must account for every item sent
  // and its sketch must equal a sequential reference bit for bit.
  if (ep.failed > 0) {
    e->gate_failures.push_back(std::to_string(ep.failed) +
                               " requests got a non-OK response");
  }
  SfqClient& client = served->ingest();
  if (!client.Seal(ServedTenant::kTenant).ok()) {
    e->gate_failures.push_back("seal failed");
  }
  const auto stats = client.Statsz();
  uint64_t offered = 0, ingested = 0;
  if (!stats.ok() || !JsonU64(*stats, "offered_items", &offered) ||
      !JsonU64(*stats, "items_ingested", &ingested) ||
      !JsonU64(*stats, "epoch", &ep.epoch)) {
    e->gate_failures.push_back("statsz unavailable");
  } else if (offered != cursor || ingested != cursor) {
    e->gate_failures.push_back(
        "statsz offered_items " + std::to_string(offered) +
        " / items_ingested " + std::to_string(ingested) +
        " != items sent " + std::to_string(cursor));
  }

  const uint64_t passes = cursor / in.stream.size();
  const size_t tail = static_cast<size_t>(cursor % in.stream.size());
  auto ref = CountSketch::Make(Geometry(spec.depth, spec.width, spec.seed));
  SFQ_CHECK_OK(ref.status());
  ref->BatchAdd(in.stream, static_cast<Count>(passes));
  ref->BatchAdd(std::span<const ItemId>(in.stream.data(), tail));
  std::string want;
  ref->SerializeTo(&want);
  Request req;
  req.tenant = ServedTenant::kTenant;
  req.op = Opcode::kExport;
  const auto exported = client.Call(req);
  if (!Ok(exported) || exported->blob != want) {
    e->gate_failures.push_back(
        "sealed Export differs from the sequential reference sketch");
  }
  ep.retained_mb =
      static_cast<double>(ep.epoch) * static_cast<double>(want.size()) / 1e6;

  ExactCounter exact;
  for (size_t i = 0; i < in.stream.size(); ++i) {
    exact.Add(in.stream[i], static_cast<Count>(passes) + (i < tail ? 1 : 0));
  }
  const auto top = client.TopK(ServedTenant::kTenant, kTopKAggregate);
  if (!top.ok()) {
    e->gate_failures.push_back("topk after seal failed");
  } else {
    const auto exact_top = exact.TopK(kTopKAggregate);
    ep.recall = Recall(*top, exact_top, kRecallSlack);
    ep.recall_plain = Recall(*top, exact_top, 0);
  }
  return ep;
}

}  // namespace

E2E RunServe(const Workload& w, const RunOptions& opts, const Inputs& in,
             double seconds, bool trace) {
  E2E e;
  const TenantSpec spec = ServeSpec(in.sketch_seed, w.tracked);
  std::vector<double> rpc_us;
  const size_t open_requests = static_cast<size_t>(
      0.6 * seconds * w.rate / static_cast<double>(kRequestItems)) + kEpisodes;
  Presize(&e.ingest_us, open_requests);
  Presize(&rpc_us, open_requests);
  Presize(&e.query_us, static_cast<size_t>(seconds * kQueryRate) + kEpisodes);

  std::vector<Episode> episodes;
  for (int k = 0; k < kEpisodes; ++k) {
    // Set-up is the server start, both connections and the tenant create
    // (plus its first snapshot when durable), timed before every episode so
    // its median sees the machine as the episodes do.
    for (int rep = 0; rep < (opts.smoke ? 1 : kSetupPerEpisode); ++rep) {
      const int64_t s0 = NowNs();
      const auto served = ServedTenant::Start(spec, w.durable);
      e.setup_s.push_back(static_cast<double>(NowNs() - s0) * 1e-9);
    }
    episodes.push_back(RunEpisode(w, spec, in, seconds / kEpisodes, trace,
                                  static_cast<uint64_t>(k + 1) << 44, &e,
                                  &rpc_us));
  }
  std::vector<double> peaks, recalls, recalls_plain, retained;
  uint64_t items = 0, epochs = 0;
  double late_max_ns = 0, backlog_max = 0;
  for (const Episode& ep : episodes) {
    peaks.push_back(ep.peak_rss_mb);
    recalls.push_back(ep.recall);
    recalls_plain.push_back(ep.recall_plain);
    retained.push_back(ep.retained_mb);
    items += ep.items;
    epochs += ep.epoch;
    late_max_ns = std::max(late_max_ns, ep.late_max_ns);
    backlog_max = std::max(backlog_max, static_cast<double>(ep.backlog_max));
    e.failed += ep.failed;
    e.attempted += ep.queries;
  }
  e.attempted += e.ingest_us.size();
  e.peak_rss_mb = Median(peaks);
  e.recall = Median(recalls);
  e.recall_plain = Median(recalls_plain);
  e.unit_cost = Mean(e.ingest_us);
  e.layer["gen.late_max_us"] = late_max_ns * 1e-3;
  e.layer["concurrent.publications_per_1k_items"] =
      static_cast<double>(epochs) / static_cast<double>(items) * 1e3;
  e.layer["concurrent.retained_snapshot_mb"] = Median(retained);
  if (trace) {
    e.layer["concurrent.backlog_items_max"] = backlog_max;
    e.layer["server.rpc_us_p50"] = Percentile(rpc_us, 0.5);
    e.layer["server.rpc_us_p99"] = Percentile(rpc_us, 0.99);
    e.layer["server.rpc_samples"] = static_cast<double>(rpc_us.size());
    e.layer["_rpc_us_mean"] = Mean(rpc_us);
  }
  return e;
}

std::vector<LedgerRow> ServeLedger(const E2E& traced, const Metrics& layers) {
  // Only the open-loop ingest requests: their root is gen.ingest.
  std::set<uint64_t> ingest_requests;
  for (const Span& s : traced.spans) {
    if (s.parent == 0 && std::string(s.name) == "gen.ingest") {
      ingest_requests.insert(s.request);
    }
  }
  std::vector<Span> spans;
  for (const Span& s : traced.spans) {
    if (ingest_requests.count(s.request) > 0) spans.push_back(s);
  }
  const auto totals = TotalsByName(spans);
  const double n = static_cast<double>(ingest_requests.size());
  const auto per_request = [&](const char* name, bool self) {
    const auto it = totals.find(name);
    if (it == totals.end() || n == 0) return 0.0;
    return (self ? it->second.self_ns : it->second.total_ns) / n * 1e-3;
  };
  // The rpc span (SfqClient::Call) splits into the request's encode and
  // decode and the server's handle, timed by the sweep; what is left of it
  // (socket, thread handoff, queueing behind the tenant lock, the small
  // response's codec) is the residual.
  std::vector<LedgerRow> rows = {
      {"gen.wait", per_request("gen.ingest", true),
       "spans: due time to send (behind schedule or generator late)"},
      {"server.encode", layers.at("server.encode_us_per_request"),
       "sweep: Request::EncodeTo + EncodeFrame"},
      {"server.decode", layers.at("server.decode_us_per_request"),
       "sweep: DecodeFrame + Request::Decode"},
      {"server.handle", layers.at("server.handle_us_per_request"),
       "sweep: SketchService::Handle(ingest) on a direct service"},
  };
  rows.push_back(Residual("serve.unattributed", traced.unit_cost, rows));
  return rows;
}

}  // namespace streamfreq::bench
