// The outside-in layer sweep: every per-layer metric is the time of a
// layer's public calls, made from here on the workload's own stream.
//
//   hash, core   at the workload's geometry (t, b, l)
//   concurrent   a shadow ParallelIngestor with the served tenant's options
//   server       codec, SketchService::Handle, an rpc probe, WAL, snapshot,
//                at the served tenant's spec (durable for serve-durable)
//   dist         a 16-leaf fanout-4 MergeTreeSim at the tree's geometry
//
// Each timed call runs kReps times and the median is kept, so one slow
// repetition does not move a layer's number.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <span>
#include <thread>

#include "concurrent/parallel_ingestor.h"
#include "core/count_sketch.h"
#include "core/space_saving.h"
#include "core/top_k_tracker.h"
#include "dist/delta.h"
#include "dist/merge_tree.h"
#include "dist/tree.h"
#include "hash/batch_hash.h"
#include "server/service.h"
#include "server/snapshotter.h"
#include "server/wal.h"
#include "util/logging.h"
#include "workloads.h"

namespace streamfreq::bench {

namespace {

constexpr int kReps = 3;
constexpr int kCallReps = 9;
// The rpc probe of workloads that are not served: paced well below the
// server's capacity, so it measures an unloaded round trip.
constexpr double kProbeRequestsPerS = 4000;

CountSketch MakeSketch(const CountSketchParams& params) {
  auto sketch = CountSketch::Make(params);
  SFQ_CHECK_OK(sketch.status());
  return std::move(*sketch);
}

/// Median over `reps` runs of `fn`, in ns.
template <typename Fn>
double MedianNs(int reps, Fn&& fn) {
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    const int64_t t0 = NowNs();
    fn();
    ns.push_back(static_cast<double>(NowNs() - t0));
  }
  return Median(ns);
}

std::vector<std::span<const ItemId>> Requests(std::span<const ItemId> items) {
  std::vector<std::span<const ItemId>> out;
  for (size_t pos = 0; pos + kRequestItems <= items.size();
       pos += kRequestItems) {
    out.push_back(items.subspan(pos, kRequestItems));
  }
  return out;
}

void SweepHashAndCore(const Workload& w, const CountSketchParams& g,
                      std::span<const ItemId> items, Metrics* m) {
  const double n = static_cast<double>(items.size());

  CountSketch scalar = MakeSketch(g);
  const double add = MedianNs(kReps, [&] {
    for (ItemId item : items) scalar.Add(item);
  }) / n;
  (*m)["core.add_ns_per_item"] = add;

  // One untimed pass classifies every arrival; the untracked ones are the
  // arrivals on which AddTracked also calls Estimate.
  std::vector<bool> untracked(items.size());
  uint64_t evictions = 0;
  {
    auto tracker = CountSketchTopK::Make(g, w.tracked);
    SFQ_CHECK_OK(tracker.status());
    for (size_t i = 0; i < items.size(); ++i) {
      untracked[i] = !tracker->IsTracked(items[i]);
      if (tracker->AddTracked(items[i]).evicted != 0) ++evictions;
    }
  }
  const double calls =
      static_cast<double>(std::count(untracked.begin(), untracked.end(), true));
  const double calls_per_item = calls / n;
  (*m)["core.tracker_hit_frac"] = 1 - calls_per_item;
  (*m)["core.estimate_calls_per_item"] = calls_per_item;
  (*m)["core.evictions_per_1k_items"] =
      static_cast<double>(evictions) / n * 1e3;
  // Estimate as AddTracked calls it: right after the Add of the same item,
  // whose counter lines are then in cache. Its cost is the difference to
  // the plain Add loop.
  const double add_estimate = MedianNs(kReps, [&] {
    for (size_t i = 0; i < items.size(); ++i) {
      scalar.Add(items[i]);
      if (untracked[i]) KeepLive(scalar.Estimate(items[i]));
    }
  }) / n;
  const double estimate =
      calls > 0 ? (add_estimate - add) / calls_per_item : 0;
  (*m)["core.estimate_ns_per_call"] = estimate;

  std::vector<double> tracker_ns;
  for (int r = 0; r < kReps; ++r) {
    auto tracker = CountSketchTopK::Make(g, w.tracked);
    SFQ_CHECK_OK(tracker.status());
    const int64_t t0 = NowNs();
    for (ItemId item : items) tracker->AddTracked(item);
    tracker_ns.push_back(static_cast<double>(NowNs() - t0) / n);
  }
  const double tracker = Median(tracker_ns);
  (*m)["core.tracker_ns_per_item"] = tracker;
  (*m)["core.tracker_self_ns_per_item"] = tracker - add_estimate;

  std::vector<double> ss_ns;
  const auto requests = Requests(items);
  for (int r = 0; r < kReps; ++r) {
    auto ss = SpaceSaving::Make(w.tracked);
    SFQ_CHECK_OK(ss.status());
    const int64_t t0 = NowNs();
    for (std::span<const ItemId> req : requests) ss->BatchAdd(req);
    ss_ns.push_back(static_cast<double>(NowNs() - t0) /
                    static_cast<double>(requests.size() * kRequestItems));
  }
  (*m)["core.space_saving_batch_add_ns_per_item"] = Median(ss_ns);

  // The vector kernels last: they leave the thread's upper vector state
  // dirty, which slows scalar code that runs after them on the same thread.
  SplitMix64 seeder(g.seed);
  std::vector<CarterWegmanHash> hb, hs;
  for (size_t r = 0; r < g.depth; ++r) {
    hb.emplace_back(seeder);
    hs.emplace_back(seeder);
  }
  constexpr size_t kStripe = 1024;
  std::vector<uint64_t> bkt(kStripe);
  std::vector<int64_t> sgn(kStripe);
  const double hash = MedianNs(kReps, [&] {
    for (size_t r = 0; r < g.depth; ++r) {
      for (size_t pos = 0; pos < items.size(); pos += kStripe) {
        const size_t take = std::min(kStripe, items.size() - pos);
        batch_hash::BucketsAndSigns(hb[r], hs[r], items.subspan(pos, take),
                                    g.width, bkt.data(), sgn.data());
        KeepLive(bkt[0]);
      }
    }
  }) / n;
  (*m)["hash.bucket_sign_ns_per_item"] = hash;

  CountSketch batch = MakeSketch(g);
  const double batch_add = MedianNs(kReps, [&] { batch.BatchAdd(items); }) / n;
  (*m)["core.batch_add_ns_per_item"] = batch_add;
  (*m)["core.scatter_ns_per_item"] = batch_add - hash;

  // Whole-sketch calls, on a filled sketch: Subtract and Merge alternate so
  // the counters never drift.
  CountSketch other = batch;
  (*m)["core.subtract_us"] =
      MedianNs(kCallReps, [&] { SFQ_CHECK_OK(batch.Subtract(other)); }) * 1e-3;
  (*m)["core.merge_us"] =
      MedianNs(kCallReps, [&] { SFQ_CHECK_OK(batch.Merge(other)); }) * 1e-3;
  std::string blob;
  (*m)["core.serialize_us"] = MedianNs(kCallReps, [&] {
    blob.clear();
    batch.SerializeTo(&blob);
  }) * 1e-3;
  (*m)["core.deserialize_us"] = MedianNs(kCallReps, [&] {
    auto back = CountSketch::Deserialize(blob);
    SFQ_CHECK_OK(back.status());
  }) * 1e-3;
}

IngestOptions TenantIngestOptions(const TenantSpec& spec) {
  IngestOptions options;
  options.threads = static_cast<size_t>(spec.threads);
  options.batch_items = static_cast<size_t>(spec.batch_items);
  options.queue_batches = static_cast<size_t>(spec.queue_batches);
  options.publish_every_batches =
      static_cast<size_t>(spec.publish_every_batches);
  options.push_timeout_ms = spec.push_timeout_ms;
  options.overflow_policy = spec.policy;
  return options;
}

void SweepConcurrent(const TenantSpec& spec, std::span<const ItemId> items,
                     Metrics* m) {
  const CountSketchParams params =
      Geometry(spec.depth, spec.width, spec.seed);
  auto ingestor = ParallelIngestor<CountSketch>::Make(
      [params] { return CountSketch::Make(params); },
      TenantIngestOptions(spec));
  SFQ_CHECK_OK(ingestor.status());
  uint64_t offered = 0;
  double backlog_max = 0;
  std::vector<double> us;
  for (std::span<const ItemId> req : Requests(items)) {
    const int64_t t0 = NowNs();
    SFQ_CHECK_OK((*ingestor)->Ingest(req));
    us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    offered += req.size();
    backlog_max = std::max(
        backlog_max,
        static_cast<double>(offered - (*ingestor)->ItemsIngested()));
  }
  auto merged = (*ingestor)->Finish();
  SFQ_CHECK_OK(merged.status());
  std::string blob;
  merged->SerializeTo(&blob);
  const double epoch = static_cast<double>((*ingestor)->SnapshotEpoch());
  (*m)["concurrent.ingest_us_per_request"] = Mean(us);
  (*m)["concurrent.backlog_items_max"] = backlog_max;
  (*m)["concurrent.publications_per_1k_items"] =
      epoch / static_cast<double>(offered) * 1e3;
  (*m)["concurrent.retained_snapshot_mb"] =
      epoch * static_cast<double>(blob.size()) / 1e6;
}

std::string ScratchPath(const char* what) {
  return RunDir() + "/" + what + "-" + std::to_string(::getpid());
}

void SweepServer(const Workload& w, const TenantSpec& spec,
                 std::span<const ItemId> items, Metrics* m) {
  const auto requests = Requests(items);
  std::vector<Request> ingest(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ingest[i].op = Opcode::kIngest;
    ingest[i].tenant = ServedTenant::kTenant;
    ingest[i].items.assign(requests[i].begin(), requests[i].end());
  }

  std::vector<std::string> frames(ingest.size());
  std::vector<double> encode, decode;
  for (int r = 0; r < kReps; ++r) {
    int64_t t0 = NowNs();
    for (size_t i = 0; i < ingest.size(); ++i) {
      std::string payload;
      ingest[i].EncodeTo(&payload);
      frames[i] = EncodeFrame(payload);
    }
    encode.push_back(static_cast<double>(NowNs() - t0));
    t0 = NowNs();
    for (const std::string& frame : frames) {
      std::string payload;
      SFQ_CHECK_OK(DecodeFrame(frame, &payload));
      auto req = Request::Decode(payload);
      SFQ_CHECK_OK(req.status());
    }
    decode.push_back(static_cast<double>(NowNs() - t0));
  }
  const double n_req = static_cast<double>(ingest.size());
  (*m)["server.encode_us_per_request"] = Median(encode) / n_req * 1e-3;
  (*m)["server.decode_us_per_request"] = Median(decode) / n_req * 1e-3;

  // SketchService::Handle on a service built directly, no socket.
  {
    ServiceOptions options;
    if (w.durable) {
      options.data_dir = ScratchPath("handle");
      options.fsync = WalFsync::kBatch;
    }
    std::vector<double> handle_us, query_us;
    {
      SketchService service(options);
      Request create;
      create.op = Opcode::kCreateTenant;
      create.tenant = ServedTenant::kTenant;
      create.spec = spec;
      SFQ_CHECK_OK(service.Handle(create).ToStatus());
      Request topk;
      topk.op = Opcode::kTopK;
      topk.tenant = ServedTenant::kTenant;
      topk.k = kTopKAggregate;
      for (size_t i = 0; i < ingest.size(); ++i) {
        int64_t t0 = NowNs();
        SFQ_CHECK_OK(service.Handle(ingest[i]).ToStatus());
        handle_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
        if (i % 20 == 0) {
          t0 = NowNs();
          SFQ_CHECK_OK(service.Handle(topk).ToStatus());
          query_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
        }
      }
    }
    std::error_code ec;
    if (w.durable) std::filesystem::remove_all(options.data_dir, ec);
    (*m)["server.handle_us_per_request"] = Mean(handle_us);
    (*m)["server.query_handle_us"] = Mean(query_us);
  }

  // The rpc probe; served workloads report their own round trips instead.
  if (w.kind != Kind::kServe) {
    const auto served = ServedTenant::Start(spec, false);
    std::vector<double> rpc_us;
    double late_max = 0;
    const int64_t interval = static_cast<int64_t>(1e9 / kProbeRequestsPerS);
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < ingest.size(); ++i) {
      const int64_t due = t0 + static_cast<int64_t>(i) * interval;
      if (due > NowNs()) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
        late_max = std::max(late_max, static_cast<double>(NowNs() - due));
      }
      const int64_t r0 = NowNs();
      const auto resp = served->ingest().Call(ingest[i]);
      rpc_us.push_back(static_cast<double>(NowNs() - r0) * 1e-3);
      SFQ_CHECK(resp.ok() && resp->ok()) << "rpc probe request failed";
    }
    (*m)["server.rpc_us_p50"] = Percentile(rpc_us, 0.5);
    (*m)["server.rpc_us_p99"] = Percentile(rpc_us, 0.99);
    (*m)["server.rpc_samples"] = static_cast<double>(rpc_us.size());
    (*m)["_rpc_us_mean"] = Mean(rpc_us);
    (*m)["gen.late_max_us"] = late_max * 1e-3;
  }

  // Journal appends under the durable tenants' fsync policy.
  {
    const std::string path = ScratchPath("wal");
    auto wal = WalWriter::Open(path, WalFsync::kBatch);
    SFQ_CHECK_OK(wal.status());
    std::vector<double> us;
    uint64_t seqno = 0;
    for (std::span<const ItemId> req : requests) {
      const int64_t t0 = NowNs();
      SFQ_CHECK_OK(wal->Append(++seqno, req));
      us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    }
    (*m)["server.wal_append_us_per_request"] = Mean(us);
    (*m)["server.wal_fsyncs_per_1k_items"] =
        static_cast<double>(wal->fsyncs()) /
        static_cast<double>(requests.size() * kRequestItems) * 1e3;
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }

  // One epoch snapshot of a filled tenant.
  {
    const std::string dir = ScratchPath("snapshot");
    const CountSketchParams params =
        Geometry(spec.depth, spec.width, spec.seed);
    {
      auto store = TenantStore::Create(dir, spec, params, WalFsync::kBatch, 0);
      SFQ_CHECK_OK(store.status());
      auto candidates = SpaceSaving::Make(static_cast<size_t>(spec.tracked));
      SFQ_CHECK_OK(candidates.status());
      for (std::span<const ItemId> req : requests) {
        SFQ_CHECK_OK((*store)->Append(req));
        candidates->BatchAdd(req);
      }
      LedgerSample sample;
      sample.candidate_capacity = spec.tracked;
      sample.candidates = candidates->Entries();
      (*m)["server.snapshot_write_ms"] = MedianNs(kReps, [&] {
        SFQ_CHECK_OK((*store)->WriteSnapshot(sample));
      }) * 1e-6;
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
}

void SweepDist(const Workload& w, uint64_t seed, std::span<const ItemId> items,
               Metrics* m) {
  const CountSketchParams params = Geometry(5, kTreeWidth, seed);
  auto topo = BuildBalancedTree(kTreeLeaves, kTreeFanout);
  SFQ_CHECK_OK(topo.status());
  auto sim = MergeTreeSim::Make(*topo, params, w.tracked);
  SFQ_CHECK_OK(sim.status());
  const size_t per_leaf = items.size() / kTreeLeaves;
  double offer_ns = 0, ship_ns = 0;
  for (size_t off = 0; off < per_leaf; off += kTreeDeltaEvery) {
    const size_t n = std::min(kTreeDeltaEvery, per_leaf - off);
    for (size_t leaf = 0; leaf < kTreeLeaves; ++leaf) {
      const int64_t t0 = NowNs();
      SFQ_CHECK_OK(sim->Offer(topo->leaves[leaf],
                              items.subspan(leaf * per_leaf + off, n)));
      offer_ns += static_cast<double>(NowNs() - t0);
    }
    const int64_t t0 = NowNs();
    SFQ_CHECK_OK(sim->ShipRound().status());
    ship_ns += static_cast<double>(NowNs() - t0);
  }
  sim->Seal();
  const int64_t d0 = NowNs();
  SFQ_CHECK_OK(sim->Drain(4 * (topo->max_depth() + 2)));
  ship_ns += static_cast<double>(NowNs() - d0);
  const double deltas = static_cast<double>(sim->stats().deltas_shipped);
  (*m)["dist.offer_ns_per_item"] =
      offer_ns / static_cast<double>(per_leaf * kTreeLeaves);
  (*m)["dist.ship_round_us_per_delta"] = ship_ns / deltas * 1e-3;

  // One representative delta: a leaf's next kTreeDeltaEvery items against
  // its acked base, with a full coverage map and candidate slate.
  CountSketch base = MakeSketch(params);
  base.BatchAdd(items.first(kTreeDeltaEvery));
  CountSketch current = base;
  current.BatchAdd(items.subspan(kTreeDeltaEvery, kTreeDeltaEvery));
  DeltaPayload payload;
  payload.node_id = 1;
  payload.seqno = 2;
  payload.ledger = DistLedger{kTreeDeltaEvery, 0, kTreeDeltaEvery, 0};
  for (size_t leaf = 0; leaf < kTreeLeaves; ++leaf) {
    payload.covered.push_back(CoverageEntry{leaf + 1, 2 * kTreeDeltaEvery});
  }
  payload.candidates.assign(items.begin(), items.begin() + w.tracked);

  std::optional<CountSketch> delta;
  const double subtract = MedianNs(kCallReps, [&] {
    delta.emplace(current);
    SFQ_CHECK_OK(delta->Subtract(base));
  });
  const double serialize = MedianNs(kCallReps, [&] {
    payload.sketch_blob.clear();
    delta->SerializeTo(&payload.sketch_blob);
  });
  std::string encoded;
  const double encode =
      MedianNs(kCallReps, [&] { encoded = EncodeDelta(payload); });
  std::string frame;
  const double frame_encode =
      MedianNs(kCallReps, [&] { frame = EncodeFrame(encoded); });
  std::string unframed;
  const double frame_decode = MedianNs(
      kCallReps, [&] { SFQ_CHECK_OK(DecodeFrame(frame, &unframed)); });
  std::optional<DeltaPayload> decoded;
  const double decode = MedianNs(kCallReps, [&] {
    auto d = DecodeDelta(unframed);
    SFQ_CHECK_OK(d.status());
    decoded.emplace(std::move(*d));
  });
  std::optional<CountSketch> applied;
  const double deserialize = MedianNs(kCallReps, [&] {
    auto s = CountSketch::Deserialize(decoded->sketch_blob);
    SFQ_CHECK_OK(s.status());
    applied.emplace(std::move(*s));
  });
  CountSketch parent = base;
  const double merge =
      MedianNs(kCallReps, [&] { SFQ_CHECK_OK(parent.Merge(*applied)); });
  (*m)["_ship.subtract_us"] = subtract * 1e-3;
  (*m)["_ship.serialize_us"] = serialize * 1e-3;
  (*m)["_ship.deserialize_us"] = deserialize * 1e-3;
  (*m)["_ship.merge_us"] = merge * 1e-3;
  (*m)["dist.delta_bytes"] = static_cast<double>(encoded.size());
  (*m)["dist.encode_us_per_delta"] = encode * 1e-3;
  (*m)["dist.frame_crc_us_per_delta"] = (frame_encode + frame_decode) * 1e-3;
  (*m)["dist.decode_us_per_delta"] = decode * 1e-3;
  // Per shipped delta: the sender copies and subtracts, serializes, encodes
  // and frames; the parent unframes, decodes, deserializes and merges; the
  // ack merges the delta into the sender's base.
  const double calls_us = (subtract + serialize + encode + frame_encode +
                           frame_decode + decode + deserialize + 2 * merge) *
                          1e-3;
  (*m)["dist.ship_unattributed_us_per_delta"] =
      (*m)["dist.ship_round_us_per_delta"] - calls_us;
}

}  // namespace

Metrics LayerSweep(const Workload& w, const RunOptions& opts,
                   const Inputs& in) {
  Metrics m;
  const size_t cap = opts.smoke ? size_t{1} << 16 : size_t{1} << 20;
  const std::span<const ItemId> items(in.stream.data(),
                                      std::min(cap, in.stream.size()));
  const TenantSpec spec = ServeSpec(in.sketch_seed, w.tracked);
  // Each layer is swept on a fresh thread, which starts with clean vector
  // state whatever the workload ran before on this one (README, "Findings").
  const auto on_fresh_thread = [](const auto& sweep) {
    std::thread(sweep).join();
  };
  on_fresh_thread([&] {
    SweepHashAndCore(w, Geometry(w.depth, w.width, in.sketch_seed), items, &m);
  });
  on_fresh_thread([&] { SweepConcurrent(spec, items, &m); });
  on_fresh_thread([&] { SweepServer(w, spec, items, &m); });
  on_fresh_thread([&] { SweepDist(w, in.sketch_seed, items, &m); });
  return m;
}

}  // namespace streamfreq::bench
