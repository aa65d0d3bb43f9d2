// In-process workloads: the ApproxTop tracker (track-*) and the merge tree
// (tree-fanout4). Both are closed loops over a fixed input, repeated in
// rounds until the run's time is used; every round rebuilds the structure
// under test, which is what setup_s times.
#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <thread>

#include "core/count_sketch.h"
#include "core/top_k_tracker.h"
#include "dist/merge_tree.h"
#include "dist/tree.h"
#include "util/logging.h"
#include "workloads.h"

namespace streamfreq::bench {

namespace {

// Constructions timed for setup_s before every round, the round's own the
// last: sampled throughout the run, set-up sees the machine in the states
// the measured rounds see, not only in the run's first milliseconds.
constexpr int kSetupPerRound = 3;
// A top-k query every this many ingest requests keeps reads on the path
// without letting them dominate it.
constexpr uint64_t kTrackQueryEvery = 64;
constexpr uint64_t kTreeQueryEvery = 2;

std::string Serialized(const CountSketch& sketch) {
  std::string out;
  sketch.SerializeTo(&out);
  return out;
}

double Elapsed(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

/// Calls `make` kSetupPerRound times, timing each call into `setup_s`, and
/// returns what the last call built.
template <typename Make>
auto TimedBuild(const Make& make, std::vector<double>* setup_s) {
  for (int rep = 1; rep < kSetupPerRound; ++rep) {
    const int64_t s0 = NowNs();
    const auto built = make();
    setup_s->push_back(Elapsed(s0, NowNs()));
  }
  const int64_t s0 = NowNs();
  auto built = make();
  setup_s->push_back(Elapsed(s0, NowNs()));
  return built;
}

}  // namespace

Inputs MakeInputs(const Workload& w, const RunOptions& opts) {
  Inputs in;
  // The smoke run keeps every code path and gate but shrinks the inputs so
  // all five workloads finish in a few seconds.
  const size_t items = opts.smoke ? w.items / 16 : w.items;
  const uint64_t universe =
      opts.smoke ? std::min<uint64_t>(w.universe, uint64_t{1} << 20)
                 : w.universe;
  in.sketch_seed = SubSeed(opts.seed, 2);
  // The tree's leaves split one stream, so every leaf sees the same heavy
  // hitters and the root's stream has the workload's Zipf law.
  const size_t total = w.kind == Kind::kTree ? kTreeLeaves * items : items;
  in.stream = ZipfStream(universe, w.zipf, total, SubSeed(opts.seed, 1));
  return in;
}

E2E RunTrack(const Workload& w, const RunOptions& /*opts*/, const Inputs& in,
             double seconds, bool trace) {
  E2E e;
  Tracer tracer(trace, 0);
  const CountSketchParams params = Geometry(w.depth, w.width, in.sketch_seed);
  const std::span<const ItemId> stream(in.stream);
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::optional<CountSketchTopK> tracker;
  uint64_t request = 0;
  // Room for every sample of a run at up to 20M items/s, or two rounds.
  const size_t max_requests =
      std::max(static_cast<size_t>(seconds * 2e7), 2 * stream.size()) /
      kRequestItems;
  Presize(&e.ingest_us, max_requests);
  Presize(&e.query_us, max_requests / kTrackQueryEvery + 1);
  ResetPeakRss();
  const auto make = [&] {
    auto made = CountSketchTopK::Make(params, w.tracked);
    SFQ_CHECK_OK(made.status());
    return std::move(*made);
  };
  do {
    tracker.reset();
    tracker.emplace(TimedBuild(make, &e.setup_s));
    e.ingest_windows.push_back(e.ingest_us.size());
    e.query_windows.push_back(e.query_us.size());
    const int64_t r0 = NowNs();
    for (size_t pos = 0; pos < stream.size(); pos += kRequestItems) {
      const std::span<const ItemId> chunk =
          stream.subspan(pos, std::min(kRequestItems, stream.size() - pos));
      ++request;
      const int64_t c0 = NowNs();
      const uint64_t root = tracer.Open("track.ingest", 0, request, c0);
      const uint64_t call = tracer.Open("core.AddTracked", root, request, c0);
      for (ItemId item : chunk) tracker->AddTracked(item);
      const int64_t c1 = NowNs();
      tracer.Close(call, c1);
      tracer.Close(root, c1);
      e.ingest_us.push_back(static_cast<double>(c1 - c0) * 1e-3);
      if (request % kTrackQueryEvery == 0) {
        const int64_t q0 = NowNs();
        const uint64_t qroot = tracer.Open("track.query", 0, request, q0);
        const uint64_t qcall =
            tracer.Open("core.Candidates", qroot, request, q0);
        KeepLive(tracker->Candidates(kTopKTracker).size());
        const int64_t q1 = NowNs();
        tracer.Close(qcall, q1);
        tracer.Close(qroot, q1);
        e.query_us.push_back(static_cast<double>(q1 - q0) * 1e-3);
      }
    }
    e.rates.push_back(static_cast<double>(stream.size()) /
                      Elapsed(r0, NowNs()));
  } while (NowNs() < deadline || e.rates.size() < 2);
  e.peak_rss_mb = PeakRssGrowthMb();
  e.attempted = e.ingest_us.size() + e.query_us.size();
  e.unit_cost = 1e9 / Median(e.rates);
  e.spans = tracer.spans();

  // Gate: the tracker's sketch is exactly the batch sketch of its stream.
  // The reference is built on a helper thread, so BatchAdd's vector kernels
  // leave this thread's vector state clean for a traced pass that follows.
  std::string want;
  std::thread([&] {
    auto ref = CountSketch::Make(params);
    SFQ_CHECK_OK(ref.status());
    ref->BatchAdd(stream);
    want = Serialized(*ref);
  }).join();
  if (want != Serialized(tracker->sketch())) {
    e.gate_failures.push_back(
        "CountSketchTopK sketch differs from CountSketch::BatchAdd over the "
        "same items");
  }
  const auto reported = tracker->Candidates(kTopKTracker);
  const auto exact = ExactTop(in.stream, kTopKTracker);
  e.recall = Recall(reported, exact, kRecallSlack);
  e.recall_plain = Recall(reported, exact, 0);
  return e;
}

E2E RunTree(const Workload& w, const RunOptions& /*opts*/, const Inputs& in,
            double seconds, bool trace) {
  E2E e;
  Tracer tracer(trace, 0);
  auto topo = BuildBalancedTree(kTreeLeaves, kTreeFanout);
  SFQ_CHECK_OK(topo.status());
  const CountSketchParams params = Geometry(w.depth, w.width, in.sketch_seed);
  const size_t per_leaf = in.stream.size() / kTreeLeaves;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::optional<MergeTreeSim> sim;
  uint64_t request = 0;
  // Room for every sample of a run at up to 20M items/s, or two rounds.
  const size_t max_waves =
      std::max(static_cast<size_t>(seconds * 2e7), 2 * in.stream.size()) /
      (kTreeDeltaEvery * kTreeLeaves);
  Presize(&e.ingest_us, max_waves * kTreeLeaves);
  Presize(&e.query_us, max_waves / kTreeQueryEvery + 1);
  ResetPeakRss();
  const auto make = [&] {
    auto made = MergeTreeSim::Make(*topo, params, w.tracked);
    SFQ_CHECK_OK(made.status());
    return std::move(*made);
  };
  do {
    sim.reset();
    sim.emplace(TimedBuild(make, &e.setup_s));
    e.ingest_windows.push_back(e.ingest_us.size());
    e.query_windows.push_back(e.query_us.size());
    const int64_t r0 = NowNs();
    uint64_t wave = 0;
    for (size_t off = 0; off < per_leaf; off += kTreeDeltaEvery, ++wave) {
      const size_t n = std::min(kTreeDeltaEvery, per_leaf - off);
      const uint64_t root = tracer.Open("tree.wave", 0, ++request);
      for (size_t leaf = 0; leaf < kTreeLeaves; ++leaf) {
        const int64_t o0 = NowNs();
        const uint64_t call = tracer.Open("dist.Offer", root, request, o0);
        const Status offered = sim->Offer(
            topo->leaves[leaf],
            std::span<const ItemId>(in.stream).subspan(leaf * per_leaf + off,
                                                       n));
        const int64_t o1 = NowNs();
        tracer.Close(call, o1);
        e.ingest_us.push_back(static_cast<double>(o1 - o0) * 1e-3);
        if (!offered.ok()) ++e.failed;
      }
      const uint64_t ship = tracer.Open("dist.ShipRound", root, request);
      if (!sim->ShipRound().ok()) ++e.failed;
      tracer.Close(ship);
      if (wave % kTreeQueryEvery == kTreeQueryEvery - 1) {
        const int64_t q0 = NowNs();
        const uint64_t call = tracer.Open("dist.ApproxTop", root, request, q0);
        KeepLive(sim->ApproxTop(kTopKAggregate).size());
        const int64_t q1 = NowNs();
        tracer.Close(call, q1);
        e.query_us.push_back(static_cast<double>(q1 - q0) * 1e-3);
      }
      tracer.Close(root);
    }
    const uint64_t drain = tracer.Open("dist.SealDrain", 0, ++request);
    sim->Seal();
    for (uint64_t round = 0; !sim->Quiescent(); ++round) {
      if (round > 4 * (topo->max_depth() + 2) || !sim->ShipRound().ok()) {
        ++e.failed;
        break;
      }
    }
    tracer.Close(drain);
    e.rates.push_back(static_cast<double>(per_leaf * kTreeLeaves) /
                      Elapsed(r0, NowNs()));
  } while (NowNs() < deadline || e.rates.size() < 2);
  e.peak_rss_mb = PeakRssGrowthMb();
  e.attempted = e.ingest_us.size() + e.query_us.size();
  e.unit_cost = 1e9 / Median(e.rates);
  e.spans = tracer.spans();

  // Gates: every node's sketch is the sketch of its covered prefix, and a
  // fault-free run covers every offered item at the root.
  if (const Status s = sim->CheckInvariants(); !s.ok()) {
    e.gate_failures.push_back("MergeTreeSim::CheckInvariants: " +
                              s.ToString());
  }
  if (sim->root_ledger().ingested != per_leaf * kTreeLeaves) {
    e.gate_failures.push_back(
        "root_ledger().ingested " +
        std::to_string(sim->root_ledger().ingested) + " != items offered " +
        std::to_string(per_leaf * kTreeLeaves));
  }
  if (e.failed > 0) {
    e.gate_failures.push_back(std::to_string(e.failed) +
                              " Offer/ShipRound calls failed");
  }
  const auto reported = sim->ApproxTop(kTopKAggregate);
  const auto exact = ExactTop(in.stream, kTopKAggregate);
  e.recall = Recall(reported, exact, kRecallSlack);
  e.recall_plain = Recall(reported, exact, 0);
  return e;
}

namespace {

double PerUnit(const std::map<std::string, SpanTotals>& totals,
               const std::string& name, double units, bool self) {
  const auto it = totals.find(name);
  if (it == totals.end() || units <= 0) return 0;
  return (self ? it->second.self_ns : it->second.total_ns) / units;
}

}  // namespace

std::vector<LedgerRow> TrackLedger(const E2E& traced, const Metrics& layers) {
  const double items = static_cast<double>(traced.ingest_us.size()) *
                       static_cast<double>(kRequestItems);
  const auto totals = TotalsByName(traced.spans);
  std::vector<LedgerRow> rows = {
      {"core.Add", layers.at("core.add_ns_per_item"),
       "sweep: CountSketch::Add, t row hashes + scatter"},
      {"core.Estimate",
       layers.at("core.estimate_calls_per_item") *
           layers.at("core.estimate_ns_per_call"),
       "sweep: calls/item x ns/call on the untracked path"},
      {"core.tracker_self", layers.at("core.tracker_self_ns_per_item"),
       "sweep: AddTracked minus Add minus Estimate (map + ordered set)"},
      {"core.Candidates", PerUnit(totals, "core.Candidates", items, false),
       "spans: top-k queries, amortized per item"},
  };
  rows.push_back(Residual("track.unattributed", traced.unit_cost, rows));
  return rows;
}

std::vector<LedgerRow> TreeLedger(const E2E& traced, const Metrics& layers) {
  const double items = static_cast<double>(traced.ingest_us.size()) *
                       static_cast<double>(kTreeDeltaEvery);
  const auto totals = TotalsByName(traced.spans);
  const double ship = PerUnit(totals, "dist.ShipRound", items, false);
  // The sweep splits a shipped delta into its timed codec and sketch calls
  // and what none of them covers; that split, applied to this run's ships.
  const double ship_calls =
      ship * (1 - layers.at("dist.ship_unattributed_us_per_delta") /
                      layers.at("dist.ship_round_us_per_delta"));
  std::vector<LedgerRow> rows = {
      {"dist.Offer", PerUnit(totals, "dist.Offer", items, false),
       "spans: leaf admission, BatchAdd, SpaceSaving, item log"},
      {"dist.ShipRound.calls", ship_calls,
       "sweep share: Subtract, Serialize, EncodeDelta, frame, Decode, Merge"},
      {"dist.ShipRound.unattributed", ship - ship_calls,
       "sweep share no timed call covers: candidate union, ledgers, copies"},
      {"dist.ApproxTop", PerUnit(totals, "dist.ApproxTop", items, false),
       "spans: root top-k queries, amortized per item"},
      {"dist.SealDrain", PerUnit(totals, "dist.SealDrain", items, false),
       "spans: final Seal + drain rounds"},
      {"tree.loop", PerUnit(totals, "tree.wave", items, true),
       "spans: wave-loop self time"},
  };
  rows.push_back(Residual("tree.unattributed", traced.unit_cost, rows));
  return rows;
}

}  // namespace streamfreq::bench
