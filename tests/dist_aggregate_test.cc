// Oracle for the deployed merge tree: RunAggregate forks a real fleet —
// workers at the leaves, relays in the interior, the root in this process —
// that ships framed deltas over unix sockets, and every receiver merges the
// counters straight from the wire bytes (CountSketch::MergeSerialized).
// Each fleet is held to three exact laws: the composed ledger at the root
// counts every offered item, every leaf is covered at its full item count,
// and the root sketch is byte-identical to one sequential CountSketch fed
// every worker's stream. A fault-free MergeTreeSim fed the same streams
// over the same topology must also end with the deployed root's ledger,
// coverage, top-k and sketch bytes.
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/count_sketch.h"
#include "dist/aggregate.h"
#include "dist/merge_tree.h"
#include "dist/tree.h"

namespace streamfreq {
namespace {

AggregateOptions SmallFleet(uint64_t workers, uint64_t fanout) {
  AggregateOptions options;
  options.workers = workers;
  options.fanout = fanout;
  options.items = 5000;
  options.universe = 2000;
  options.seed = 7;
  options.delta_every = 1024;  // several deltas per worker, a short last one
  options.tracked = 16;
  options.topk = 5;
  options.params.depth = 5;
  options.params.width = 200;
  options.params.seed = 11;
  return options;
}

void RunAndCheckFleet(uint64_t workers, uint64_t fanout) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("sfq_agg_" + std::to_string(::getpid()) + "_" +
       std::to_string(workers) + "_" + std::to_string(fanout));
  std::filesystem::create_directories(dir);
  AggregateOptions options = SmallFleet(workers, fanout);
  options.socket_dir = dir.string();
  auto report = RunAggregate(options);
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  auto topo = BuildBalancedTree(workers, fanout);
  ASSERT_TRUE(topo.ok());
  ASSERT_EQ(report->leaves, workers);
  ASSERT_EQ(report->nodes, topo->size());

  // The composed ledger is exact: no admission faults in the deployment,
  // so every offered item was ingested and reached the root.
  const uint64_t total = workers * options.items;
  EXPECT_TRUE(report->ledger == (DistLedger{total, 0, total, 0}))
      << report->ledger.offered << " offered, " << report->ledger.ingested
      << " ingested";
  EXPECT_GT(report->deltas_applied, 0u);

  // Every leaf is covered at its full item count, and nothing else is.
  std::map<uint64_t, uint64_t> covered;
  for (const CoverageEntry& c : report->covered) covered[c.leaf_id] = c.count;
  ASSERT_EQ(covered.size(), topo->leaves.size());
  for (uint64_t leaf : topo->leaves) {
    EXPECT_EQ(covered[leaf], options.items) << "leaf " << leaf;
  }

  // The root sketch is byte-identical to a sequential Add loop over every
  // worker's stream.
  auto want = CountSketch::Make(options.params);
  ASSERT_TRUE(want.ok());
  std::vector<std::vector<ItemId>> streams;
  for (uint64_t leaf = 0; leaf < workers; ++leaf) {
    auto items = WorkerStreamItems(options, leaf);
    ASSERT_TRUE(items.ok());
    ASSERT_EQ(items->size(), options.items);
    for (ItemId id : *items) want->Add(id);
    streams.push_back(std::move(*items));
  }
  std::string want_bytes;
  want->SerializeTo(&want_bytes);
  EXPECT_EQ(report->root_sketch, want_bytes);

  // A fault-free MergeTreeSim over the same topology, fed each worker's
  // stream at the same leaf in the same delta_every chunks (a shipping
  // round after every chunk, then the seal), ends with the deployed root.
  auto sim = MergeTreeSim::Make(*topo, options.params, options.tracked);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  for (uint64_t off = 0; off < options.items; off += options.delta_every) {
    const uint64_t n = std::min(options.delta_every, options.items - off);
    for (uint64_t i = 0; i < topo->leaves.size(); ++i) {
      const std::span<const ItemId> stream = streams[i];
      ASSERT_TRUE(sim->Offer(topo->leaves[i], stream.subspan(off, n)).ok());
    }
    ASSERT_TRUE(sim->ShipRound().ok());
  }
  sim->Seal();
  ASSERT_TRUE(sim->Drain(4 * (topo->max_depth() + 2)).ok());
  ASSERT_TRUE(sim->Quiescent());
  ASSERT_TRUE(sim->CheckInvariants().ok());
  ASSERT_EQ(report->topk.size(), options.topk);
  EXPECT_TRUE(sim->root_ledger() == report->ledger);
  EXPECT_EQ(sim->RootCovered(), report->covered);
  EXPECT_EQ(sim->ApproxTop(options.topk), report->topk);
  std::string sim_bytes;
  sim->root_sketch().SerializeTo(&sim_bytes);
  EXPECT_EQ(sim_bytes, report->root_sketch);
}

TEST(DistAggregateTest, FlatFleetRootIsTheSequentialSketch) {
  RunAndCheckFleet(/*workers=*/4, /*fanout=*/0);
}

TEST(DistAggregateTest, FanoutTwoFleetRootIsTheSequentialSketch) {
  RunAndCheckFleet(/*workers=*/4, /*fanout=*/2);
}

// A ragged shape: five workers under fanout 2 leave relays with one child.
TEST(DistAggregateTest, RaggedFanoutTwoFleetRootIsTheSequentialSketch) {
  RunAndCheckFleet(/*workers=*/5, /*fanout=*/2);
}

}  // namespace
}  // namespace streamfreq
