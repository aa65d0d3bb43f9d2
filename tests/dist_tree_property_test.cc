// Tree-shape invariance of merge-tree aggregation (satellite of the
// distributed merge tree, docs/DISTRIBUTED.md).
//
// Property: for every counter-linear summary, merging per-leaf sketches up
// ANY tree topology — flat star, balanced, ragged random — produces a root
// state bit-identical to a flat one-shot Merge of all leaves. Merge is
// counter-wise addition, so associativity + commutativity make the shape
// invisible; this test proves it cell by cell rather than trusting the
// algebra.
//
// Counter-based summaries (Misra-Gries, Space-Saving) are NOT associative
// in general: their merge prunes. For them the property is weaker and is
// asserted as such — exact-regime equality (capacity >= distinct items)
// and one-sided error directions in the lossy regime, for every shape.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/count_min.h"
#include "core/count_sketch.h"
#include "core/misra_gries.h"
#include "core/space_saving.h"
#include "dist/tree.h"
#include "hash/random.h"
#include "stream/exact_counter.h"
#include "stream/zipf.h"

namespace streamfreq {
namespace {

// The shared battery of shapes every algorithm is merged across. Includes
// the flat star (the reference's own shape), balanced trees of several
// fanouts, and seeded ragged random trees with uneven leaf depths.
std::vector<TreeTopology> ShapeBattery(uint64_t workers, uint64_t seed) {
  std::vector<TreeTopology> shapes;
  auto star = BuildBalancedTree(workers, 0);
  EXPECT_TRUE(star.ok()) << star.status().ToString();
  if (star.ok()) shapes.push_back(std::move(*star));
  for (uint64_t fanout : {uint64_t{2}, uint64_t{3}, uint64_t{4}, uint64_t{8}}) {
    auto tree = BuildBalancedTree(workers, fanout);
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    if (tree.ok()) shapes.push_back(std::move(*tree));
  }
  Xoshiro256 rng(seed);
  for (int i = 0; i < 6; ++i) {
    const uint64_t max_fanout = 1 + rng.UniformBelow(8);
    const uint64_t max_depth = 1 + rng.UniformBelow(4);
    auto tree = BuildRandomTree(workers, max_fanout, max_depth, &rng);
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    if (tree.ok()) shapes.push_back(std::move(*tree));
  }
  return shapes;
}

// Per-leaf substreams: disjoint in time, deterministic in (seed, leaf).
std::vector<Stream> LeafStreams(uint64_t workers, size_t per_leaf,
                                uint64_t universe, uint64_t seed) {
  std::vector<Stream> streams;
  for (uint64_t leaf = 0; leaf < workers; ++leaf) {
    auto gen = ZipfGenerator::Make(universe, 1.1, seed ^ (0x9E37 * (leaf + 1)));
    EXPECT_TRUE(gen.ok());
    streams.push_back(gen->Take(per_leaf));
  }
  return streams;
}

// Merges `leaf_sketches` (one per topology leaf, in leaf order) up `topo`:
// one bottom-up pass folds every node into its parent, exactly the hop
// order the delta shipper uses. Returns the root accumulator.
template <typename S>
S TreeMerge(const TreeTopology& topo, const std::vector<S>& leaf_sketches,
            const S& zero) {
  std::vector<S> acc(topo.size(), zero);
  EXPECT_EQ(topo.leaves.size(), leaf_sketches.size());
  for (size_t i = 0; i < topo.leaves.size(); ++i) {
    acc[topo.leaves[i]] = leaf_sketches[i];
  }
  for (const uint64_t node : topo.BottomUpOrder()) {
    if (node == 0) continue;
    const Status merged = acc[topo.parent[node]].Merge(acc[node]);
    EXPECT_TRUE(merged.ok()) << merged.ToString();
  }
  return acc[0];
}

// Flat one-shot reference: merge every leaf into a zero sketch in leaf
// order. This is what a single aggregator holding all substreams computes.
template <typename S>
S FlatMerge(const std::vector<S>& leaf_sketches, const S& zero) {
  S root = zero;
  for (const S& leaf : leaf_sketches) {
    const Status merged = root.Merge(leaf);
    EXPECT_TRUE(merged.ok()) << merged.ToString();
  }
  return root;
}

TEST(DistTreePropertyTest, CountSketchBitIdenticalAcrossShapes) {
  for (const uint64_t workers : {uint64_t{3}, uint64_t{9}, uint64_t{16}}) {
    const auto streams = LeafStreams(workers, 4000, 1 << 16, 11 * workers);
    CountSketchParams params;
    params.depth = 5;
    params.width = 512;
    params.seed = 77;
    auto zero = CountSketch::Make(params);
    ASSERT_TRUE(zero.ok());
    std::vector<CountSketch> leaves;
    for (const Stream& s : streams) {
      CountSketch sketch = *zero;
      sketch.BatchAdd(s);
      leaves.push_back(std::move(sketch));
    }
    const CountSketch reference = FlatMerge(leaves, *zero);
    std::string ref_bytes;
    reference.SerializeTo(&ref_bytes);
    for (const TreeTopology& topo : ShapeBattery(workers, 13 * workers)) {
      const CountSketch root = TreeMerge(topo, leaves, *zero);
      std::string root_bytes;
      root.SerializeTo(&root_bytes);
      EXPECT_EQ(root_bytes, ref_bytes)
          << "shape with " << topo.size() << " nodes, depth "
          << topo.max_depth() << " changed the root sketch";
    }
  }
}

TEST(DistTreePropertyTest, CountMinCountersInvariantAcrossShapes) {
  // Only the plain variant: conservative update is order-dependent and its
  // Merge is rejected by design (CountMin::Merge returns InvalidArgument),
  // so it cannot ride the tree at all.
  {
    const uint64_t workers = 7;
    const auto streams = LeafStreams(workers, 3000, 1 << 14, 21);
    CountMinParams params;
    params.depth = 4;
    params.width = 256;
    params.seed = 5;
    auto zero = CountMin::Make(params);
    ASSERT_TRUE(zero.ok());
    std::vector<CountMin> leaves;
    for (const Stream& s : streams) {
      CountMin sketch = *zero;
      sketch.BatchAdd(s);
      leaves.push_back(std::move(sketch));
    }
    const CountMin reference = FlatMerge(leaves, *zero);
    for (const TreeTopology& topo : ShapeBattery(workers, 23)) {
      const CountMin root = TreeMerge(topo, leaves, *zero);
      for (size_t row = 0; row < params.depth; ++row) {
        for (size_t bucket = 0; bucket < params.width; ++bucket) {
          ASSERT_EQ(root.CounterAt(row, bucket),
                    reference.CounterAt(row, bucket))
              << "row=" << row << " bucket=" << bucket;
        }
      }
    }
  }
}

TEST(DistTreePropertyTest, MisraGriesExactRegimeAcrossShapes) {
  // Capacity >= distinct items: no decrements anywhere in the tree, so the
  // merge is exact addition and the shape cannot matter.
  const uint64_t workers = 8;
  const uint64_t universe = 48;
  const auto streams = LeafStreams(workers, 2000, universe, 61);
  ExactCounter exact;
  for (const Stream& s : streams) exact.AddAll(s);
  ASSERT_LE(exact.Distinct(), 512u);
  auto zero = MisraGries::Make(512);
  ASSERT_TRUE(zero.ok());
  std::vector<MisraGries> leaves;
  for (const Stream& s : streams) {
    MisraGries mg = *zero;
    for (const ItemId q : s) mg.Add(q);
    leaves.push_back(std::move(mg));
  }
  for (const TreeTopology& topo : ShapeBattery(workers, 67)) {
    const MisraGries root = TreeMerge(topo, leaves, *zero);
    EXPECT_EQ(root.MaxError(), 0u);
    for (const auto& [item, count] : exact.counts()) {
      ASSERT_EQ(root.Estimate(item), count) << "item " << item;
    }
  }
}

TEST(DistTreePropertyTest, SpaceSavingExactRegimeAcrossShapes) {
  const uint64_t workers = 8;
  const uint64_t universe = 48;
  const auto streams = LeafStreams(workers, 2000, universe, 71);
  ExactCounter exact;
  for (const Stream& s : streams) exact.AddAll(s);
  ASSERT_LE(exact.Distinct(), 512u);
  auto zero = SpaceSaving::Make(512);
  ASSERT_TRUE(zero.ok());
  std::vector<SpaceSaving> leaves;
  for (const Stream& s : streams) {
    SpaceSaving ss = *zero;
    for (const ItemId q : s) ss.Add(q);
    leaves.push_back(std::move(ss));
  }
  for (const TreeTopology& topo : ShapeBattery(workers, 73)) {
    const SpaceSaving root = TreeMerge(topo, leaves, *zero);
    for (const auto& [item, count] : exact.counts()) {
      ASSERT_EQ(root.Estimate(item), count) << "item " << item;
    }
  }
}

TEST(DistTreePropertyTest, LossyRegimeDirectionInvariantsAcrossShapes) {
  // Under-capacity summaries prune during tree merges, so equality is off
  // the table — but the one-sided error directions must survive EVERY
  // shape: Misra-Gries never overestimates, Space-Saving never
  // underestimates a tracked item.
  const uint64_t workers = 6;
  const auto streams = LeafStreams(workers, 5000, 4000, 79);
  ExactCounter exact;
  for (const Stream& s : streams) exact.AddAll(s);
  auto mg_zero = MisraGries::Make(32);
  auto ss_zero = SpaceSaving::Make(32);
  ASSERT_TRUE(mg_zero.ok() && ss_zero.ok());
  std::vector<MisraGries> mg_leaves;
  std::vector<SpaceSaving> ss_leaves;
  for (const Stream& s : streams) {
    MisraGries mg = *mg_zero;
    SpaceSaving ss = *ss_zero;
    for (const ItemId q : s) {
      mg.Add(q);
      ss.Add(q);
    }
    mg_leaves.push_back(std::move(mg));
    ss_leaves.push_back(std::move(ss));
  }
  for (const TreeTopology& topo : ShapeBattery(workers, 83)) {
    const MisraGries mg_root = TreeMerge(topo, mg_leaves, *mg_zero);
    const SpaceSaving ss_root = TreeMerge(topo, ss_leaves, *ss_zero);
    for (const ItemCount& entry : mg_root.Candidates(32)) {
      ASSERT_LE(mg_root.Estimate(entry.item), exact.CountOf(entry.item))
          << "Misra-Gries overestimated item " << entry.item;
    }
    for (const ItemCount& entry : ss_root.Candidates(32)) {
      ASSERT_GE(entry.count, exact.CountOf(entry.item))
          << "Space-Saving underestimated item " << entry.item;
    }
  }
}

TEST(DistTreePropertyTest, ShapeBatteryIsWellFormed) {
  // The battery itself must exercise what it claims: every shape has the
  // requested number of leaves, valid parent links, and a bottom-up order
  // that visits children before parents.
  const uint64_t workers = 9;
  for (const TreeTopology& topo : ShapeBattery(workers, 89)) {
    EXPECT_EQ(topo.leaves.size(), workers);
    EXPECT_EQ(topo.parent[0], 0u);
    for (uint64_t node = 1; node < topo.size(); ++node) {
      EXPECT_LT(topo.parent[node], node);
      EXPECT_EQ(topo.depth[node], topo.depth[topo.parent[node]] + 1);
    }
    const auto order = topo.BottomUpOrder();
    EXPECT_EQ(order.size(), topo.size());
    std::vector<bool> seen(topo.size(), false);
    for (const uint64_t node : order) {
      if (node != 0) {
        EXPECT_FALSE(seen[topo.parent[node]])
            << "parent of " << node << " visited before its child";
      }
      seen[node] = true;
    }
  }
}

}  // namespace
}  // namespace streamfreq
