// Merge-tree topologies: which node ships deltas to which.
//
// Node 0 is always the root. Leaves ingest; interior nodes only merge and
// forward. Topologies may be ragged (uneven fanout / leaf depth) — the
// tree-shape property test (tests/dist_tree_property_test.cc) proves the
// root sketch is invariant across all of them.
#pragma once

#include <cstdint>
#include <vector>

#include "hash/random.h"
#include "util/result.h"

namespace streamfreq {

/// An immutable merge-tree shape over nodes [0, size). parent[0] == 0.
struct TreeTopology {
  std::vector<uint64_t> parent;                 ///< parent[i] for node i
  std::vector<std::vector<uint64_t>> children;  ///< children[i] of node i
  std::vector<uint64_t> leaves;                 ///< nodes with no children
  std::vector<uint64_t> depth;                  ///< root depth 0

  size_t size() const { return parent.size(); }
  bool is_leaf(uint64_t node) const { return children[node].empty(); }
  uint64_t max_depth() const;

  /// Nodes ordered leaves-first (deepest depth first), so one pass moves
  /// every delta exactly one hop toward the root.
  std::vector<uint64_t> BottomUpOrder() const;
};

/// Balanced tree with `workers` leaves and interior fanout `fanout`.
/// fanout == 0 (or >= workers) collapses to the flat star: every worker
/// ships straight to the root.
Result<TreeTopology> BuildBalancedTree(uint64_t workers, uint64_t fanout);

/// Random ragged tree: `workers` leaves attached at uneven depths under
/// interior nodes with fanout in [1, max_fanout], depth capped at
/// max_depth. Deterministic in `rng`.
Result<TreeTopology> BuildRandomTree(uint64_t workers, uint64_t max_fanout,
                                     uint64_t max_depth, Xoshiro256* rng);

}  // namespace streamfreq
