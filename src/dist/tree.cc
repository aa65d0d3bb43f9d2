#include "dist/tree.h"

#include <algorithm>
#include <utility>

#include "util/status.h"

namespace streamfreq {

uint64_t TreeTopology::max_depth() const {
  uint64_t m = 0;
  for (uint64_t d : depth) m = std::max(m, d);
  return m;
}

std::vector<uint64_t> TreeTopology::BottomUpOrder() const {
  std::vector<uint64_t> order(size());
  for (uint64_t i = 0; i < size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [this](uint64_t a, uint64_t b) {
    return depth[a] > depth[b];
  });
  return order;
}

namespace {

// Builds the derived fields (children/leaves/depth) from `parent` and
// validates the shape: node 0 is root, every other node's parent has a
// lower id (no cycles), at least one leaf.
Result<TreeTopology> TopologyFromParents(std::vector<uint64_t> parent) {
  if (parent.empty()) {
    return Status::InvalidArgument("topology needs at least one node");
  }
  if (parent[0] != 0) {
    return Status::InvalidArgument("node 0 must be the root");
  }
  TreeTopology topo;
  topo.parent = std::move(parent);
  const size_t n = topo.parent.size();
  topo.children.resize(n);
  topo.depth.assign(n, 0);
  for (uint64_t i = 1; i < n; ++i) {
    // Parents have lower ids, so one ascending pass settles every depth and
    // no cycle can form.
    if (topo.parent[i] >= i) {
      return Status::InvalidArgument("node parent must have a lower id");
    }
    topo.children[topo.parent[i]].push_back(i);
    topo.depth[i] = topo.depth[topo.parent[i]] + 1;
  }
  for (uint64_t i = 0; i < n; ++i) {
    if (topo.children[i].empty()) topo.leaves.push_back(i);
  }
  if (n > 1 && topo.children[0].empty()) {
    return Status::InvalidArgument("root has no children in multi-node tree");
  }
  return topo;
}

}  // namespace

Result<TreeTopology> BuildBalancedTree(uint64_t workers, uint64_t fanout) {
  if (workers == 0) {
    return Status::InvalidArgument("merge tree needs at least one worker");
  }
  if (fanout == 0 || fanout >= workers) {
    // Flat star: leaves 1..workers under the root.
    std::vector<uint64_t> parent(workers + 1, 0);
    return TopologyFromParents(std::move(parent));
  }
  if (fanout == 1) {
    return Status::InvalidArgument(
        "balanced fanout 1 cannot hold more than one worker");
  }
  // Level sizes bottom-up: leaves at the deepest level, each interior
  // level ceil(next / fanout) wide. size[i-1] <= size[i] <= size[i-1] *
  // fanout, so round-robin attachment gives every interior node between 1
  // and `fanout` children — no childless interior nodes, no overflow.
  std::vector<uint64_t> sizes = {workers};
  while (sizes.back() > fanout) {
    sizes.push_back((sizes.back() + fanout - 1) / fanout);
  }
  std::reverse(sizes.begin(), sizes.end());  // top-down, root level omitted
  std::vector<uint64_t> parent = {0};
  std::vector<uint64_t> frontier = {0};
  for (uint64_t level_size : sizes) {
    std::vector<uint64_t> next;
    next.reserve(level_size);
    for (uint64_t i = 0; i < level_size; ++i) {
      parent.push_back(frontier[i % frontier.size()]);
      next.push_back(parent.size() - 1);
    }
    frontier = std::move(next);
  }
  return TopologyFromParents(std::move(parent));
}

Result<TreeTopology> BuildRandomTree(uint64_t workers, uint64_t max_fanout,
                                     uint64_t max_depth, Xoshiro256* rng) {
  if (workers == 0) {
    return Status::InvalidArgument("merge tree needs at least one worker");
  }
  if (max_fanout == 0 || max_depth == 0) {
    return Status::InvalidArgument("max_fanout and max_depth must be >= 1");
  }
  // A random population of interior nodes (each hung under an earlier
  // interior node within the depth budget), then each worker leaf picks a
  // random interior attachment point. Ragged by construction.
  std::vector<uint64_t> parent = {0};
  std::vector<uint64_t> depth = {0};
  std::vector<uint64_t> interior = {0};  // ids eligible to take children
  const uint64_t extra_interior =
      max_depth <= 1 ? 0 : rng->UniformBelow(workers + 1);
  for (uint64_t i = 0; i < extra_interior; ++i) {
    // Attachment must leave room for a leaf below (depth < max_depth - 1).
    std::vector<uint64_t> eligible;
    for (uint64_t node : interior) {
      if (depth[node] + 1 < max_depth) eligible.push_back(node);
    }
    if (eligible.empty()) break;
    const uint64_t p = eligible[rng->UniformBelow(eligible.size())];
    parent.push_back(p);
    depth.push_back(depth[p] + 1);
    interior.push_back(parent.size() - 1);
  }
  // Leaves: random interior parent, respecting the fanout cap when
  // possible (the root is always a legal fallback so attachment cannot
  // fail; fanout then overflows the cap rather than orphaning a worker).
  std::vector<uint64_t> load(parent.size(), 0);
  for (uint64_t w = 0; w < workers; ++w) {
    std::vector<uint64_t> eligible;
    for (uint64_t node : interior) {
      if (load[node] < max_fanout) eligible.push_back(node);
    }
    const uint64_t p = eligible.empty()
                           ? interior[rng->UniformBelow(interior.size())]
                           : eligible[rng->UniformBelow(eligible.size())];
    parent.push_back(p);
    ++load[p];
  }
  // Interior nodes that ended up childless become leaves of the shipped
  // topology — that is fine (they simply cover zero stream), but prune
  // them anyway so `leaves` means "ingesting worker" to every caller.
  // Prune iteratively: removing one childless interior node can expose
  // another.
  while (true) {
    const uint64_t first_leaf = parent.size() - workers;
    std::vector<uint64_t> child_count(parent.size(), 0);
    for (uint64_t i = 1; i < parent.size(); ++i) ++child_count[parent[i]];
    uint64_t victim = 0;
    for (uint64_t i = 1; i < first_leaf; ++i) {
      if (child_count[i] == 0) {
        victim = i;
        break;
      }
    }
    if (victim == 0) break;
    std::vector<uint64_t> remapped;
    remapped.reserve(parent.size() - 1);
    for (uint64_t i = 0; i < parent.size(); ++i) {
      if (i == victim) continue;
      uint64_t p = parent[i];
      remapped.push_back(p > victim ? p - 1 : p);
    }
    parent = std::move(remapped);
  }
  return TopologyFromParents(std::move(parent));
}

}  // namespace streamfreq
