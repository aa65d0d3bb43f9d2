#include "dist/aggregate.h"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "core/space_saving.h"
#include "server/net.h"
#include "stream/zipf.h"

namespace streamfreq {
namespace {

constexpr uint64_t kStreamSalt = 0x9E3779B97F4A7C15ULL;

std::string SocketPath(const std::string& dir, uint64_t node) {
  return dir + "/node-" + std::to_string(node) + ".sock";
}

// Shared node-side aggregation state: the same fields MergeTreeSim keeps
// per node, minus the failpoints (the sim owns fault injection; this is
// the straight-line deployment of the identical wire protocol).
struct NodeState {
  explicit NodeState(CountSketch zero) : acc(std::move(zero)) {}

  CountSketch acc;
  DistLedger own;
  std::map<uint64_t, DistLedger> child_ledgers;
  std::map<uint64_t, uint64_t> covered;
  std::map<uint64_t, std::vector<ItemId>> child_candidates;
  std::map<uint64_t, DeltaReceiver> receivers;
  uint64_t deltas_applied = 0;
  uint64_t delta_dedups = 0;

  DistLedger Total() const {
    DistLedger t = own;
    for (const auto& [child, ledger] : child_ledgers) t += ledger;
    return t;
  }

  std::vector<CoverageEntry> CoveredSnapshot() const {
    std::vector<CoverageEntry> out;
    out.reserve(covered.size());
    for (const auto& [leaf, count] : covered) {
      out.push_back(CoverageEntry{leaf, count});
    }
    return out;
  }

  std::vector<ItemId> CandidateUnion() const {
    std::set<ItemId> ids;
    for (const auto& [child, cands] : child_candidates) {
      ids.insert(cands.begin(), cands.end());
    }
    return std::vector<ItemId>(ids.begin(), ids.end());
  }

  /// Applies one decoded delta from `child` (or dedups it) and returns the
  /// cumulative ack seqno. The delta's counters are merged straight from
  /// its wire bytes.
  Result<uint64_t> Apply(uint64_t child, const DeltaView& delta) {
    DeltaReceiver& recv = receivers[child];
    bool duplicate = false;
    STREAMFREQ_RETURN_NOT_OK(recv.Classify(delta.seqno, &duplicate));
    if (duplicate) {
      recv.CountDuplicate();
      ++delta_dedups;
      return recv.last_applied();
    }
    STREAMFREQ_RETURN_NOT_OK(acc.MergeSerialized(delta.sketch_blob));
    child_ledgers[child] += delta.ledger;
    for (const CoverageEntry& c : delta.covered) {
      uint64_t& cur = covered[c.leaf_id];
      if (c.count < cur) {
        return Status::Corruption("coverage watermark moved backwards");
      }
      cur = c.count;
    }
    child_candidates[child] = delta.candidates;
    recv.Applied(delta.seqno);
    ++deltas_applied;
    return recv.last_applied();
  }
};

/// Blocking ship of one delta (if there is one) over `up_fd`, waiting for
/// and folding the cumulative ack.
Status ShipAndAck(DeltaChannel* channel, int up_fd, const CountSketch& acc,
                  const DistLedger& ledger,
                  const std::vector<CoverageEntry>& covered,
                  const std::vector<ItemId>& candidates, bool final_flag) {
  STREAMFREQ_ASSIGN_OR_RETURN(
      std::optional<std::string_view> payload,
      channel->Ship(acc, ledger, covered, candidates, final_flag));
  if (!payload.has_value()) return Status::OK();
  STREAMFREQ_RETURN_NOT_OK(SendFrame(up_fd, *payload));
  STREAMFREQ_ASSIGN_OR_RETURN(std::string ack_frame, RecvFrame(up_fd));
  STREAMFREQ_ASSIGN_OR_RETURN(uint64_t ack, DecodeAck(ack_frame));
  return channel->Acked(ack);
}

/// Leaf worker: ingest the seeded substream in delta_every chunks, shipping
/// after each, final flag on the last.
Status RunWorker(const AggregateOptions& options, const TreeTopology& topo,
                 uint64_t node, uint64_t leaf_index) {
  STREAMFREQ_ASSIGN_OR_RETURN(std::vector<ItemId> items,
                              WorkerStreamItems(options, leaf_index));
  STREAMFREQ_ASSIGN_OR_RETURN(CountSketch acc,
                              CountSketch::Make(options.params));
  STREAMFREQ_ASSIGN_OR_RETURN(SpaceSaving tracker,
                              SpaceSaving::Make(options.tracked));
  DeltaChannel channel(node);
  STREAMFREQ_ASSIGN_OR_RETURN(
      OwnedFd up, ConnectUnix(SocketPath(options.socket_dir,
                                         topo.parent[node])));
  DistLedger ledger;
  const uint64_t step = std::max<uint64_t>(1, options.delta_every);
  for (uint64_t off = 0; off < items.size() || off == 0;) {
    const uint64_t n =
        std::min<uint64_t>(step, items.size() - off);
    const std::span<const ItemId> chunk(items.data() + off, n);
    acc.BatchAdd(chunk);
    tracker.BatchAdd(chunk);
    ledger.offered += n;
    ledger.ingested += n;
    off += n;
    std::vector<CoverageEntry> cov = {CoverageEntry{node, off}};
    std::vector<ItemId> cands;
    for (const ItemCount& c : tracker.Candidates(options.tracked)) {
      cands.push_back(c.item);
    }
    std::sort(cands.begin(), cands.end());
    STREAMFREQ_RETURN_NOT_OK(ShipAndAck(&channel, up.get(), acc, ledger, cov,
                                        cands, /*final=*/off >= items.size()));
    if (off >= items.size()) break;
  }
  return Status::OK();
}

/// Interior relay (and, with up_fd < 0, the root): accept every child,
/// apply/ack their deltas, forward upward after each apply, tear down when
/// every child hung up after its final delta.
Status RunRelay(const AggregateOptions& options, const TreeTopology& topo,
                uint64_t node, OwnedFd listener, NodeState* state) {
  const std::vector<uint64_t>& children = topo.children[node];
  DeltaChannel channel(node);
  OwnedFd up;
  if (node != 0) {
    STREAMFREQ_ASSIGN_OR_RETURN(
        up, ConnectUnix(SocketPath(options.socket_dir, topo.parent[node])));
  }
  std::vector<OwnedFd> conns;
  conns.reserve(children.size());
  for (size_t i = 0; i < children.size(); ++i) {
    STREAMFREQ_ASSIGN_OR_RETURN(OwnedFd conn, AcceptConn(listener));
    conns.push_back(std::move(conn));
  }
  size_t open = conns.size();
  std::vector<bool> closed(conns.size(), false);
  while (open > 0) {
    std::vector<pollfd> fds;
    std::vector<size_t> index;
    for (size_t i = 0; i < conns.size(); ++i) {
      if (closed[i]) continue;
      fds.push_back(pollfd{conns[i].get(), POLLIN, 0});
      index.push_back(i);
    }
    int rc = ::poll(fds.data(), fds.size(), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("poll failed on relay node");
    }
    for (size_t f = 0; f < fds.size(); ++f) {
      if ((fds[f].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const size_t i = index[f];
      Result<std::string> frame = RecvFrame(conns[i].get());
      if (!frame.ok()) {
        if (frame.status().IsNotFound()) {
          closed[i] = true;  // clean EOF after the child's final ack
          --open;
          continue;
        }
        return frame.status();
      }
      STREAMFREQ_ASSIGN_OR_RETURN(DeltaView delta, DecodeDelta(*frame));
      STREAMFREQ_ASSIGN_OR_RETURN(uint64_t ack,
                                  state->Apply(delta.node_id, delta));
      STREAMFREQ_RETURN_NOT_OK(SendFrame(conns[i].get(), EncodeAck(ack)));
      if (node != 0) {
        STREAMFREQ_RETURN_NOT_OK(
            ShipAndAck(&channel, up.get(), state->acc, state->Total(),
                       state->CoveredSnapshot(), state->CandidateUnion(),
                       /*final=*/false));
      }
    }
  }
  if (node != 0) {
    STREAMFREQ_RETURN_NOT_OK(
        ShipAndAck(&channel, up.get(), state->acc, state->Total(),
                   state->CoveredSnapshot(), state->CandidateUnion(),
                   /*final=*/true));
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<ItemId>> WorkerStreamItems(const AggregateOptions& options,
                                              uint64_t leaf_index) {
  auto gen =
      ZipfGenerator::Make(options.universe, options.zipf_z,
                          options.seed ^ ((leaf_index + 1) * kStreamSalt));
  if (!gen.ok()) return gen.status();
  return gen->Take(options.items);
}

Result<AggregateReport> RunAggregate(const AggregateOptions& options) {
  if (options.socket_dir.empty()) {
    return Status::InvalidArgument("aggregate needs a socket directory");
  }
  STREAMFREQ_ASSIGN_OR_RETURN(
      TreeTopology topo, BuildBalancedTree(options.workers, options.fanout));
  // Leaf index (stream assignment) per leaf node id.
  std::map<uint64_t, uint64_t> leaf_index;
  for (uint64_t i = 0; i < topo.leaves.size(); ++i) {
    leaf_index[topo.leaves[i]] = i;
  }
  // Every listener exists before the first fork: a child can never race
  // its parent's bind.
  std::map<uint64_t, OwnedFd> listeners;
  for (uint64_t u = 0; u < topo.size(); ++u) {
    if (topo.is_leaf(u)) continue;
    STREAMFREQ_ASSIGN_OR_RETURN(
        OwnedFd fd, ListenUnix(SocketPath(options.socket_dir, u)));
    listeners[u] = std::move(fd);
  }
  std::vector<pid_t> pids;
  for (uint64_t u = 1; u < topo.size(); ++u) {
    const pid_t pid = ::fork();
    if (pid < 0) return Status::IoError("fork failed");
    if (pid == 0) {
      // Child: keep only this node's listener; drop the rest.
      Status s;
      if (topo.is_leaf(u)) {
        listeners.clear();
        s = RunWorker(options, topo, u, leaf_index[u]);
      } else {
        OwnedFd mine = std::move(listeners[u]);
        listeners.clear();
        auto zero = CountSketch::Make(options.params);
        if (!zero.ok()) std::_Exit(3);
        NodeState state(std::move(*zero));
        s = RunRelay(options, topo, u, std::move(mine), &state);
      }
      std::_Exit(s.ok() ? 0 : 3);
    }
    pids.push_back(pid);
  }
  STREAMFREQ_ASSIGN_OR_RETURN(CountSketch zero,
                              CountSketch::Make(options.params));
  NodeState root(std::move(zero));
  Status root_status = RunRelay(options, topo, 0, std::move(listeners[0]),
                                &root);
  listeners.clear();
  bool child_failed = false;
  for (pid_t pid : pids) {
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, 0) != pid ||
        !WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
      child_failed = true;
    }
  }
  for (uint64_t u = 0; u < topo.size(); ++u) {
    if (!topo.is_leaf(u)) {
      ::unlink(SocketPath(options.socket_dir, u).c_str());
    }
  }
  STREAMFREQ_RETURN_NOT_OK(root_status);
  if (child_failed) {
    return Status::Internal("an aggregate worker or relay exited non-zero");
  }
  AggregateReport report;
  report.nodes = topo.size();
  report.depth = topo.max_depth();
  report.leaves = topo.leaves.size();
  report.ledger = root.Total();
  report.covered = root.CoveredSnapshot();
  report.deltas_applied = root.deltas_applied;
  report.delta_dedups = root.delta_dedups;
  root.acc.SerializeTo(&report.root_sketch);
  std::vector<ItemId> cands = root.CandidateUnion();
  report.topk.reserve(cands.size());
  for (ItemId id : cands) {
    report.topk.push_back(ItemCount{id, root.acc.Estimate(id)});
  }
  std::sort(report.topk.begin(), report.topk.end(),
            [](const ItemCount& a, const ItemCount& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.item < b.item;
            });
  if (report.topk.size() > options.topk) report.topk.resize(options.topk);
  if (!report.ledger.ConservationHolds()) {
    return Status::Internal("root ledger violates conservation");
  }
  return report;
}

}  // namespace streamfreq
