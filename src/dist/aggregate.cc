#include "dist/aggregate.h"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <optional>
#include <utility>

#include "core/max_change.h"
#include "core/space_saving.h"
#include "stream/zipf.h"
#include "util/net.h"

namespace streamfreq {
namespace {

constexpr uint64_t kStreamSalt = 0x9E3779B97F4A7C15ULL;

std::string SocketPath(const std::string& dir, uint64_t node) {
  return dir + "/node-" + std::to_string(node) + ".sock";
}

/// Blocking ship of the node's delta (if there is one) over `up_fd`,
/// waiting for and processing the cumulative ack.
Status ShipAndAck(MergeNode* node, int up_fd, bool final_flag) {
  const std::optional<std::string_view> payload = node->Ship(final_flag);
  if (!payload.has_value()) return Status::OK();
  STREAMFREQ_RETURN_NOT_OK(SendFrame(up_fd, *payload));
  STREAMFREQ_ASSIGN_OR_RETURN(std::string ack_frame, RecvFrame(up_fd));
  STREAMFREQ_ASSIGN_OR_RETURN(uint64_t ack, DecodeAck(ack_frame));
  return node->up().Acked(ack);
}

/// Leaf worker: ingest the seeded substream in delta_every chunks, shipping
/// after each, final flag on the last.
Status RunWorker(const AggregateOptions& options, const TreeTopology& topo,
                 uint64_t id, uint64_t leaf_index) {
  STREAMFREQ_ASSIGN_OR_RETURN(std::vector<ItemId> items,
                              WorkerStreamItems(options, leaf_index));
  STREAMFREQ_ASSIGN_OR_RETURN(CountSketch zero,
                              CountSketch::Make(options.params));
  STREAMFREQ_ASSIGN_OR_RETURN(SpaceSaving tracker,
                              SpaceSaving::Make(options.tracked));
  MergeNode node(id, std::move(zero), std::move(tracker));
  STREAMFREQ_ASSIGN_OR_RETURN(
      OwnedFd up,
      ConnectUnix(SocketPath(options.socket_dir, topo.parent[id])));
  const uint64_t step = std::max<uint64_t>(1, options.delta_every);
  for (uint64_t off = 0; off < items.size() || off == 0;) {
    const uint64_t n = std::min<uint64_t>(step, items.size() - off);
    node.own().offered += n;
    node.Admit(std::span<const ItemId>(items.data() + off, n));
    off += n;
    STREAMFREQ_RETURN_NOT_OK(
        ShipAndAck(&node, up.get(), /*final_flag=*/off >= items.size()));
    if (off >= items.size()) break;
  }
  return Status::OK();
}

/// Interior relay, or the root: accept every child, bind each connection
/// to the child its first delta names, apply and ack every delta, forward
/// upward after each apply (not at the root), and tear down once every
/// child has hung up after its final delta.
Status RunRelay(const AggregateOptions& options, const TreeTopology& topo,
                OwnedFd listener, MergeNode* node) {
  const uint64_t id = node->id();
  const std::vector<uint64_t>& children = topo.children[id];
  OwnedFd up;
  if (id != 0) {
    STREAMFREQ_ASSIGN_OR_RETURN(
        up, ConnectUnix(SocketPath(options.socket_dir, topo.parent[id])));
  }
  std::vector<OwnedFd> conns;
  conns.reserve(children.size());
  for (size_t i = 0; i < children.size(); ++i) {
    STREAMFREQ_ASSIGN_OR_RETURN(OwnedFd conn, AcceptConn(listener));
    conns.push_back(std::move(conn));
  }
  // The child each connection speaks for, once its first delta arrived.
  std::vector<std::optional<uint64_t>> sender(conns.size());
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
        if (!frame.status().IsNotFound()) return frame.status();
        // EOF is a clean close only once the child's final delta applied.
        if (!sender[i].has_value() || !node->child_final(*sender[i])) {
          return Status::Corruption("a child of node " + std::to_string(id) +
                                    " hung up before its final delta");
        }
        closed[i] = true;
        --open;
        continue;
      }
      STREAMFREQ_ASSIGN_OR_RETURN(DeltaView delta, DecodeDelta(*frame));
      if (!sender[i].has_value()) {
        const uint64_t from = delta.node_id;
        if (std::find(children.begin(), children.end(), from) ==
            children.end()) {
          return Status::Corruption("delta from node " + std::to_string(from) +
                                    ", not a child of node " +
                                    std::to_string(id));
        }
        if (std::find(sender.begin(), sender.end(), from) != sender.end()) {
          return Status::Corruption("two connections speak for child " +
                                    std::to_string(from));
        }
        sender[i] = from;
      }
      // Apply refuses a later delta that names another sender.
      STREAMFREQ_RETURN_NOT_OK(
          node->Apply(*sender[i], std::move(delta)).status());
      STREAMFREQ_RETURN_NOT_OK(
          SendFrame(conns[i].get(), EncodeAck(node->acked(*sender[i]))));
      if (id != 0) {
        STREAMFREQ_RETURN_NOT_OK(
            ShipAndAck(node, up.get(), /*final_flag=*/false));
      }
    }
  }
  if (id != 0) {
    STREAMFREQ_RETURN_NOT_OK(ShipAndAck(node, up.get(), /*final_flag=*/true));
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
        // The stream index of a leaf is its place in topo.leaves.
        const auto leaf = std::find(topo.leaves.begin(), topo.leaves.end(), u);
        s = RunWorker(options, topo, u, leaf - topo.leaves.begin());
      } else {
        OwnedFd mine = std::move(listeners[u]);
        listeners.clear();
        auto zero = CountSketch::Make(options.params);
        if (!zero.ok()) std::_Exit(3);
        MergeNode node(u, std::move(*zero));
        s = RunRelay(options, topo, std::move(mine), &node);
      }
      std::_Exit(s.ok() ? 0 : 3);
    }
    pids.push_back(pid);
  }
  STREAMFREQ_ASSIGN_OR_RETURN(CountSketch zero,
                              CountSketch::Make(options.params));
  MergeNode root(0, std::move(zero));
  Status root_status = RunRelay(options, topo, std::move(listeners[0]), &root);
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
  report.covered = root.Covered();
  report.deltas_applied = root.deltas_applied();
  report.delta_dedups = root.delta_dedups();
  root.acc().SerializeTo(&report.root_sketch);
  report.topk = RankByEstimate(root.CandidateUnion(), root.acc(), options.topk,
                               /*absolute=*/false);
  if (!report.ledger.ConservationHolds()) {
    return Status::Internal("root ledger violates conservation");
  }
  return report;
}

}  // namespace streamfreq
