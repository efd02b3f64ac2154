#include "bridges/bfs.hpp"

#include <atomic>

#include "device/primitives.hpp"

namespace emc::bridges {

BfsTree bfs(const device::Context& ctx, const graph::Csr& graph,
            const std::vector<NodeId>& sources, util::PhaseTimer* phases) {
  util::ScopedPhase phase(phases, "bfs");
  const auto n = static_cast<std::size_t>(graph.num_nodes);
  BfsTree tree;
  tree.parent.assign(n, kNoNode);
  tree.parent_edge.assign(n, kNoEdge);
  tree.level.assign(n, kNoNode);

  std::vector<NodeId> frontier;
  for (const NodeId s : sources) {
    if (tree.level[s] == kNoNode) frontier.push_back(s);
    tree.level[s] = 0;
  }
  std::vector<NodeId> next(n);
  NodeId depth = 0;
  while (!frontier.empty()) {
    ++depth;
    std::atomic<std::size_t> next_size{0};
    device::launch(ctx, frontier.size(), [&](std::size_t f) {
      const NodeId u = frontier[f];
      for (EdgeId i = graph.row_offsets[u]; i < graph.row_offsets[u + 1]; ++i) {
        const NodeId v = graph.neighbors[i];
        // Claim v exactly once: CAS its level from unvisited to this depth.
        if (device::atomic_cas(&tree.level[v], kNoNode, depth) == kNoNode) {
          tree.parent[v] = u;
          tree.parent_edge[v] = graph.edge_ids[i];
          next[next_size.fetch_add(1, std::memory_order_relaxed)] = v;
        }
      }
    });
    frontier.assign(next.begin(), next.begin() + next_size.load());
  }
  tree.num_levels = depth;
  return tree;
}

}  // namespace emc::bridges
