#include "bridges/chaitanya_kothapalli.hpp"

#include <atomic>
#include <cassert>
#include <stdexcept>

#include "device/arena.hpp"
#include "device/primitives.hpp"

namespace emc::bridges {

BridgeMask ck_marking_phase(const device::Context& ctx,
                            graph::EdgeSpan graph,
                            const std::vector<NodeId>& parent,
                            const std::vector<EdgeId>& parent_edge,
                            const std::vector<NodeId>& level,
                            const std::vector<std::uint8_t>& is_tree_edge,
                            util::PhaseTimer* phases) {
  util::ScopedPhase phase(phases, "mark_non_bridges");
  const std::size_t m = graph.edges.size();
  // marked[v] == 1 means tree edge (v, parent(v)) was visited by some walk.
  device::Arena::Scope scope(ctx.arena());
  std::uint8_t* marked = scope.get<std::uint8_t>(parent.size());
  device::fill(ctx, parent.size(), marked, std::uint8_t{0});

  device::launch(ctx, m, [&](std::size_t e) {
    if (is_tree_edge[e]) return;
    NodeId u = graph.edges[e].u;
    NodeId v = graph.edges[e].v;
    // Walk both endpoints to the same level, then in lockstep to the LCA,
    // marking every traversed tree edge. Byte stores race benignly (all
    // writers store 1), as in the GPU original; a mark already set is not
    // stored again, so walks that meet near the root only read its line.
    while (u != v) {
      if (level[u] < level[v]) {
        const NodeId t = u;
        u = v;
        v = t;
      }
      const std::atomic_ref<std::uint8_t> mark(marked[u]);
      if (mark.load(std::memory_order_relaxed) == 0) {
        mark.store(1, std::memory_order_relaxed);
      }
      u = parent[u];
    }
  });

  BridgeMask is_bridge(m, 0);
  device::launch(ctx, parent.size(), [&](std::size_t v) {
    if (parent_edge[v] != kNoEdge && !marked[v]) {
      is_bridge[parent_edge[v]] = 1;
    }
  });
  return is_bridge;
}

BridgeMask find_bridges_ck(const device::Context& ctx,
                           graph::EdgeSpan graph, const graph::Csr& csr,
                           const std::vector<NodeId>& roots,
                           util::PhaseTimer* phases) {
  // The dual-argument contract: a Csr built from a different edge list (or
  // from this one in a different order) would silently misalign edge ids.
  assert(graph::csr_matches(graph, csr));
  const auto n = static_cast<std::size_t>(graph.num_nodes);
  if (n <= 1 || graph.edges.empty()) {
    return BridgeMask(graph.edges.size(), 0);
  }
  // Phase 1: BFS spanning forest, one tree per root.
  const BfsTree tree = bfs(ctx, csr, roots, phases);
  // An unreached node with an edge would send a marking walk up a missing
  // parent chain: refuse the roots instead.
  const std::size_t missed = device::reduce(
      ctx, n, std::size_t{0},
      [&](std::size_t v) -> std::size_t {
        return tree.level[v] == kNoNode &&
               csr.row_offsets[v + 1] != csr.row_offsets[v];
      },
      [](std::size_t a, std::size_t b) { return a + b; });
  if (missed != 0) {
    throw std::invalid_argument(
        "find_bridges_ck: the roots miss a component with edges");
  }
  std::vector<std::uint8_t> is_tree_edge(graph.edges.size(), 0);
  device::launch(ctx, n, [&](std::size_t v) {
    if (tree.parent_edge[v] != kNoEdge) is_tree_edge[tree.parent_edge[v]] = 1;
  });
  // Phase 2: marking walks.
  return ck_marking_phase(ctx, graph, tree.parent, tree.parent_edge,
                          tree.level, is_tree_edge, phases);
}

}  // namespace emc::bridges
