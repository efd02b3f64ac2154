#include "bridges/hybrid.hpp"

#include "bridges/chaitanya_kothapalli.hpp"
#include "device/primitives.hpp"

namespace emc::bridges {

BridgeMask find_bridges_hybrid(const device::Context& ctx,
                               graph::EdgeSpan graph,
                               util::PhaseTimer* phases) {
  if (graph.num_nodes <= 1 || graph.edges.empty()) {
    return BridgeMask(graph.edges.size(), 0);
  }

  // Phase 1: unrooted spanning forest from connected components.
  const SpanningForest forest = cc_spanning_forest(ctx, graph, {}, phases);
  const graph::EdgeList tree = virtual_root_tree(ctx, graph, forest);

  // Phases 2+3: root the forest at virtual node n with the Euler tour
  // technique.
  const core::EulerTour tour = [&] {
    util::ScopedPhase phase(phases, "euler_tour");
    return core::build_euler_tour(ctx, tree, graph.num_nodes);
  }();
  core::TreeStats stats;
  {
    util::ScopedPhase phase(phases, "levels_and_parents");
    stats = core::compute_tree_stats(ctx, tour);
  }

  // Phase 4: CK marking on the rooted CC forest.
  return find_bridges_hybrid(ctx, graph, forest, stats, phases);
}

BridgeMask find_bridges_hybrid(const device::Context& ctx,
                               graph::EdgeSpan graph,
                               const SpanningForest& forest,
                               const core::TreeStats& tree,
                               util::PhaseTimer* phases) {
  const std::size_t m = graph.edges.size();
  if (m == 0) return BridgeMask{};
  std::vector<std::uint8_t> is_tree_edge(m, 0);
  device::launch(ctx, forest.tree_edges.size(), [&](std::size_t k) {
    is_tree_edge[forest.tree_edges[k]] = 1;
  });
  // parent_edge: map each node below a real tree edge to that edge's id;
  // the virtual root and the component roots keep kNoEdge, so the marking
  // phase skips their (virtual) parent edges.
  std::vector<EdgeId> parent_edge(tree.parent.size(), kNoEdge);
  device::launch(ctx, forest.tree_edges.size(), [&](std::size_t k) {
    const EdgeId e = forest.tree_edges[k];
    const graph::Edge edge = graph.edges[e];
    const NodeId child = tree.parent[edge.u] == edge.v ? edge.u : edge.v;
    parent_edge[child] = e;
  });
  return ck_marking_phase(ctx, graph, tree.parent, parent_edge, tree.level,
                          is_tree_edge, phases);
}

}  // namespace emc::bridges
