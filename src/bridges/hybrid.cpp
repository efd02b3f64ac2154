#include "bridges/hybrid.hpp"

#include <cassert>

#include "bridges/cc_spanning.hpp"
#include "bridges/chaitanya_kothapalli.hpp"
#include "core/euler_tour.hpp"
#include "device/primitives.hpp"

namespace emc::bridges {

BridgeMask find_bridges_hybrid(const device::Context& ctx,
                               graph::EdgeSpan graph,
                               util::PhaseTimer* phases) {
  const auto n = static_cast<std::size_t>(graph.num_nodes);
  if (n <= 1 || graph.edges.empty()) {
    return BridgeMask(graph.edges.size(), 0);
  }

  // Phase 1: unrooted spanning tree from connected components.
  const SpanningForest forest = cc_spanning_forest(ctx, graph, phases);
  assert(forest.num_components == 1 && "hybrid requires a connected input");

  std::vector<std::uint8_t> is_tree_edge(graph.edges.size(), 0);
  graph::EdgeList tree;
  tree.num_nodes = graph.num_nodes;
  tree.edges.resize(forest.tree_edges.size());
  device::launch(ctx, forest.tree_edges.size(), [&](std::size_t k) {
    const EdgeId e = forest.tree_edges[k];
    tree.edges[k] = graph.edges[e];
    is_tree_edge[e] = 1;
  });

  // Phases 2+3: root the tree with the Euler tour technique.
  const NodeId root = 0;
  const core::EulerTour tour = [&] {
    util::ScopedPhase phase(phases, "euler_tour");
    return core::build_euler_tour(ctx, tree, root);
  }();
  core::TreeStats stats;
  {
    util::ScopedPhase phase(phases, "levels_and_parents");
    stats = core::compute_tree_stats(ctx, tour);
  }

  // parent_edge: map each non-root node to the original edge id of its
  // parent edge.
  std::vector<EdgeId> parent_edge(n, kNoEdge);
  device::launch(ctx, forest.tree_edges.size(), [&](std::size_t k) {
    const EdgeId e = forest.tree_edges[k];
    const graph::Edge edge = graph.edges[e];
    const NodeId child = stats.parent[edge.u] == edge.v ? edge.u : edge.v;
    parent_edge[child] = e;
  });

  // Phase 4: CK marking on the rooted CC tree.
  return ck_marking_phase(ctx, graph, stats.parent, parent_edge, stats.level,
                          is_tree_edge, phases);
}

}  // namespace emc::bridges
