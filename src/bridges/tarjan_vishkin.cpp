#include "bridges/tarjan_vishkin.hpp"

#include "bridges/tv_detail.hpp"
#include "device/primitives.hpp"

namespace emc::bridges {

BridgeMask find_bridges_tarjan_vishkin(const device::Context& ctx,
                                       graph::EdgeSpan graph,
                                       util::PhaseTimer* phases) {
  if (graph.num_nodes <= 1 || graph.edges.empty()) {
    return BridgeMask(graph.edges.size(), 0);
  }

  // --- Phase 1: spanning forest from connected components.
  const SpanningForest forest = cc_spanning_forest(ctx, graph, {}, phases);

  // --- Phase 2: Euler tour statistics on the forest rooted at virtual n.
  core::TreeStats tree;
  {
    util::ScopedPhase phase(phases, "euler_tour");
    tree = root_forest(ctx, graph, forest);
  }
  return find_bridges_tarjan_vishkin(ctx, graph, forest, tree, phases);
}

BridgeMask find_bridges_tarjan_vishkin(const device::Context& ctx,
                                       graph::EdgeSpan graph,
                                       const SpanningForest& forest,
                                       const core::TreeStats& tree,
                                       util::PhaseTimer* phases) {
  const std::size_t m = graph.edges.size();
  BridgeMask is_bridge(m, 0);
  if (m == 0) return is_bridge;

  // --- Phase 3: low/high and the bridge criterion.
  util::ScopedPhase phase(phases, "detect_bridges");
  std::vector<std::uint8_t> is_tree_edge(m, 0);
  device::launch(ctx, forest.tree_edges.size(), [&](std::size_t k) {
    is_tree_edge[forest.tree_edges[k]] = 1;
  });
  const std::vector<NodeId>& pre = tree.preorder;
  const std::vector<NodeId>& size = tree.subtree_size;
  const tv_detail::LowHigh lh =
      tv_detail::subtree_low_high(ctx, graph, is_tree_edge, tree);

  // Criterion, one virtual thread per tree edge: let c be the child
  // endpoint; bridge iff low(c) >= pre(c) and high(c) < pre(c) + size(c).
  device::launch(ctx, forest.tree_edges.size(), [&](std::size_t k) {
    const EdgeId e = forest.tree_edges[k];
    const graph::Edge edge = graph.edges[e];
    const NodeId c =
        tree.parent[edge.u] == edge.v ? edge.u : edge.v;  // child endpoint
    if (lh.low[c] >= pre[c] && lh.high[c] < pre[c] + size[c]) is_bridge[e] = 1;
  });
  return is_bridge;
}

}  // namespace emc::bridges
