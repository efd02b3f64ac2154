#include "bridges/two_ecc.hpp"

#include "device/primitives.hpp"

namespace emc::bridges {

std::vector<NodeId> two_edge_components(const device::Context& ctx,
                                        graph::EdgeSpan graph,
                                        const SpanningForest& forest,
                                        const BridgeMask& is_bridge) {
  const std::vector<EdgeId>& tree = forest.tree_edges;
  device::Arena::Scope scope(ctx.arena());
  EdgeId* kept = scope.get<EdgeId>(tree.size());
  const std::size_t k = device::copy_if_index(
      ctx, tree.size(), [&](std::size_t i) { return is_bridge[tree[i]] == 0; },
      kept);
  graph::Edge* residual = scope.get<graph::Edge>(k);
  device::transform(ctx, k, residual, [&](std::size_t i) {
    return graph.edges[tree[kept[i]]];
  });
  return cc_spanning_forest(ctx, {graph.num_nodes, {residual, k}}).component;
}

}  // namespace emc::bridges
