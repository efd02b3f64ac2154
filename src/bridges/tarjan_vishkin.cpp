#include "bridges/tarjan_vishkin.hpp"

#include "bridges/cc_spanning.hpp"
#include "bridges/tv_detail.hpp"
#include "core/euler_tour.hpp"
#include "device/primitives.hpp"

namespace emc::bridges {

BridgeMask find_bridges_tarjan_vishkin(const device::Context& ctx,
                                       graph::EdgeSpan graph,
                                       util::PhaseTimer* phases) {
  const auto n = static_cast<std::size_t>(graph.num_nodes);
  const std::size_t m = graph.edges.size();
  BridgeMask is_bridge(m, 0);
  if (n <= 1 || m == 0) return is_bridge;

  // --- Phase 1: spanning forest from connected components.
  const SpanningForest forest = cc_spanning_forest(ctx, graph, phases);

  // --- Phase 2: Euler tour statistics on the forest rooted at virtual node
  // n.
  core::TreeStats stats;
  std::vector<std::uint8_t> is_tree_edge(m, 0);
  {
    util::ScopedPhase phase(phases, "euler_tour");
    device::launch(ctx, forest.tree_edges.size(), [&](std::size_t k) {
      is_tree_edge[forest.tree_edges[k]] = 1;
    });
    const core::EulerTour tour = core::build_euler_tour(
        ctx, virtual_root_tree(ctx, graph, forest), graph.num_nodes);
    stats = core::compute_tree_stats(ctx, tour);
  }
  const std::vector<NodeId>& pre = stats.preorder;
  const std::vector<NodeId>& size = stats.subtree_size;

  // --- Phase 3: low/high and the bridge criterion.
  util::ScopedPhase phase(phases, "detect_bridges");
  const tv_detail::LowHigh lh =
      tv_detail::subtree_low_high(ctx, graph, is_tree_edge, stats);

  // Criterion, one virtual thread per tree edge: let c be the child
  // endpoint; bridge iff low(c) >= pre(c) and high(c) < pre(c) + size(c).
  device::launch(ctx, forest.tree_edges.size(), [&](std::size_t k) {
    const EdgeId e = forest.tree_edges[k];
    const graph::Edge edge = graph.edges[e];
    const NodeId c =
        stats.parent[edge.u] == edge.v ? edge.u : edge.v;  // child endpoint
    if (lh.low[c] >= pre[c] && lh.high[c] < pre[c] + size[c]) is_bridge[e] = 1;
  });
  return is_bridge;
}

}  // namespace emc::bridges
