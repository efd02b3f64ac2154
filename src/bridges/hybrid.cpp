#include "bridges/hybrid.hpp"

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

  // Phase 1: unrooted spanning forest from connected components.
  const SpanningForest forest = cc_spanning_forest(ctx, graph, phases);
  std::vector<std::uint8_t> is_tree_edge(graph.edges.size(), 0);
  device::launch(ctx, forest.tree_edges.size(), [&](std::size_t k) {
    is_tree_edge[forest.tree_edges[k]] = 1;
  });
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

  // parent_edge: map each node below a real tree edge to that edge's id;
  // the virtual root and the component roots keep kNoEdge, so the marking
  // phase skips their (virtual) parent edges.
  std::vector<EdgeId> parent_edge(n + 1, kNoEdge);
  device::launch(ctx, forest.tree_edges.size(), [&](std::size_t k) {
    const EdgeId e = forest.tree_edges[k];
    const graph::Edge edge = graph.edges[e];
    const NodeId child = stats.parent[edge.u] == edge.v ? edge.u : edge.v;
    parent_edge[child] = e;
  });

  // Phase 4: CK marking on the rooted CC forest.
  return ck_marking_phase(ctx, graph, stats.parent, parent_edge, stats.level,
                          is_tree_edge, phases);
}

}  // namespace emc::bridges
