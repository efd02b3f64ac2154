#include "bridges/two_ecc.hpp"

#include "bridges/cc_spanning.hpp"

namespace emc::bridges {

std::vector<NodeId> two_edge_components(const device::Context& ctx,
                                        graph::EdgeSpan graph,
                                        const BridgeMask& is_bridge) {
  graph::EdgeList residual;
  residual.num_nodes = graph.num_nodes;
  residual.edges.reserve(graph.edges.size());
  for (std::size_t e = 0; e < graph.edges.size(); ++e) {
    if (!is_bridge[e]) residual.edges.push_back(graph.edges[e]);
  }
  return cc_spanning_forest(ctx, residual).component;
}

}  // namespace emc::bridges
