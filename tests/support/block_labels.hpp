// Block labels as the engine's indexes derive them. The 2-edge-connected
// labels of a snapshot under a bridge mask: a ConnectivityOracle over the
// snapshot's spanning forest and forest LCA; suites compare their partition
// with test_support::two_ecc_labels. The biconnected block of each edge,
// read off a BccIndex; suites compare it with ReferenceBcc::edge_block.
#pragma once

#include <vector>

#include "bcc/bcc.hpp"
#include "bridges/bridges.hpp"
#include "bridges/cc_spanning.hpp"
#include "device/context.hpp"
#include "dynamic/oracle.hpp"
#include "graph/graph.hpp"
#include "util/types.hpp"

namespace emc::test_support {

inline std::vector<NodeId> oracle_block_labels(
    const device::Context& ctx, graph::EdgeSpan g,
    const bridges::BridgeMask& mask) {
  const bridges::SpanningForest forest = bridges::cc_spanning_forest(ctx, g);
  return dynamic::ConnectivityOracle(ctx, g, forest,
                                     bridges::forest_lca(ctx, g, forest), mask)
      .block_labels();
}

/// Each edge's block in `index`: the one block its endpoints share, by
/// same_bcc's rule (two blocks share at most one vertex). kNoNode for a
/// self-loop, which belongs to no block.
inline std::vector<NodeId> bcc_edge_blocks(const bcc::BccIndex& index,
                                           graph::EdgeSpan g) {
  std::vector<NodeId> blocks(g.edges.size(), kNoNode);
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    const auto [u, v] = g.edges[e];
    if (u == v) continue;
    const NodeId bu = index.vertex_block[u];
    const bool u_side =
        bu != kNoNode && (bu == index.vertex_block[v] || index.head[bu] == v);
    blocks[e] = u_side ? bu : index.vertex_block[v];
  }
  return blocks;
}

}  // namespace emc::test_support
