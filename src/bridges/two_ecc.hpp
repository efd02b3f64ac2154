// 2-edge-connected components (paper §4, problem definition).
//
// "A simple method to decompose a graph into 2-edge-connected components is
// to find all bridges, remove them, and find connected components in the
// resulting graph" — that is exactly what this does, reusing any bridge
// finder's mask and the device CC algorithm.
#pragma once

#include <vector>

#include "bridges/bridges.hpp"
#include "device/context.hpp"
#include "graph/graph.hpp"
#include "util/types.hpp"

namespace emc::bridges {

/// Labels each node with a representative of its 2-edge-connected
/// component (nodes u, v share a label iff two edge-disjoint u-v paths
/// exist). `is_bridge` must come from the same graph.
std::vector<NodeId> two_edge_components(const device::Context& ctx,
                                        graph::EdgeSpan graph,
                                        const BridgeMask& is_bridge);

}  // namespace emc::bridges
