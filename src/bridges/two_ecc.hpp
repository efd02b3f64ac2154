// 2-edge-connected components (paper §4, problem definition).
//
// "A simple method to decompose a graph into 2-edge-connected components is
// to find all bridges, remove them, and find connected components in the
// resulting graph" — and since every bridge is a tree edge of every
// spanning forest, the forest minus its bridges already has exactly those
// components. So this runs the device CC over the at most n - 1 non-bridge
// tree edges, reusing any bridge finder's mask.
#pragma once

#include <vector>

#include "bridges/bridges.hpp"
#include "bridges/cc_spanning.hpp"
#include "device/context.hpp"
#include "graph/graph.hpp"
#include "util/types.hpp"

namespace emc::bridges {

/// Labels each node with a representative of its 2-edge-connected
/// component (nodes u, v share a label iff two edge-disjoint u-v paths
/// exist; the representative carries its own label). `forest` and
/// `is_bridge` must come from the same graph.
std::vector<NodeId> two_edge_components(const device::Context& ctx,
                                        graph::EdgeSpan graph,
                                        const SpanningForest& forest,
                                        const BridgeMask& is_bridge);

}  // namespace emc::bridges
