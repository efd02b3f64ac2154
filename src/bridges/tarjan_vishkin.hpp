// The Tarjan-Vishkin bridge finder (paper §4.1, "TV").
//
// The theoretically optimal algorithm: O(log n) time, O(n + m) work. Three
// phases, matching the paper's Figure 11 breakdown:
//
//   spanning_tree   — device connected components (ECL-CC stand-in), which
//                     yields an unrooted spanning tree as a byproduct;
//   euler_tour      — root the tree and compute preorder numbers and
//                     subtree sizes with the Euler tour technique, plus each
//                     node's min/max non-tree neighbor (segreduce);
//   detect_bridges  — aggregate low/high over subtrees (an RMQ over the
//                     preorder intervals, via segment trees) and apply
//                     Tarjan's criterion: with the nodes identified by
//                     preorder numbers, tree edge (v, parent(v)) is a bridge
//                     iff both low(v) and high(v) stay inside
//                     [pre(v), pre(v) + size(v)), i.e. no non-tree edge
//                     escapes the subtree. (Works for *any* spanning tree —
//                     that is Tarjan's escape from the DFS obstacle.)
#pragma once

#include "bridges/bridges.hpp"
#include "device/context.hpp"
#include "graph/graph.hpp"
#include "util/timer.hpp"

namespace emc::bridges {

/// Requires a connected graph with at least one node.
BridgeMask find_bridges_tarjan_vishkin(const device::Context& ctx,
                                       graph::EdgeSpan graph,
                                       util::PhaseTimer* phases = nullptr);

}  // namespace emc::bridges
