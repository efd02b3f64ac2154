// The Tarjan-Vishkin bridge finder (paper §4.1, "TV").
//
// The theoretically optimal algorithm: O(log n) time, O(n + m) work. Three
// phases, matching the paper's Figure 11 breakdown:
//
//   spanning_tree   — device connected components (ECL-CC stand-in), which
//                     yields an unrooted spanning forest as a byproduct;
//   euler_tour      — root the forest below one virtual node
//                     (root_forest) and compute preorder numbers and
//                     subtree sizes with the Euler tour technique;
//   detect_bridges  — each node's min/max non-tree neighbor (atomic
//                     min/max per edge; the paper sorts and segreduces),
//                     aggregated to low/high over subtrees (an RMQ over the
//                     preorder intervals, blocked: 64-wide blocks plus a
//                     sparse table over the block folds), and apply
//                     Tarjan's criterion: with the nodes identified by
//                     preorder numbers, tree edge (v, parent(v)) is a bridge
//                     iff both low(v) and high(v) stay inside
//                     [pre(v), pre(v) + size(v)), i.e. no non-tree edge
//                     escapes the subtree. (Works for *any* spanning tree —
//                     that is Tarjan's escape from the DFS obstacle.)
//
// The tour form (second overload) is detect_bridges alone: the engine runs
// it on its forest LCA's tree(), the epoch's one Euler tour, so an engine
// TV mask costs detection only and no spanning forest or tour of its own.
#pragma once

#include "bridges/bridges.hpp"
#include "bridges/cc_spanning.hpp"
#include "device/context.hpp"
#include "graph/graph.hpp"
#include "util/timer.hpp"

namespace emc::bridges {

/// Any graph: connected, disconnected, multigraph or edgeless.
BridgeMask find_bridges_tarjan_vishkin(const device::Context& ctx,
                                       graph::EdgeSpan graph,
                                       util::PhaseTimer* phases = nullptr);

/// detect_bridges alone, on `forest` already rooted below virtual node
/// graph.num_nodes (root_forest's stats, e.g. a forest LCA's tree()).
BridgeMask find_bridges_tarjan_vishkin(const device::Context& ctx,
                                       graph::EdgeSpan graph,
                                       const SpanningForest& forest,
                                       const core::TreeStats& tree,
                                       util::PhaseTimer* phases = nullptr);

}  // namespace emc::bridges
