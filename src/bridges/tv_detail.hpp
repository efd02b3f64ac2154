// Shared internals of the Tarjan-Vishkin family (bridges, bcc::BccIndex and
// the 2-ecc index of an erase splice, dynamic::ConnectivityOracle).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/euler_tour.hpp"
#include "device/context.hpp"
#include "device/function_ref.hpp"
#include "graph/graph.hpp"
#include "util/types.hpp"

namespace emc::bridges::tv_detail {

/// Per node of a rooted spanning tree of `graph` (stats from its Euler
/// tour; the tree may have more nodes than `graph`, e.g. the virtual root of
/// virtual_root_tree): the min (low) and max (high) preorder number among
/// the nodes of v's subtree and their non-tree neighbours.
struct LowHigh {
  std::vector<NodeId> low;
  std::vector<NodeId> high;
};

/// Low/high in preorder space, the one implementation. Position p holds the
/// node with preorder p + 1 (`pre` is per node, `size_at` per position:
/// the subtree of position p is [p, p + size_at[p])). Sort-free: one launch
/// over the edges folds each non-tree neighbour's preorder into its
/// endpoint's position by atomic min/max, then a blocked RMQ (64-wide blocks
/// with in-block prefix and suffix folds, and a sparse table over the n/64
/// block folds) answers every position's subtree interval, in position
/// order, in one launch that calls visit(p, low, high). O(n + m) work,
/// log2(n/64) + 4 launches.
void subtree_low_high(
    const device::Context& ctx, graph::EdgeSpan graph,
    std::span<const std::uint8_t> is_tree_edge, const std::vector<NodeId>& pre,
    const NodeId* size_at,
    device::FunctionRef<void(std::size_t, NodeId, NodeId)> visit);

/// The same, per node: one launch lays the tree out in preorder space
/// first.
LowHigh subtree_low_high(const device::Context& ctx, graph::EdgeSpan graph,
                         const std::vector<std::uint8_t>& is_tree_edge,
                         const core::TreeStats& stats);

}  // namespace emc::bridges::tv_detail
