// Shared internals of the Tarjan-Vishkin family (bridges + bcc::BccIndex).
#pragma once

#include <cstdint>
#include <vector>

#include "core/euler_tour.hpp"
#include "device/context.hpp"
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

/// Sort-free: one launch over the edges folds each non-tree neighbour's
/// preorder into its endpoint's preorder slot by atomic min/max, then a
/// blocked RMQ (64-wide blocks with in-block prefix and suffix folds, and a
/// sparse table over the n/64 block folds) answers each node's subtree
/// interval [pre(v), pre(v) + size(v)). O(n + m) work, log2(n/64) + 4
/// launches.
LowHigh subtree_low_high(const device::Context& ctx, graph::EdgeSpan graph,
                         const std::vector<std::uint8_t>& is_tree_edge,
                         const core::TreeStats& stats);

}  // namespace emc::bridges::tv_detail
