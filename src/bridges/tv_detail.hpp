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

/// The paper's sort + segreduce step — (node, pre[other]) pairs for both
/// directions of each non-tree edge, radix-sorted by node, reduced per run —
/// then one min and one max sparse table over preorder positions, queried
/// once per node on its subtree interval [pre(v), pre(v) + size(v)).
LowHigh subtree_low_high(const device::Context& ctx, graph::EdgeSpan graph,
                         const std::vector<std::uint8_t>& is_tree_edge,
                         const core::TreeStats& stats);

}  // namespace emc::bridges::tv_detail
