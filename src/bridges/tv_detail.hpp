// Shared internals of the Tarjan-Vishkin family (bridges + bcc::BccIndex).
#pragma once

#include <cstdint>
#include <vector>

#include "device/context.hpp"
#include "graph/graph.hpp"
#include "util/types.hpp"

namespace emc::bridges::tv_detail {

/// Folds, into node_min/node_max (preinitialized with identities), the
/// min/max preorder number among every node's non-tree neighbors. This is
/// the paper's sort + segreduce step: (node, pre[other]) pairs for both
/// directions of each non-tree edge, radix-sorted by node, reduced per run.
void aggregate_non_tree_min_max(const device::Context& ctx,
                                graph::EdgeSpan graph,
                                const std::vector<std::uint8_t>& is_tree_edge,
                                const std::vector<NodeId>& pre,
                                std::vector<NodeId>& node_min,
                                std::vector<NodeId>& node_max);

}  // namespace emc::bridges::tv_detail
