// Virtual-edge stitching: turn a disconnected graph into a connected one
// without changing any real edge's bridgeness.
//
// The connected-only bridge backends (Tarjan-Vishkin, Chaitanya-Kothapalli,
// the hybrid) and the block-tree builder all assume one component. Rather
// than teach each of them about forests, every caller shares one trick:
// pick a representative per component and add a VIRTUAL edge from the first
// representative to each other one. A virtual edge is the only connection
// between its two components, so no cycle through a real edge can run over
// it and back — a mask computed on the augmentation and truncated to
// graph.num_edges() is exact for the real edges.
//
// Users of this machinery:
//   - engine::Session's stitched() artifact (disconnected static/dynamic
//     snapshots through the connected-only backends),
//   - dynamic::ConnectivityOracle's full rebuild (same stitch before its
//     Tarjan-Vishkin phase),
//   - shard::ShardedGraph's cross-shard summary (per-shard block trees plus
//     boundary edges form a small top-level graph that is naturally
//     disconnected; the summary oracle stitches it the same way).
#pragma once

#include <vector>

#include "bridges/cc_spanning.hpp"
#include "device/context.hpp"
#include "graph/graph.hpp"
#include "util/types.hpp"

namespace emc::bridges {

/// The component representatives (nodes v with component[v] == v),
/// compacted in node order — exactly forest.num_components entries.
std::vector<NodeId> component_representatives(const device::Context& ctx,
                                              const SpanningForest& forest);

/// The connected augmentation every stitch-and-slice caller shares: `graph`
/// plus one virtual edge from the first representative to each other one.
/// A virtual edge can never change a real edge's bridgeness (it is the only
/// connection between its components, so no cycle through a real edge runs
/// over it and back), so a mask computed on the augmentation and truncated
/// to graph.num_edges() is exact. `reps` comes from
/// component_representatives(); a connected graph is returned unchanged.
graph::EdgeList stitch_components(graph::EdgeSpan graph,
                                  const std::vector<NodeId>& reps);

}  // namespace emc::bridges
