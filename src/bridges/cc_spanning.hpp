// Device-parallel connected components with a spanning forest byproduct.
//
// Stands in for the Jaiganesh-Burtscher ECL-CC implementation the paper uses
// ("a GPU-optimized connected components algorithm ... which constructs a
// spanning tree as a byproduct", §4.1). We implement the same algorithm
// family — label hooking plus pointer-jumping shortcuts (Shiloach-Vishkin /
// ECL-CC lineage) — as rounds of bulk kernels:
//
//   repeat until no hook fires:
//     flatten labels (pointer jumping)
//     every cross-component edge proposes hooking the larger root onto the
//       smaller (atomic min keyed by (target label, edge id), so the result
//       is deterministic regardless of thread interleaving)
//     winning proposals hook, and the winning edge joins the forest
//
// Hooking strictly label-decreasing keeps the union acyclic, so the
// recorded edges form a spanning forest: exactly n - #components edges.
#pragma once

#include <vector>

#include "device/context.hpp"
#include "graph/graph.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace emc::bridges {

struct SpanningForest {
  std::vector<NodeId> component;  // flat component label per node
  std::vector<EdgeId> tree_edges;  // ids into EdgeList::edges
  std::size_t num_components = 0;
};

SpanningForest cc_spanning_forest(const device::Context& ctx,
                                  graph::EdgeSpan graph,
                                  util::PhaseTimer* phases = nullptr);

// component_representatives / stitch_components — the virtual-edge
// stitch-and-slice machinery built on this forest — live in
// bridges/stitch.hpp (standalone so the shard summary can reuse them
// without pulling in the CC kernels' callers).

}  // namespace emc::bridges
