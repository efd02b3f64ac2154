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
//
// Every Euler-tour user roots this forest one way, virtual_root_tree below:
// the forest plus one virtual node adjacent to each component
// representative. root_forest tours it for forest_lca, whose tree() the
// BCC index, TV detection and the hybrid's marking read; the standalone
// hybrid tours it in its own phases.
#pragma once

#include <memory>
#include <vector>

#include "device/context.hpp"
#include "graph/graph.hpp"
#include "lca/inlabel.hpp"
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

/// The component representatives (nodes v with component[v] == v),
/// compacted in node order — exactly forest.num_components entries.
std::vector<NodeId> component_representatives(const device::Context& ctx,
                                              const SpanningForest& forest);

/// The one way a spanning forest is rooted: its tree edges (in tree_edges
/// order) followed by one edge from virtual node n = graph.num_nodes to each
/// component representative (in node order) — one tree on n + 1 nodes with
/// exactly n edges, to be rooted at n. Each component then hangs below its
/// representative as a subtree with a contiguous preorder interval, so
/// per-component rules (Tarjan's bridge criterion, low/high, LCA) hold on it
/// unchanged. The parent edges of the representatives are the virtual ones:
/// a node whose parent is n is a component root. Connected, disconnected and
/// edgeless inputs all take this path.
graph::EdgeList virtual_root_tree(const device::Context& ctx,
                                  graph::EdgeSpan graph,
                                  const SpanningForest& forest);

/// The one place a forest is rooted: virtual_root_tree, its Euler tour from
/// virtual node n, and the tour's stats over the n + 1 nodes.
core::TreeStats root_forest(const device::Context& ctx, graph::EdgeSpan graph,
                            const SpanningForest& forest);

/// The forest LCA: the inlabel index over root_forest, kept as its tree().
std::shared_ptr<const lca::InlabelLca> forest_lca(const device::Context& ctx,
                                                  graph::EdgeSpan graph,
                                                  const SpanningForest& forest);

}  // namespace emc::bridges
