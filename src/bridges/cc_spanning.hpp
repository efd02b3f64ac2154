// Device-parallel connected components with a spanning forest byproduct.
//
// Stands in for the Jaiganesh-Burtscher ECL-CC implementation the paper uses
// ("a GPU-optimized connected components algorithm ... which constructs a
// spanning tree as a byproduct", §4.1). We implement the same algorithm
// family — label hooking plus pointer-jumping shortcuts (Shiloach-Vishkin /
// ECL-CC lineage) — as rounds of bulk kernels:
//
//   repeat until no hook fires:
//     every cross-component edge proposes hooking the larger root onto the
//       smaller (atomic min keyed by (target label, edge id), so the result
//       is deterministic regardless of thread interleaving)
//     winning proposals hook, and the winning edge joins the forest
//     flatten labels (device::uf_flatten, one launch)
//
// Only round 1 scans every edge. Each later round compacts the edges that
// still cross components out of the previous round's list and proposes
// from them in the same kernel, so its work shrinks with the crossing set
// (after round 1, ~17% of a road grid's edges and ~1% of a kron graph's).
//
// Hooking strictly label-decreasing keeps the union acyclic, so the
// recorded edges form a spanning forest: exactly n - #components edges.
// Each component is labeled by its minimum node id. A keep mask restricts
// the CC to the kept edges without copying them (the BCC index's block CC).
//
// Every Euler-tour user roots this forest one way, virtual_root_tree below:
// the forest plus one virtual node adjacent to each component
// representative. root_forest tours it for forest_lca, whose tree() the
// BCC index, TV detection and the hybrid's marking read; the standalone
// hybrid tours it in its own phases.
//
// After an erase batch or a replayed insert batch that links trees,
// splice_forest derives the next forest and forest LCA from the previous
// ones instead: Henzinger & King's cut, replacement search and link, in
// bulk. The cuts are the erased tree edges and the virtual parent edge of
// every component a link touches; they split the trees into pieces, and
// the innermost cut interval over the old preorder names each node's
// piece. One pass keeps the surviving edges whose ends lie in different
// pieces (the replacements and the links), and cc_spanning_forest over that
// contracted piece graph picks the new tree edges. A group of pieces left
// without a path to its old root, or joined by links, is one component,
// labeled and rooted at its minimum node below the virtual root, so the
// forest's component labels equal a fresh CC's. The tour is
// then spliced (core::splice_tree): no forest CC over the whole graph, no
// sort and no list ranking. Only a rebuild tours a forest from scratch
// (forest_lca).
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

/// `keep`: empty (every edge) or one byte per edge; a 0 byte drops the edge.
SpanningForest cc_spanning_forest(const device::Context& ctx,
                                  graph::EdgeSpan graph,
                                  std::span<const std::uint8_t> keep = {},
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

/// A spanning forest and its forest LCA.
struct ForestWithLca {
  std::shared_ptr<const SpanningForest> forest;
  std::shared_ptr<const lca::InlabelLca> lca;
};

/// The forest and forest LCA of `graph`, spliced from `before`'s `forest`
/// and forest LCA `lca`. `graph` is `before` without the edges at the
/// ascending positions `erased` (every survivor keeps its order), followed
/// by any appended edges; `linked` names (by id in `graph`) every appended
/// edge whose ends lie in different components of `forest`. The component
/// labels equal cc_spanning_forest(graph)'s; the tree edges are the
/// surviving old ones, renumbered, followed by the new ones, and each
/// component hangs below its representative (virtual_root_tree's rooting).
ForestWithLca splice_forest(const device::Context& ctx, graph::EdgeSpan before,
                            graph::EdgeSpan graph,
                            const SpanningForest& forest,
                            const lca::InlabelLca& lca,
                            std::span<const EdgeId> erased,
                            std::span<const EdgeId> linked);

}  // namespace emc::bridges
