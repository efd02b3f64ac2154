// The Chaitanya-Kothapalli bridge finder (paper §4.1, "CK").
//
// The state-of-the-art heuristic the paper compares against: simple,
// worst-case quadratic work, and excellent on small-diameter graphs.
//
//   Phase 1: a rooted spanning forest — parallel BFS from one root per
//            component (which bounds the tree depth by twice the graph
//            diameter, hence the O(m·d) marking bound).
//   Phase 2: for every non-tree edge in parallel, walk both endpoints up
//            the tree to their meeting point (their LCA), marking every
//            tree edge on the way. A tree edge is a bridge iff it is never
//            marked; non-tree edges are never bridges.
//
// The multi-core CPU variant of the paper runs the identical algorithm on a
// CPU-width context.
#pragma once

#include "bridges/bfs.hpp"
#include "bridges/bridges.hpp"
#include "device/context.hpp"
#include "graph/graph.hpp"
#include "util/timer.hpp"

namespace emc::bridges {

/// `csr` must be the adjacency of `graph`. `roots` holds one BFS root per
/// connected component (e.g. component_representatives of its spanning
/// forest; {0} for a connected graph), so any input works. Throws
/// std::invalid_argument when the BFS from `roots` leaves a node that has an
/// edge unreached (the roots miss a component).
BridgeMask find_bridges_ck(const device::Context& ctx,
                           graph::EdgeSpan graph,
                           const graph::Csr& csr,
                           const std::vector<NodeId>& roots,
                           util::PhaseTimer* phases = nullptr);

/// The marking phase alone, reusable with any rooted spanning tree (this is
/// what the hybrid algorithm of §4.3 calls after rooting a CC tree with the
/// Euler tour technique). `parent_edge[v]` maps v to the undirected edge id
/// of (v, parent[v]), or kNoEdge when v has no real parent edge (a root,
/// or a node below a virtual root); `is_tree_edge` flags edges of the
/// spanning tree.
BridgeMask ck_marking_phase(const device::Context& ctx,
                            graph::EdgeSpan graph,
                            const std::vector<NodeId>& parent,
                            const std::vector<EdgeId>& parent_edge,
                            const std::vector<NodeId>& level,
                            const std::vector<std::uint8_t>& is_tree_edge,
                            util::PhaseTimer* phases = nullptr);

}  // namespace emc::bridges
