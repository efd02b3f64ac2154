// Vertex biconnectivity on the engine's cached artifacts.
//
// The paper evaluates only the bridge slice of the Tarjan-Vishkin framework;
// this module completes it: it computes blocks (2-vertex-connected
// components) and articulation points for ANY snapshot — disconnected,
// multigraph, edgeless — directly from the spanning forest and forest-LCA
// tree the engine already caches per epoch, and packages the result as an
// immutable epoch-keyed artifact (`BccIndex`); the engine builds it lazily behind a
// once-per-epoch cell (engine::EpochCell) that Session and View share.
//
// Tarjan & Vishkin (1985): identify nodes with preorder numbers of a
// spanning tree T and build an auxiliary graph G'' whose vertices are the
// tree edges (each non-root node w stands for its parent edge), adding
//   (a) for every non-tree edge {v, w} with endpoints unrelated in T: the
//       aux edge {edge(v), edge(w)};
//   (b) for every tree edge (v, w), v = parent(w), v not the root: the aux
//       edge {edge(v), edge(w)} iff low(w) < pre(v) or
//       high(w) >= pre(v) + size(v) (a non-tree edge escapes w's subtree
//       past v).
// Connected components of G'' are exactly the blocks of G.
//
// Construction = Tarjan-Vishkin over the one virtual-root tree that TV, the
// hybrid and the forest-LCA artifact also root (bridges::virtual_root_tree:
// one virtual root adjacent to every component representative; n + 1
// nodes, exactly n tree edges). The engine passes the tree its forest LCA
// already toured (bridges::root_forest); only the standalone build tours:
//   * low/high per node from the tree's stats by the routine TV's bridge
//     criterion reads (bridges::tv_detail::subtree_low_high: atomic
//     min/max over the non-tree edges + a blocked RMQ over preorder; cf.
//     fast-bcc's low/high interval machinery);
//   * the blocks: the CC of the snapshot's edges under the rule (a)/(b)
//     mask (cc_spanning_forest with a keep mask). With node w standing for
//     its parent edge, the kept edges are exactly G'''s edge multiset: rule
//     (a) keeps an unrelated non-tree edge {v, w} as it is, and rule (b)'s
//     {edge(v), edge(w)} is w's tree edge {w, v}. A representative's parent
//     edge is virtual: rule (a) never selects it (every non-tree edge at a
//     representative stays inside its subtree) and rule (b) drops a tree
//     edge whose parent is a representative — the "v is not the root" side
//     condition of per-component Tarjan-Vishkin;
//   * block labels compacted to [0, num_blocks) (dense ids for the
//     O(num_blocks) head/articulation passes and for cross-shard offsets).
//
// Two derived tables make every point query O(1):
//   * vertex_block[v] — the block of v's parent edge (kNoNode for component
//     roots and isolated nodes). Within a block B, B ∩ T is a connected
//     subtree, so every vertex of B except the subtree's top has its parent
//     edge IN B.
//   * head[b] — that top vertex (the minimum-preorder vertex of block b).
// Then v's blocks are {vertex_block[v]} ∪ {b : head[b] == v} with no double
// count, giving both same_bcc() and the articulation mask ("belongs to >= 2
// blocks") without a counting-sorted edge-incidence pass. An edge's block
// is the one block its two endpoints share (two blocks share at most one
// vertex), so the index holds no m-sized table.
#pragma once

#include <cstdint>
#include <vector>

#include "bridges/cc_spanning.hpp"
#include "device/context.hpp"
#include "graph/graph.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace emc::bcc {

/// Immutable vertex-biconnectivity artifact for one epoch's snapshot.
/// Everything is computed once by build(); afterwards the structure is
/// read-only and safe to share across reader threads without locks — the
/// same published-artifact discipline as the bridge mask (a new epoch gets
/// a NEW index; the old one stays frozen under its pinned Views).
struct BccIndex {
  /// Per node: the block of v's parent edge in the spanning forest, or
  /// kNoNode when v has none (component representatives, isolated nodes).
  std::vector<NodeId> vertex_block;
  /// Per block: its minimum-preorder vertex — the root of the block's
  /// subtree in the forest, the one member whose parent edge is outside.
  std::vector<NodeId> head;
  /// Per node: 1 iff removing the node increases the component count.
  std::vector<std::uint8_t> is_articulation;
  std::size_t num_blocks = 0;
  std::size_t num_articulations = 0;

  /// True iff some block contains both u and v (u == v counts as true).
  /// O(1): v's blocks are {vertex_block[v]} ∪ {b : head[b] == v}.
  bool same_bcc(NodeId u, NodeId v) const {
    if (u == v) return true;
    const NodeId bu = vertex_block[u];
    const NodeId bv = vertex_block[v];
    if (bu != kNoNode && bu == bv) return true;
    if (bu != kNoNode && head[bu] == v) return true;
    if (bv != kNoNode && head[bv] == u) return true;
    return false;
  }

  /// Builds the index from a snapshot and its spanning forest, rooted by
  /// bridges::root_forest. Caller must hold the device driver lock.
  static BccIndex build(const device::Context& ctx,
                        graph::EdgeSpan graph,
                        const bridges::SpanningForest& forest,
                        util::PhaseTimer* phases = nullptr);

  /// The same on `forest` already rooted (the engine's forest LCA tree()).
  static BccIndex build(const device::Context& ctx,
                        graph::EdgeSpan graph,
                        const bridges::SpanningForest& forest,
                        const core::TreeStats& tree,
                        util::PhaseTimer* phases = nullptr);
};

}  // namespace emc::bcc
