// Euler-tour splicing: the cut and link of Henzinger & King's Euler-tour
// trees, done in bulk over the array form of a tour (paper §2.2).
//
// A rooted tree's tour array needs no list ranking to rebuild: the down
// edge into v sits at position 2(pre(v) - 1) - level(v) - 1, and its up
// edge 2 size(v) - 1 positions later, so preorder, level and subtree size
// place every half-edge. Cutting the parent edges of a set of nodes (the
// cuts) splits the tree into pieces: piece 0 holds the root, and each cut
// heads the piece below it. A piece's tour is its cut's tour interval with
// the nested cut intervals taken out: a few runs of the old array. The
// caller then hangs every piece p >= 1 somewhere else by one new tree edge
// {node, parent} (the link), node in p and parent in another piece, such
// that following the links from any piece reaches piece 0. The relinked
// tree's tour follows by an interval argument alone:
//
//   * rerooting a piece at `node` rotates its cyclic tour to start right
//     after the down edge into `node` (the first half-edge leaving it);
//   * hanging a piece below `parent` inserts its rotated tour, between the
//     new edge's two half-edges, right after the down edge into `parent`
//     (at the start of the parent piece's tour when `parent` is its head).
//
// So one host plan over the pieces' runs lays out the new tour as copied
// runs of the old array and the new half-edges, and one parallel pass
// copies the runs. Nothing is sorted and nothing is list-ranked; the tour's
// array form goes straight to compute_tree_stats.
//
// Half-edge ids: the tree edge above node v (the root has none) has id v,
// shifted down by one past the root, and half-edges 2 id (down into v) and
// 2 id + 1 (up). A cut's id carries the link of the piece the cut heads.
#pragma once

#include <span>
#include <vector>

#include "core/euler_tour.hpp"
#include "device/context.hpp"
#include "device/function_ref.hpp"
#include "util/types.hpp"

namespace emc::core {

/// The new tree edge a piece hangs by: `node`, a node of the piece, becomes
/// its root, and its parent is `parent`, a node of another piece.
struct TourLink {
  NodeId node = kNoNode;
  NodeId parent = kNoNode;
};

/// The pieces a cut leaves, as the link step reads them. Piece 0 holds the
/// root; piece p >= 1 is headed by heads[p - 1].
struct TourPieces {
  std::span<const NodeId> heads;     // the cuts, in tour order
  std::span<const NodeId> piece;     // per node: its piece
  std::span<const NodeId> smallest;  // per piece: its smallest node
};

/// The links for pieces 1.. (one per piece, in piece order), chosen from
/// the pieces. The spans die when splice_tree returns.
using LinkPieces = device::FunctionRef<std::vector<TourLink>(const TourPieces&)>;

/// The stats of `tree` (rooted at `root`) with the parent edges of `cuts`
/// (distinct non-root nodes) removed and every piece hung by the link
/// `link` picks for it: compute_tree_stats over the spliced tour, whose
/// array form lives in the context's arena scratch. O(n) device work in
/// four passes plus O(cuts log cuts) on the host, before the stats.
TreeStats splice_tree(const device::Context& ctx, const TreeStats& tree,
                      NodeId root, std::span<const NodeId> cuts,
                      LinkPieces link);

}  // namespace emc::core
