// The Euler tour technique (paper §2) — the primary contribution.
//
// Pipeline, exactly as the paper describes it:
//
//   1. DCEL construction (§2.1): duplicate each undirected tree edge into a
//      pair of directed half-edges stored adjacently (twin(e) = e ^ 1), sort
//      a copy by source (stable, so the half-edges leaving a node keep their
//      id order; any order there gives a valid tour), and derive the `next`
//      pointer of every half-edge (its successor among edges leaving the
//      same node, wrapping to `first[src]`). So the root's children are
//      visited in input edge order, and every other node's in the cyclic
//      input edge order that starts after its edge to its parent.
//   2. Tour as a linked list: succ(e) = next(twin(e)); the cyclic list is
//      split at an arbitrary edge leaving the root.
//   3. The §2.2 optimization: a *single* list ranking converts the list into
//      an array of half-edges in tour order; every subsequent per-tour
//      computation is a fast array scan instead of another list ranking.
//   4. Node statistics from scans over the tour array: preorder numbers
//      (1-based), subtree sizes, levels, and parents.
//
// All steps are bulk kernels over the device context; passing
// Context::sequential() yields the single-core baseline with identical
// results.
#pragma once

#include <cstdint>
#include <vector>

#include "device/context.hpp"
#include "graph/graph.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace emc::core {

/// Which list-ranking algorithm converts the tour list into an array.
enum class RankAlgo {
  kWeiJaja,      // default: the paper's choice
  kWyllie,       // pointer jumping, for the ablation benchmark
  kSequential,   // single pointer walk (CPU baseline)
};

/// An Euler tour of a tree, in both linked-list and array form, plus the
/// node statistics the applications need.
struct EulerTour {
  NodeId num_nodes = 0;
  NodeId root = kNoNode;

  // Directed half-edges, size 2*(n-1). Half-edges 2k and 2k+1 are the two
  // directions of input tree edge k; twin(e) == e ^ 1.
  std::vector<NodeId> edge_src;
  std::vector<NodeId> edge_dst;

  // Linked-list form: succ[e] is the next half-edge on the tour;
  // succ[tail] == kNoEdge after splitting at `head` (an edge leaving root).
  std::vector<EdgeId> succ;
  EdgeId head = kNoEdge;

  // Array form (§2.2): rank[e] is the tour position of half-edge e and
  // tour[r] is the half-edge at position r.
  std::vector<EdgeId> rank;
  std::vector<EdgeId> tour;

  std::size_t num_half_edges() const { return edge_src.size(); }
  EdgeId twin(EdgeId e) const { return e ^ 1; }
  /// A half-edge goes *down* (parent to child) iff it appears before its
  /// twin on the tour (§2, footnote 4).
  bool goes_down(EdgeId e) const { return rank[e] < rank[twin(e)]; }
};

/// Per-node statistics computed from the tour (§2.2, §3.1, §4.1).
struct TreeStats {
  std::vector<NodeId> preorder;      // 1-based, root gets 1
  std::vector<NodeId> subtree_size;  // root gets n
  std::vector<NodeId> level;         // root gets 0
  std::vector<NodeId> parent;        // parent[root] == kNoNode
};

/// Builds an Euler tour of the tree given as an unordered edge list with
/// `edges.num_nodes - 1` edges. Phase timings (sort, list ranking, ...) are
/// recorded into `phases` when non-null.
EulerTour build_euler_tour(const device::Context& ctx,
                           const graph::EdgeList& edges, NodeId root,
                           RankAlgo rank_algo = RankAlgo::kWeiJaja,
                           util::PhaseTimer* phases = nullptr);

/// Computes preorder, subtree size, level and parent arrays by scans over
/// the tour array.
TreeStats compute_tree_stats(const device::Context& ctx, const EulerTour& tour,
                             util::PhaseTimer* phases = nullptr);

/// Rooting an unrooted spanning tree (§4.3, the hybrid algorithm): given
/// tree edges and a chosen root, returns each node's parent and level using
/// only the Euler tour technique.
void root_tree(const device::Context& ctx, const graph::EdgeList& edges,
               NodeId root, std::vector<NodeId>& parent,
               std::vector<NodeId>& level, util::PhaseTimer* phases = nullptr);

}  // namespace emc::core
