#include "bridges/tarjan_vishkin.hpp"

#include <atomic>
#include <cassert>

#include "bridges/cc_spanning.hpp"
#include "bridges/tv_detail.hpp"
#include "core/euler_tour.hpp"
#include "device/primitives.hpp"
#include "device/segreduce.hpp"
#include "rmq/segment_tree.hpp"
#include "rmq/sparse_table.hpp"

namespace emc::bridges {

BridgeMask find_bridges_tarjan_vishkin(const device::Context& ctx,
                                       graph::EdgeSpan graph,
                                       util::PhaseTimer* phases) {
  const auto n = static_cast<std::size_t>(graph.num_nodes);
  const std::size_t m = graph.edges.size();
  BridgeMask is_bridge(m, 0);
  if (n <= 1 || m == 0) return is_bridge;

  // --- Phase 1: spanning tree from connected components.
  const SpanningForest forest = cc_spanning_forest(ctx, graph, phases);
  assert(forest.num_components == 1 && "TV requires a connected input");

  // --- Phase 2: Euler tour statistics on the spanning tree.
  core::TreeStats stats;
  std::vector<std::uint8_t> is_tree_edge(m, 0);
  {
    util::ScopedPhase phase(phases, "euler_tour");
    graph::EdgeList tree;
    tree.num_nodes = graph.num_nodes;
    tree.edges.resize(forest.tree_edges.size());
    device::launch(ctx, forest.tree_edges.size(), [&](std::size_t k) {
      const EdgeId e = forest.tree_edges[k];
      tree.edges[k] = graph.edges[e];
      is_tree_edge[e] = 1;
    });
    const NodeId root = 0;
    const core::EulerTour tour = core::build_euler_tour(ctx, tree, root);
    stats = core::compute_tree_stats(ctx, tour);
  }
  const std::vector<NodeId>& pre = stats.preorder;
  const std::vector<NodeId>& size = stats.subtree_size;

  // --- Phase 3: low/high and the bridge criterion.
  util::ScopedPhase phase(phases, "detect_bridges");

  // Per-node min/max preorder among non-tree neighbors — the paper's
  // sort + mgpu::segreduce step: emit (node, pre[other endpoint]) for both
  // directions of every non-tree edge, radix-sort by node (streaming
  // passes, exactly how mgpu consumes it), then reduce each run. The
  // preorder-indexed staging arrays are arena scratch.
  device::Arena::Scope scope(ctx.arena());
  std::vector<NodeId> node_min(n), node_max(n);
  device::launch(ctx, n, [&](std::size_t v) {
    node_min[v] = pre[v];  // the node itself can never provide an escape
    node_max[v] = pre[v];
  });
  tv_detail::aggregate_non_tree_min_max(ctx, graph, is_tree_edge, pre,
                                        node_min, node_max);

  // RMQ over preorder positions: value at position pre[v]-1 describes v.
  // A sparse table answers the n subtree-interval queries in O(1) each with
  // two streaming lookups; the paper's segment tree is kept as an ablation
  // (bench_ablation --detect-rmq=segtree compares the two).
  NodeId* by_pre_min = scope.get<NodeId>(n);
  NodeId* by_pre_max = scope.get<NodeId>(n);
  device::launch(ctx, n, [&](std::size_t v) {
    by_pre_min[pre[v] - 1] = node_min[v];
    by_pre_max[pre[v] - 1] = node_max[v];
  });
  const rmq::SparseTable<NodeId, rmq::MinOp> low_tree(ctx, by_pre_min, n);
  const rmq::SparseTable<NodeId, rmq::MaxOp> high_tree(ctx, by_pre_max, n);

  // Criterion, one virtual thread per tree edge: let c be the child
  // endpoint; bridge iff low(c) >= pre(c) and high(c) < pre(c) + size(c).
  device::launch(ctx, forest.tree_edges.size(), [&](std::size_t k) {
    const EdgeId e = forest.tree_edges[k];
    const graph::Edge edge = graph.edges[e];
    const NodeId c =
        stats.parent[edge.u] == edge.v ? edge.u : edge.v;  // child endpoint
    const std::size_t lo = static_cast<std::size_t>(pre[c]) - 1;
    const std::size_t hi = lo + static_cast<std::size_t>(size[c]) - 1;
    const NodeId low = low_tree.query(lo, hi);
    const NodeId high = high_tree.query(lo, hi);
    if (low >= pre[c] && high < pre[c] + size[c]) is_bridge[e] = 1;
  });
  return is_bridge;
}

}  // namespace emc::bridges
