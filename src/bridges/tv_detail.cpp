#include "bridges/tv_detail.hpp"

#include <algorithm>

#include "device/arena.hpp"
#include "device/primitives.hpp"
#include "device/sort.hpp"
#include "rmq/segment_tree.hpp"
#include "rmq/sparse_table.hpp"

namespace emc::bridges::tv_detail {

LowHigh subtree_low_high(const device::Context& ctx, graph::EdgeSpan graph,
                         const std::vector<std::uint8_t>& is_tree_edge,
                         const core::TreeStats& stats) {
  const std::vector<NodeId>& pre = stats.preorder;
  const std::vector<NodeId>& size = stats.subtree_size;
  const std::size_t n = pre.size();
  const std::size_t m = graph.edges.size();
  device::Arena::Scope scope(ctx.arena());

  // Per-node min/max indexed by preorder position: position p describes the
  // node with preorder p + 1, which can never provide an escape itself.
  NodeId* by_pre_min = scope.get<NodeId>(n);
  NodeId* by_pre_max = scope.get<NodeId>(n);
  device::launch(ctx, n, [&](std::size_t p) {
    by_pre_min[p] = static_cast<NodeId>(p + 1);
    by_pre_max[p] = static_cast<NodeId>(p + 1);
  });

  // Compact the non-tree edges (a scan keeps it a bulk pipeline), then emit
  // both directions and sort them by node.
  EdgeId* non_tree = scope.get<EdgeId>(m);
  const std::size_t k = device::copy_if_index(
      ctx, m, [&](std::size_t e) { return !is_tree_edge[e]; }, non_tree);
  if (k != 0) {
    std::uint32_t* keys = scope.get<std::uint32_t>(2 * k);
    NodeId* values = scope.get<NodeId>(2 * k);
    device::launch(ctx, k, [&](std::size_t i) {
      const graph::Edge edge = graph.edges[non_tree[i]];
      keys[2 * i] = static_cast<std::uint32_t>(edge.u);
      values[2 * i] = pre[edge.v];
      keys[2 * i + 1] = static_cast<std::uint32_t>(edge.v);
      values[2 * i + 1] = pre[edge.u];
    });
    device::sort_pairs(ctx, keys, values, 2 * k);

    // One virtual thread per run of equal keys (runs are contiguous after
    // the sort; this is what mgpu::segreduce does with its sorted-segment
    // input).
    device::launch(ctx, 2 * k, [&](std::size_t i) {
      if (i != 0 && keys[i] == keys[i - 1]) return;  // not a run head
      const std::uint32_t node = keys[i];
      NodeId lo = values[i];
      NodeId hi = values[i];
      for (std::size_t j = i + 1; j < 2 * k && keys[j] == node; ++j) {
        lo = std::min(lo, values[j]);
        hi = std::max(hi, values[j]);
      }
      const std::size_t p = static_cast<std::size_t>(pre[node]) - 1;
      by_pre_min[p] = std::min(by_pre_min[p], lo);
      by_pre_max[p] = std::max(by_pre_max[p], hi);
    });
  }

  // A subtree is a preorder interval, so a sparse table answers each
  // node's query in O(1) with two streaming lookups (the paper's segment
  // tree is kept as an ablation: bench_ablation --detect-rmq=segtree).
  const rmq::SparseTable<NodeId, rmq::MinOp> low_table(ctx, by_pre_min, n);
  const rmq::SparseTable<NodeId, rmq::MaxOp> high_table(ctx, by_pre_max, n);
  LowHigh result{std::vector<NodeId>(n), std::vector<NodeId>(n)};
  device::launch(ctx, n, [&](std::size_t v) {
    const std::size_t lo = static_cast<std::size_t>(pre[v]) - 1;
    const std::size_t hi = lo + static_cast<std::size_t>(size[v]) - 1;
    result.low[v] = low_table.query(lo, hi);
    result.high[v] = high_table.query(lo, hi);
  });
  return result;
}

}  // namespace emc::bridges::tv_detail
