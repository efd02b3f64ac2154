#include "bridges/tv_detail.hpp"

#include "device/arena.hpp"
#include "device/primitives.hpp"
#include "device/sort.hpp"

namespace emc::bridges::tv_detail {

void aggregate_non_tree_min_max(const device::Context& ctx,
                                graph::EdgeSpan graph,
                                const std::vector<std::uint8_t>& is_tree_edge,
                                const std::vector<NodeId>& pre,
                                std::vector<NodeId>& node_min,
                                std::vector<NodeId>& node_max) {
  const std::size_t m = graph.edges.size();
  device::Arena::Scope scope(ctx.arena());

  // Compact the non-tree edges (their count is m - n + 1 but we compute it
  // with a scan to stay a bulk pipeline), then emit both directions.
  EdgeId* non_tree = scope.get<EdgeId>(m);
  const std::size_t k = device::copy_if_index(
      ctx, m, [&](std::size_t e) { return !is_tree_edge[e]; },
      non_tree);
  if (k == 0) return;

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

  // One virtual thread per run of equal keys (runs are contiguous after the
  // sort; this is what mgpu::segreduce does with its sorted-segment input).
  device::launch(ctx, 2 * k, [&](std::size_t i) {
    if (i != 0 && keys[i] == keys[i - 1]) return;  // not a run head
    const std::uint32_t node = keys[i];
    NodeId lo = values[i];
    NodeId hi = values[i];
    for (std::size_t j = i + 1; j < 2 * k && keys[j] == node; ++j) {
      lo = std::min(lo, values[j]);
      hi = std::max(hi, values[j]);
    }
    if (lo < node_min[node]) node_min[node] = lo;
    if (hi > node_max[node]) node_max[node] = hi;
  });
}

}  // namespace emc::bridges::tv_detail
