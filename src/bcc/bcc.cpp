#include "bcc/bcc.hpp"

#include <algorithm>
#include <atomic>
#include <limits>

#include "bridges/tv_detail.hpp"
#include "device/primitives.hpp"

namespace emc::bcc {

BccIndex BccIndex::build(const device::Context& ctx,
                         graph::EdgeSpan graph,
                         const bridges::SpanningForest& forest,
                         util::PhaseTimer* phases) {
  core::TreeStats tree;
  {
    util::ScopedPhase phase(phases, "euler_tour");
    tree = bridges::root_forest(ctx, graph, forest);
  }
  return build(ctx, graph, forest, tree, phases);
}

BccIndex BccIndex::build(const device::Context& ctx,
                         graph::EdgeSpan graph,
                         const bridges::SpanningForest& forest,
                         const core::TreeStats& tree,
                         util::PhaseTimer* phases) {
  const auto n = static_cast<std::size_t>(graph.num_nodes);
  const std::size_t m = graph.edges.size();
  BccIndex result;
  result.vertex_block.assign(n, kNoNode);
  result.is_articulation.assign(n, 0);
  if (m == 0) return result;

  // --- The forest rooted at virtual node n (bridges::root_forest): n + 1
  // nodes, exactly n tree edges, parent[rep] == vroot.
  util::ScopedPhase phase(phases, "blocks");
  const NodeId vroot = graph.num_nodes;
  std::vector<std::uint8_t> is_tree_edge(m, 0);
  device::launch(ctx, forest.tree_edges.size(), [&](std::size_t k) {
    is_tree_edge[forest.tree_edges[k]] = 1;
  });
  const std::vector<NodeId>& pre = tree.preorder;      // over n + 1 nodes
  const std::vector<NodeId>& size = tree.subtree_size;
  const std::vector<NodeId>& parent = tree.parent;

  // --- Subtree low/high, the routine TV's bridge criterion reads. Preorders
  // are global over the rooted forest, but each component's form a
  // contiguous interval, so every comparison below — always within one
  // component — is equivalent to the per-component computation.
  const bridges::tv_detail::LowHigh lh =
      bridges::tv_detail::subtree_low_high(ctx, graph, is_tree_edge, tree);
  const std::vector<NodeId>& low = lh.low;
  const std::vector<NodeId>& high = lh.high;
  std::vector<NodeId> node_at_pre(n + 1);
  device::launch(ctx, n + 1, [&](std::size_t v) {
    node_at_pre[pre[v] - 1] = static_cast<NodeId>(v);
  });

  // --- Blocks = the CC of the snapshot's edges under the rule (a)/(b)
  // mask (bcc.hpp): an unrelated non-tree edge, or a tree edge {w, p} whose
  // parent p is no representative and whose subtree escapes past p.
  // Self-loops belong to no block.
  std::vector<std::uint8_t> keep(m);
  device::transform(ctx, m, keep.data(), [&](std::size_t e) -> std::uint8_t {
    auto [u, v] = graph.edges[e];
    if (u == v) return 0;
    if (pre[v] < pre[u]) std::swap(u, v);  // a tree edge's v is the child
    if (is_tree_edge[e]) {
      if (parent[u] == vroot) return 0;
      return (low[v] < pre[u] || high[v] >= pre[u] + size[u]) ? 1 : 0;
    }
    return pre[u] + size[u] <= pre[v] ? 1 : 0;
  });
  const bridges::SpanningForest blocks =
      bridges::cc_spanning_forest(ctx, graph, keep);

  const auto real_parent = [&](std::size_t w) {
    return parent[w] != kNoNode && parent[w] != vroot;
  };

  // --- Compact the raw labels (the blocks' minimum node ids) to dense
  // ids. Every block contains at least one real tree edge, so flagging the
  // labels of real-parent nodes covers exactly the blocks.
  std::vector<NodeId> compact(n, kNoNode);
  {
    std::vector<NodeId> flag(n, 0), pos(n);
    device::launch(ctx, n, [&](std::size_t w) {
      if (real_parent(w)) {
        std::atomic_ref<NodeId>(flag[blocks.component[w]])
            .store(1, std::memory_order_relaxed);
      }
    });
    const NodeId total =
        device::exclusive_scan(ctx, flag.data(), n, pos.data());
    result.num_blocks = static_cast<std::size_t>(total);
    device::launch(ctx, n, [&](std::size_t raw) {
      if (flag[raw]) compact[raw] = pos[raw];
    });
  }

  // --- Vertex labels: the block of each node's real parent edge.
  device::launch(ctx, n, [&](std::size_t w) {
    if (real_parent(w)) {
      result.vertex_block[w] = compact[blocks.component[w]];
    }
  });

  // --- head[b]: block b ∩ T is a connected subtree, so the minimum
  // preorder among members' PARENTS is the subtree's root — the one member
  // whose own parent edge lies outside b.
  result.head.assign(result.num_blocks, kNoNode);
  std::vector<NodeId> head_count(n, 0);
  if (result.num_blocks != 0) {
    std::vector<NodeId> head_pre(result.num_blocks,
                                 std::numeric_limits<NodeId>::max());
    device::launch(ctx, n, [&](std::size_t w) {
      const NodeId b = result.vertex_block[w];
      if (b != kNoNode) device::atomic_min(&head_pre[b], pre[parent[w]]);
    });
    device::launch(ctx, result.num_blocks, [&](std::size_t b) {
      const NodeId h = node_at_pre[head_pre[b] - 1];
      result.head[b] = h;
      std::atomic_ref<NodeId>(head_count[h])
          .fetch_add(1, std::memory_order_relaxed);
    });
  }

  // --- Articulations: v belongs to >= 2 blocks. v's blocks are
  // {vertex_block[v]} ∪ {b : head[b] == v}, disjoint by construction (the
  // head's parent edge is outside its block).
  device::transform(ctx, n, result.is_articulation.data(),
                    [&](std::size_t v) -> std::uint8_t {
                      const NodeId own =
                          result.vertex_block[v] != kNoNode ? 1 : 0;
                      return own + head_count[v] >= 2 ? 1 : 0;
                    });
  result.num_articulations = device::reduce(
      ctx, n, std::size_t{0},
      [&](std::size_t v) -> std::size_t { return result.is_articulation[v]; },
      [](std::size_t a, std::size_t b) { return a + b; });
  return result;
}

}  // namespace emc::bcc
