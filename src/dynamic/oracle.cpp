#include "dynamic/oracle.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "bridges/tv_detail.hpp"
#include "core/block_union.hpp"
#include "core/tree_ops.hpp"
#include "device/primitives.hpp"

namespace emc::dynamic {

namespace {

/// The forest LCA's tree in preorder space: per position p, the node with
/// preorder p + 1, its parent's position (0, the virtual root's, above a
/// component root) and its subtree size.
struct Preorder {
  const NodeId* node;
  const NodeId* above;
  const NodeId* size;
};

}  // namespace

/// One launch lays the tree out by position, heads() flags the positions
/// whose parent edge is a bridge, and one host pass over the positions
/// numbers the blocks: a component root or a flagged position heads its
/// block, and every other position joins its parent's, which precedes it.
/// bd is the parent block's plus one at a non-root head. Blocks are numbered
/// in their heads' preorder, and each bridge is the parent edge of exactly
/// one non-root head.
template <typename Heads>
void ConnectivityOracle::index_forest(const device::Context& ctx,
                                      const Heads& heads) {
  const core::TreeStats& tree = lca_->tree();
  const std::vector<NodeId>& pre = tree.preorder;
  const std::size_t n = pre.size() - 1;  // the virtual root is position 0
  device::Arena::Scope scope(ctx.arena());
  NodeId* node = scope.get<NodeId>(n + 1);
  NodeId* above = scope.get<NodeId>(n + 1);
  NodeId* size = scope.get<NodeId>(n + 1);
  device::launch(ctx, n + 1, [&](std::size_t v) {
    const NodeId p = pre[v] - 1;
    const NodeId parent = tree.parent[v];
    node[p] = static_cast<NodeId>(v);
    above[p] = parent == kNoNode ? 0 : pre[parent] - 1;
    size[p] = tree.subtree_size[v];
  });
  std::uint8_t* head = scope.get<std::uint8_t>(n + 1);
  heads(Preorder{node, above, size}, head);

  NodeId* block = scope.get<NodeId>(n + 1);  // per position
  auto sizes = std::make_shared<std::vector<NodeId>>();
  std::vector<NodeId> members;
  std::vector<NodeId> depth;
  std::size_t roots = 0;
  for (std::size_t p = 1; p <= n; ++p) {
    const NodeId a = above[p];
    if (a == 0 || head[p] != 0) {
      block[p] = static_cast<NodeId>(members.size());
      members.push_back(node[p]);
      depth.push_back(a == 0 ? 0 : depth[block[a]] + 1);
      sizes->push_back(1);
      roots += a == 0 ? 1 : 0;
    } else {
      block[p] = block[a];
      ++(*sizes)[block[p]];
    }
  }
  auto labels = std::make_shared<std::vector<NodeId>>(n);
  device::transform(ctx, n, labels->data(),
                    [&](std::size_t v) { return block[pre[v] - 1]; });
  num_blocks_ = members.size();
  num_bridges_ = num_blocks_ - roots;
  const auto shared = [](const std::vector<NodeId>& from) {
    auto to = std::make_shared_for_overwrite<NodeId[]>(from.size());
    std::copy(from.begin(), from.end(), to.get());
    return std::shared_ptr<const NodeId[]>(std::move(to));
  };
  labels_ = std::move(labels);
  sizes_ = std::move(sizes);
  members_ = shared(members);
  depth_ = shared(depth);
}

ConnectivityOracle::ConnectivityOracle(
    const device::Context& ctx, graph::EdgeSpan g,
    const bridges::SpanningForest& forest,
    std::shared_ptr<const lca::InlabelLca> lca,
    const bridges::BridgeMask& mask)
    : lca_(std::move(lca)) {
  assert(mask.size() == g.num_edges());
  const core::TreeStats& tree = lca_->tree();
  index_forest(ctx, [&](const Preorder&, std::uint8_t* head) {
    // Every position below a component root is a tree edge's child end.
    device::launch(ctx, forest.tree_edges.size(), [&](std::size_t i) {
      const EdgeId e = forest.tree_edges[i];
      const graph::Edge edge = g.edges[e];
      const NodeId child = tree.parent[edge.u] == edge.v ? edge.u : edge.v;
      head[tree.preorder[child] - 1] = mask[e];
    });
  });
}

ConnectivityOracle::ConnectivityOracle(
    const device::Context& ctx, graph::EdgeSpan g,
    const bridges::SpanningForest& forest,
    std::shared_ptr<const lca::InlabelLca> lca)
    : lca_(std::move(lca)) {
  const std::vector<NodeId>& pre = lca_->tree().preorder;
  const std::size_t m = g.num_edges();
  index_forest(ctx, [&](const Preorder& at, std::uint8_t* head) {
    device::Arena::Scope scope(ctx.arena());
    std::uint8_t* is_tree_edge = scope.get<std::uint8_t>(m);
    device::fill(ctx, m, is_tree_edge, std::uint8_t{0});
    device::launch(ctx, forest.tree_edges.size(), [&](std::size_t i) {
      is_tree_edge[forest.tree_edges[i]] = 1;
    });
    // Tarjan's criterion at preorder p + 1: the parent edge is a bridge iff
    // no non-tree edge leaves the subtree. It holds at every component root
    // too, whose flag the pass ignores.
    bridges::tv_detail::subtree_low_high(
        ctx, g, {is_tree_edge, m}, pre, at.size,
        [&](std::size_t p, NodeId low, NodeId high) {
          const auto first = static_cast<NodeId>(p + 1);
          head[p] = low >= first && high < first + at.size[p];
        });
  });
}

ConnectivityOracle ConnectivityOracle::insert(
    const device::Context& ctx, std::span<const graph::Edge> inserted,
    std::span<const std::size_t> intra,
    std::shared_ptr<const lca::InlabelLca> lca) const {
  const std::vector<NodeId>& label = *labels_;
  const std::vector<NodeId>& parent = lca_->tree().parent;
  const std::vector<NodeId>& level = lca_->tree().level;
  // Inserts never promote an edge to a bridge, and an intra edge demotes
  // exactly the bridges on its tree path: the walk's hooks. A root's head is
  // never a component root while the walk steps it, since the other side
  // lies below it in the same tree.
  core::BlockUnion blocks;
  for (const std::size_t i : intra) {
    const graph::Edge e = inserted[i];
    blocks.join(
        label[e.u], label[e.v], [&](NodeId b) { return level[members_[b]]; },
        [&](NodeId b) { return label[parent[members_[b]]]; });
  }
  const std::vector<NodeId>& hooked = blocks.hooked();
  const std::size_t num_demoted = hooked.size();

  ConnectivityOracle next = *this;
  // Every appended edge that links trees is a new bridge.
  next.num_bridges_ = num_bridges_ - num_demoted + inserted.size() -
                      intra.size();
  if (num_demoted == 0 && lca == lca_) return next;

  device::Arena::Scope scope(ctx.arena());
  if (lca != lca_) {
    // An appended edge linked trees: the linked forest has new parents and
    // a new preorder, so the index is one pass over it. A parent edge is a
    // bridge iff its ends lie in different groups (a cross edge's ends lie
    // in different trees).
    NodeId* group = scope.get<NodeId>(num_blocks_);
    device::iota(ctx, num_blocks_, group);
    for (const NodeId b : hooked) group[b] = blocks.find(b);
    next.lca_ = std::move(lca);
    next.index_forest(ctx, [&](const Preorder& at, std::uint8_t* head) {
      const auto group_at = [&](NodeId p) { return group[label[at.node[p]]]; };
      device::launch(ctx, label.size() + 1, [&](std::size_t p) {
        if (at.above[p] == 0) return;  // the virtual root or a component root
        head[p] = group_at(static_cast<NodeId>(p)) != group_at(at.above[p]);
      });
    });
    return next;
  }
  // Each group's compact id. A fresh build numbers blocks in their heads'
  // preorder, and a group keeps its topmost block's head, so the roots keep
  // their order and the hooked blocks drop out of it: root r's id is r less
  // the hooked blocks below it, and a hooked block takes its root's id.
  const core::PreorderWeights dropped(
      ctx, scope, num_blocks_ + 1, num_demoted, 2 * num_blocks_,
      [&](std::size_t i, auto&& add) { add(hooked[i], 1); });
  const auto is_root = [&](NodeId b) {
    return dropped.below(b + 1) == dropped.below(b);
  };
  const std::vector<NodeId>& pre = lca_->tree().preorder;
  const std::vector<NodeId>& size = lca_->tree().subtree_size;
  const std::size_t n = label.size();
  const std::size_t count = num_blocks_ - num_demoted;
  // A group keeps its root's member and gathers its blocks' sizes. Its bd
  // drops by the demoted intervals holding its member: the one count its
  // blocks agree on, since the bridges between them are the demoted ones.
  // Preorder is 1-based over the n + 1 forest LCA nodes (the virtual root
  // included); interval ends reach n + 2.
  const core::PreorderWeights above(
      ctx, scope, n + 3, num_demoted, count, [&](std::size_t i, auto&& add) {
        const NodeId c = members_[hooked[i]];
        add(pre[c], 1);
        add(pre[c] + size[c], -1);
      });
  NodeId* id = scope.get<NodeId>(num_blocks_);
  auto sizes = std::make_shared<std::vector<NodeId>>(count);
  auto members = std::make_shared_for_overwrite<NodeId[]>(count);
  auto depth = std::make_shared_for_overwrite<NodeId[]>(count);
  device::launch(ctx, num_blocks_, [&](std::size_t i) {
    const auto r = static_cast<NodeId>(i);
    const NodeId b = r - dropped.below(r);
    id[r] = b;
    if (!is_root(r)) return;
    (*sizes)[b] = (*sizes_)[r];
    members[b] = members_[r];
    depth[b] = depth_[r] - above.below(pre[members_[r]] + 1);
  });
  for (const NodeId b : hooked) {
    id[b] = id[blocks.find(b)];
    (*sizes)[id[b]] += (*sizes_)[b];
  }
  auto labels = std::make_shared<std::vector<NodeId>>(n);
  device::transform(ctx, n, labels->data(),
                    [&](std::size_t v) { return id[label[v]]; });
  next.num_blocks_ = count;
  next.labels_ = std::move(labels);
  next.sizes_ = std::move(sizes);
  next.members_ = std::move(members);
  next.depth_ = std::move(depth);
  return next;
}

}  // namespace emc::dynamic
