#include "dynamic/oracle.hpp"

#include <algorithm>
#include <utility>

#include "core/block_union.hpp"
#include "core/tree_ops.hpp"
#include "device/primitives.hpp"

namespace emc::dynamic {

/// The index from one host pass over the forest LCA's tree in preorder. A
/// node heads its block when it is a component root or its parent edge is a
/// bridge (is_bridge(edge)). bd(v) is bd(parent) plus one at a non-root head,
/// and v's label is the last head at preorder <= pre(v) with the same bd: its
/// own when it heads, else its parent's, since a block's tree part is a
/// connected subtree under its head. Blocks are numbered in their heads'
/// preorder.
template <typename IsBridge>
void ConnectivityOracle::index_forest(const device::Context& ctx,
                                      graph::EdgeSpan g,
                                      const bridges::SpanningForest& forest,
                                      const IsBridge& is_bridge) {
  const std::vector<NodeId>& parent = lca_->tree().parent;
  const std::vector<NodeId>& pre = lca_->tree().preorder;
  const auto n = static_cast<std::size_t>(g.num_nodes);
  device::Arena::Scope scope(ctx.arena());
  EdgeId* up = scope.get<EdgeId>(n);  // per node: its parent edge
  device::launch(ctx, forest.tree_edges.size(), [&](std::size_t i) {
    const EdgeId e = forest.tree_edges[i];
    const graph::Edge edge = g.edges[e];
    up[parent[edge.u] == edge.v ? edge.u : edge.v] = e;
  });
  NodeId* order = scope.get<NodeId>(n + 1);  // the node at each preorder
  device::launch(ctx, n + 1, [&](std::size_t v) {
    order[pre[v] - 1] = static_cast<NodeId>(v);
  });
  const auto root = static_cast<NodeId>(n);  // the virtual root, preorder 1
  auto labels = std::make_shared<std::vector<NodeId>>(n);
  auto sizes = std::make_shared<std::vector<NodeId>>();
  std::vector<NodeId>& label = *labels;
  std::vector<NodeId> members;
  std::vector<NodeId> depth;
  for (std::size_t p = 1; p <= n; ++p) {
    const NodeId v = order[p];
    const NodeId above = parent[v];
    if (above == root || is_bridge(up[v])) {
      label[v] = static_cast<NodeId>(members.size());
      members.push_back(v);
      depth.push_back(above == root ? 0 : depth[label[above]] + 1);
      sizes->push_back(1);
    } else {
      label[v] = label[above];
      ++(*sizes)[label[v]];
    }
  }
  num_blocks_ = members.size();
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
    : num_bridges_(bridges::count_bridges(mask)), lca_(std::move(lca)) {
  assert(mask.size() == g.num_edges());
  index_forest(ctx, g, forest, [&](EdgeId e) { return mask[e] != 0; });
}

ConnectivityOracle ConnectivityOracle::insert(
    const device::Context& ctx, graph::EdgeSpan g,
    const bridges::SpanningForest& forest,
    std::span<const graph::Edge> inserted, std::span<const std::size_t> intra,
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

  // Each group's compact id. A fresh build numbers blocks in their heads'
  // preorder, and a group keeps its topmost block's head, so the roots keep
  // their order and the hooked blocks drop out of it: root r's id is r less
  // the hooked blocks below it, and a hooked block takes its root's id.
  device::Arena::Scope scope(ctx.arena());
  const core::PreorderWeights dropped(
      ctx, scope, num_blocks_ + 1, num_demoted, 2 * num_blocks_,
      [&](std::size_t i, auto&& add) { add(hooked[i], 1); });
  const auto is_root = [&](NodeId b) {
    return dropped.below(b + 1) == dropped.below(b);
  };

  if (lca != lca_) {
    // An appended edge linked trees: the linked forest has new parents and
    // a new preorder, so the index is one pass over it. An edge is a bridge
    // iff its ends lie in different groups (a cross edge's ends lie in
    // different trees).
    const auto group = [&](NodeId v) {
      const NodeId b = label[v];
      return is_root(b) ? b : blocks.find(b);
    };
    next.lca_ = std::move(lca);
    next.index_forest(ctx, g, forest, [&](EdgeId e) {
      return group(g.edges[e].u) != group(g.edges[e].v);
    });
    return next;
  }
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
