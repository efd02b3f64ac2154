#include "dynamic/oracle.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "core/tree_ops.hpp"
#include "device/primitives.hpp"
#include "device/union_find.hpp"

namespace emc::dynamic {

namespace {

/// Numbers the roots of the flattened k-entry union-find forest `root` in
/// order (id[r] = root r's index among them) and returns their count.
std::size_t number_roots(const device::Context& ctx, std::size_t k,
                         const NodeId* root, NodeId* id) {
  device::Arena::Scope scope(ctx.arena());
  NodeId* roots = scope.get<NodeId>(k);
  const std::size_t count = device::copy_if_index(
      ctx, k, [&](std::size_t r) { return root[r] == static_cast<NodeId>(r); },
      roots);
  device::launch(ctx, count,
                 [&](std::size_t b) { id[roots[b]] = static_cast<NodeId>(b); });
  return count;
}

}  // namespace

/// The index from one host pass over the forest LCA's tree in preorder. A
/// node heads its block when it is a component root or its parent edge is a
/// bridge. bd(v) is bd(parent) plus one at a non-root head, and v's label is
/// the last head at preorder <= pre(v) with the same bd: its own when it
/// heads, else its parent's, since a block's tree part is a connected
/// subtree under its head. Blocks are numbered in their heads' preorder.
void ConnectivityOracle::index_forest(const device::Context& ctx,
                                      graph::EdgeSpan g,
                                      const bridges::SpanningForest& forest,
                                      const bridges::BridgeMask& mask) {
  const std::vector<NodeId>& parent = lca_->tree().parent;
  const std::vector<NodeId>& pre = lca_->tree().preorder;
  const auto n = static_cast<std::size_t>(g.num_nodes);
  auto up = std::make_shared_for_overwrite<EdgeId[]>(n);
  device::fill(ctx, n, up.get(), kNoEdge);
  device::launch(ctx, forest.tree_edges.size(), [&](std::size_t i) {
    const EdgeId e = forest.tree_edges[i];
    const graph::Edge edge = g.edges[e];
    up[parent[edge.u] == edge.v ? edge.u : edge.v] = e;
  });
  device::Arena::Scope scope(ctx.arena());
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
    if (above == root || mask[up[v]] != 0) {
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
  up_ = std::move(up);
}

ConnectivityOracle::ConnectivityOracle(
    const device::Context& ctx, graph::EdgeSpan g,
    const bridges::SpanningForest& forest,
    std::shared_ptr<const lca::InlabelLca> lca,
    const bridges::BridgeMask& mask)
    : num_bridges_(bridges::count_bridges(mask)), lca_(std::move(lca)) {
  assert(mask.size() == g.num_edges());
  index_forest(ctx, g, forest, mask);
}

ConnectivityOracle ConnectivityOracle::insert(
    const device::Context& ctx, graph::EdgeSpan g,
    const bridges::SpanningForest& forest,
    std::span<const graph::Edge> inserted, std::span<const std::size_t> intra,
    std::shared_ptr<const lca::InlabelLca> lca,
    bridges::BridgeMask& mask) const {
  const std::size_t n = labels_->size();
  const std::vector<NodeId>& label = *labels_;
  const std::vector<NodeId>& parent = lca_->tree().parent;
  const std::vector<NodeId>& pre = lca_->tree().preorder;
  const std::vector<NodeId>& size = lca_->tree().subtree_size;
  // Preorder is 1-based over the n + 1 forest LCA nodes (the virtual root
  // included); interval ends reach n + 2.
  const std::size_t positions = n + 3;
  device::Arena::Scope scope(ctx.arena());
  // The children of the demoted bridges.
  NodeId* demoted = scope.get<NodeId>(num_bridges_);
  std::size_t num_demoted = 0;
  if (!intra.empty()) {
    // Every intra pair lies in one component: no meet is the virtual root.
    const core::PreorderWeights weight(
        ctx, scope, positions, intra.size(), num_bridges_,
        [&](std::size_t i, auto&& add) {
          const graph::Edge e = inserted[intra[i]];
          add(pre[e.u], 1);
          add(pre[e.v], 1);
          add(pre[lca_->query(e.u, e.v)], -2);
        });
    // Inserts never promote an edge to a bridge, and every old bridge is a
    // tree edge: test each node's parent edge that is one.
    std::atomic<std::size_t> found{0};
    device::launch(ctx, n, [&](std::size_t c) {
      if (up_[c] == kNoEdge || mask[up_[c]] == 0) return;
      if (weight.below(pre[c] + size[c]) > weight.below(pre[c])) {
        demoted[found.fetch_add(1, std::memory_order_relaxed)] =
            static_cast<NodeId>(c);
      }
    });
    num_demoted = found.load(std::memory_order_relaxed);
  }

  ConnectivityOracle next = *this;
  // Every appended edge that links trees is a new bridge.
  next.num_bridges_ = num_bridges_ - num_demoted + inserted.size() -
                      intra.size();
  if (lca != lca_) {
    // An appended edge linked trees: the linked forest has new parents and
    // a new preorder, so the index is one pass over it under the new mask.
    for (std::size_t i = 0; i < num_demoted; ++i) mask[up_[demoted[i]]] = 0;
    next.lca_ = std::move(lca);
    next.index_forest(ctx, g, forest, mask);
    return next;
  }
  if (num_demoted > 0) {
    // Each demoted bridge joins its two blocks; the bridges form a forest
    // over the blocks, so every one merges two distinct sets.
    NodeId* uf = scope.get<NodeId>(num_blocks_);
    device::uf_init(ctx, uf, num_blocks_);
    std::vector<NodeId> touched;  // the merged blocks, with repeats
    for (std::size_t i = 0; i < num_demoted; ++i) {
      const NodeId c = demoted[i];
      mask[up_[c]] = 0;
      device::uf_unite(uf, label[c], label[parent[c]]);
      touched.insert(touched.end(), {label[c], label[parent[c]]});
    }
    device::uf_flatten(ctx, uf, num_blocks_);
    NodeId* id = scope.get<NodeId>(num_blocks_);
    const std::size_t count = number_roots(ctx, num_blocks_, uf, id);
    auto labels = std::make_shared<std::vector<NodeId>>(n);
    device::transform(ctx, n, labels->data(),
                      [&](std::size_t v) { return id[uf[label[v]]]; });
    // A merged block keeps its root's member and gathers its old blocks'
    // sizes. Its bd drops by the demoted intervals holding its member — the
    // one count its old blocks agree on, since the bridges between them are
    // the demoted ones.
    const core::PreorderWeights above(
        ctx, scope, positions, num_demoted, count,
        [&](std::size_t i, auto&& add) {
          add(pre[demoted[i]], 1);
          add(pre[demoted[i]] + size[demoted[i]], -1);
        });
    auto sizes = std::make_shared<std::vector<NodeId>>(count);
    auto members = std::make_shared_for_overwrite<NodeId[]>(count);
    auto depth = std::make_shared_for_overwrite<NodeId[]>(count);
    device::launch(ctx, num_blocks_, [&](std::size_t r) {
      if (uf[r] != static_cast<NodeId>(r)) return;
      const NodeId b = id[r];
      (*sizes)[b] = (*sizes_)[r];
      members[b] = members_[r];
      depth[b] = depth_[r] - above.below(pre[members_[r]] + 1);
    });
    for (const NodeId b : touched) {  // a repeat finds b reset to a root
      if (uf[b] != b) (*sizes)[id[std::exchange(uf[b], b)]] += (*sizes_)[b];
    }
    next.num_blocks_ = count;
    next.labels_ = std::move(labels);
    next.sizes_ = std::move(sizes);
    next.members_ = std::move(members);
    next.depth_ = std::move(depth);
  }
  return next;
}

}  // namespace emc::dynamic
