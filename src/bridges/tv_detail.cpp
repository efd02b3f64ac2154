#include "bridges/tv_detail.hpp"

#include <algorithm>

#include "device/arena.hpp"
#include "device/primitives.hpp"
#include "rmq/sparse_table.hpp"

namespace emc::bridges::tv_detail {

namespace {

/// A (min, max) pair of preorder numbers; the fold is componentwise.
struct Span {
  NodeId lo;
  NodeId hi;
};

struct Fold {
  Span operator()(Span a, Span b) const {
    return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
  }
};
constexpr Fold fold{};

constexpr std::size_t kBlockLog2 = 6;
constexpr std::size_t kBlock = std::size_t{1} << kBlockLog2;

}  // namespace

LowHigh subtree_low_high(const device::Context& ctx, graph::EdgeSpan graph,
                         const std::vector<std::uint8_t>& is_tree_edge,
                         const core::TreeStats& stats) {
  const std::vector<NodeId>& pre = stats.preorder;
  const std::vector<NodeId>& size = stats.subtree_size;
  const std::size_t n = pre.size();
  const std::size_t m = graph.edges.size();
  LowHigh result{std::vector<NodeId>(n), std::vector<NodeId>(n)};
  device::Arena::Scope scope(ctx.arena());

  // Per preorder position p (the node with preorder p + 1): the min and max
  // preorder among the node itself and its non-tree neighbours. Each
  // non-tree edge folds each endpoint's preorder into the other's slot.
  Span* own = scope.get<Span>(n);
  device::launch(ctx, n, [&](std::size_t p) {
    own[p] = {static_cast<NodeId>(p + 1), static_cast<NodeId>(p + 1)};
  });
  device::launch(ctx, m, [&](std::size_t e) {
    if (is_tree_edge[e]) return;
    const graph::Edge edge = graph.edges[e];
    const NodeId pu = pre[edge.u];
    const NodeId pv = pre[edge.v];
    Span& su = own[pu - 1];
    Span& sv = own[pv - 1];
    device::atomic_min(&su.lo, pv);
    device::atomic_max(&su.hi, pv);
    device::atomic_min(&sv.lo, pu);
    device::atomic_max(&sv.hi, pu);
  });

  // A subtree is the preorder interval [pre(v), pre(v) + size(v)), so
  // low/high are range folds over `own`. Blocked RMQ: 64-wide blocks with
  // in-block prefix and suffix folds, and a sparse table over the block
  // folds alone (n/64 entries per level, not n).
  const std::size_t blocks = (n + kBlock - 1) >> kBlockLog2;
  Span* prefix = scope.get<Span>(n);
  Span* suffix = scope.get<Span>(n);
  Span* block_fold = scope.get<Span>(blocks);
  device::launch(ctx, blocks, [&](std::size_t b) {
    const std::size_t begin = b << kBlockLog2;
    const std::size_t end = std::min(n, begin + kBlock);
    Span acc = own[begin];
    for (std::size_t p = begin; p < end; ++p) {
      prefix[p] = acc = fold(acc, own[p]);
    }
    block_fold[b] = acc;
    acc = own[end - 1];
    for (std::size_t p = end; p-- > begin;) {
      suffix[p] = acc = fold(acc, own[p]);
    }
  });
  const rmq::SparseTable<Span, Fold> table(ctx, block_fold, blocks);

  device::launch(ctx, n, [&](std::size_t v) {
    const std::size_t lo = static_cast<std::size_t>(pre[v]) - 1;
    const std::size_t hi = lo + static_cast<std::size_t>(size[v]) - 1;
    const std::size_t bl = lo >> kBlockLog2;
    const std::size_t bh = hi >> kBlockLog2;
    Span r = own[lo];
    if (bl == bh) {  // a small subtree inside one block: fold it directly
      for (std::size_t p = lo + 1; p <= hi; ++p) r = fold(r, own[p]);
    } else {
      r = fold(suffix[lo], prefix[hi]);
      if (bh > bl + 1) r = fold(r, table.query(bl + 1, bh - 1));
    }
    result.low[v] = r.lo;
    result.high[v] = r.hi;
  });
  return result;
}

}  // namespace emc::bridges::tv_detail
