#include "lca/inlabel.hpp"

#include "core/tree_ops.hpp"
#include "device/primitives.hpp"
#include "util/bits.hpp"

namespace emc::lca {

namespace {

/// inlabel of a node with preorder interval [l, r] (1-based, inclusive):
/// the unique value in [l, r] with the most trailing zeros.
std::uint32_t inlabel_of(NodeId l, NodeId r) {
  if (l == r) return static_cast<std::uint32_t>(l);
  const auto diff = static_cast<std::uint32_t>(l - 1) ^
                    static_cast<std::uint32_t>(r);
  const int h = util::msb_index(diff);
  return static_cast<std::uint32_t>(r) & ~((1u << h) - 1u);
}

}  // namespace

InlabelLca::InlabelLca(const device::Context& ctx, core::TreeStats tree,
                       NodeId root, util::PhaseTimer* phases)
    : root_(root), tree_(std::move(tree)) {
  const std::vector<NodeId>& parent = tree_.parent;
  const std::vector<NodeId>& preorder = tree_.preorder;
  const std::vector<NodeId>& subtree_size = tree_.subtree_size;
  const auto n = static_cast<std::size_t>(parent.size());
  util::ScopedPhase phase(phases, "inlabel_numbers");

  inlabel_.resize(n);
  device::transform(ctx, n, inlabel_.data(), [&](std::size_t v) {
    return inlabel_of(preorder[v], preorder[v] + subtree_size[v] - 1);
  });

  // Path heads: the root, and every node whose inlabel differs from its
  // parent's. head_[inlabel] = that node.
  head_.assign(n + 1, kNoNode);
  device::launch(ctx, n, [&](std::size_t v) {
    const NodeId p = parent[v];
    if (p == kNoNode || inlabel_[v] != inlabel_[p]) {
      head_[inlabel_[v]] = static_cast<NodeId>(v);
    }
  });

  // Ascendant bitmasks: asc(v) has one bit per inlabel path segment on v's
  // root path, the height (lowest set bit) of that segment's inlabel. Those
  // inlabels lie on one root path of B (the inorder property), so their
  // heights are distinct and the OR is a sum: each head h weighs
  // 1 << height over its subtree interval, and asc(v) is the weight of the
  // intervals holding pre(v) — one difference scan, whatever the tree.
  device::Arena::Scope scope(ctx.arena());
  const core::PreorderWeights asc(
      ctx, scope, n + 2, n, n, [&](std::size_t v, auto&& add) {
        const NodeId p = parent[v];
        if (p != kNoNode && inlabel_[v] == inlabel_[p]) return;
        const NodeId bit = NodeId{1} << util::lsb_index(inlabel_[v]);
        add(preorder[v], bit);
        add(preorder[v] + subtree_size[v], -bit);
      });
  ascendant_.resize(n);
  device::transform(ctx, n, ascendant_.data(), [&](std::size_t v) {
    return static_cast<std::uint32_t>(asc.below(preorder[v] + 1));
  });
}

InlabelLca InlabelLca::build_parallel(const device::Context& ctx,
                                      const core::ParentTree& tree,
                                      util::PhaseTimer* phases) {
  // Euler tour preprocessing (§2): preorder numbers, subtree sizes, levels.
  const core::EulerTour tour =
      core::build_euler_tour(ctx, core::tree_edges(tree), tree.root,
                             core::RankAlgo::kWeiJaja, phases);
  return InlabelLca(ctx, core::compute_tree_stats(ctx, tour, phases),
                    tree.root, phases);
}

InlabelLca InlabelLca::build_sequential(const core::ParentTree& tree,
                                        util::PhaseTimer* phases) {
  const auto n = static_cast<std::size_t>(tree.num_nodes());

  // Iterative DFS over child lists built by counting sort.
  std::vector<NodeId> preorder(n), subtree_size(n, 1), level(n, 0);
  {
    util::ScopedPhase phase(phases, "dfs");
    std::vector<EdgeId> child_offset(n + 1, 0);
    for (std::size_t v = 0; v < n; ++v) {
      if (tree.parent[v] != kNoNode) ++child_offset[tree.parent[v] + 1];
    }
    for (std::size_t v = 0; v < n; ++v) child_offset[v + 1] += child_offset[v];
    std::vector<NodeId> children(n > 0 ? n - 1 : 0);
    {
      std::vector<EdgeId> cursor(child_offset.begin(), child_offset.end() - 1);
      for (std::size_t v = 0; v < n; ++v) {
        if (tree.parent[v] != kNoNode) {
          children[cursor[tree.parent[v]]++] = static_cast<NodeId>(v);
        }
      }
    }
    NodeId next_pre = 1;
    // Two-phase stack: negative marker = "children done, aggregate size".
    std::vector<NodeId> stack{tree.root};
    std::vector<EdgeId> child_cursor(child_offset.begin(),
                                     child_offset.end() - 1);
    preorder[tree.root] = next_pre++;
    while (!stack.empty()) {
      const NodeId v = stack.back();
      if (child_cursor[v] < child_offset[v + 1]) {
        const NodeId c = children[child_cursor[v]++];
        preorder[c] = next_pre++;
        level[c] = level[v] + 1;
        stack.push_back(c);
      } else {
        stack.pop_back();
        if (!stack.empty()) subtree_size[stack.back()] += subtree_size[v];
      }
    }
  }
  return InlabelLca(device::Context::sequential(),
                    core::TreeStats{std::move(preorder),
                                    std::move(subtree_size), std::move(level),
                                    tree.parent},
                    tree.root, phases);
}

NodeId InlabelLca::query(NodeId x, NodeId y) const {
  const std::uint32_t ix = inlabel_[x];
  const std::uint32_t iy = inlabel_[y];
  const std::vector<NodeId>& level = tree_.level;
  if (ix == iy) {
    // Same path segment: the shallower endpoint is the ancestor.
    return level[x] <= level[y] ? x : y;
  }
  // inlabel of the LCA's path: the lowest common set bit of the two
  // ascendant masks at or above the highest bit where ix and iy differ.
  const int i = util::msb_index(ix ^ iy);
  const std::uint32_t common =
      ascendant_[x] & ascendant_[y] & ~((1u << i) - 1u);
  const int j = util::lsb_index(common);
  const std::uint32_t inlabel_z = ((ix >> (j + 1)) << (j + 1)) | (1u << j);

  // Climb each argument to its lowest ancestor on the z path: take the
  // highest segment strictly below height j on the argument's root path,
  // and step to that segment head's parent.
  const auto climb = [&](NodeId v) {
    if (inlabel_[v] == inlabel_z) return v;
    const std::uint32_t below = ascendant_[v] & ((1u << j) - 1u);
    const int k = util::msb_index(below);
    const std::uint32_t inlabel_w =
        ((inlabel_[v] >> (k + 1)) << (k + 1)) | (1u << k);
    const NodeId w = head_[inlabel_w];
    return tree_.parent[w];
  };
  const NodeId xz = climb(x);
  const NodeId yz = climb(y);
  return level[xz] <= level[yz] ? xz : yz;
}

void InlabelLca::query_batch(
    const device::Context& ctx,
    const std::vector<std::pair<NodeId, NodeId>>& queries,
    std::vector<NodeId>& answers) const {
  answers.resize(queries.size());
  device::transform(ctx, queries.size(), answers.data(), [&](std::size_t q) {
    return query(queries[q].first, queries[q].second);
  });
}

}  // namespace emc::lca
