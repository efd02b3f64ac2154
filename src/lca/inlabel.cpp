#include "lca/inlabel.hpp"

#include <atomic>
#include <cassert>

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

void InlabelLca::finish_preprocessing(const device::Context& ctx,
                                      util::PhaseTimer* phases) {
  const auto n = static_cast<std::size_t>(level_.size());
  util::ScopedPhase phase(phases, "inlabel_numbers");

  inlabel_.resize(n);
  device::transform(ctx, n, inlabel_.data(), [&](std::size_t v) {
    return inlabel_of(preorder_[v], preorder_[v] + subtree_size_[v] - 1);
  });

  // Path heads: the root, and every node whose inlabel differs from its
  // parent's. head_[inlabel] = that node.
  head_.assign(n + 1, kNoNode);
  device::launch(ctx, n, [&](std::size_t v) {
    const NodeId p = parent_[v];
    if (p == kNoNode || inlabel_[v] != inlabel_[p]) {
      head_[inlabel_[v]] = static_cast<NodeId>(v);
    }
  });

  // Ascendant bitmasks. asc(v) accumulates one bit per inlabel path segment
  // on the root path; along any root path there are at most ceil(log2(n+1))
  // segments (the inorder property maps them to a root path in B), so the
  // level-by-level sweep below terminates in O(log n) bulk rounds — this is
  // the PRAM-style O(log n)-time computation.
  ascendant_.assign(n, 0);
  std::vector<std::uint8_t> ready(n, 0);
  device::launch(ctx, n, [&](std::size_t v) {
    if (parent_[static_cast<NodeId>(v)] == kNoNode) {
      ascendant_[v] = 1u << util::lsb_index(inlabel_[v]);
      ready[v] = 1;
    }
  });
  // Only path heads need resolving through their parents; every other node
  // copies its head afterwards.
  std::vector<NodeId> heads_todo;
  heads_todo.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    const NodeId p = parent_[v];
    if (p != kNoNode && inlabel_[v] != inlabel_[p]) {
      heads_todo.push_back(static_cast<NodeId>(v));
    }
  }
  bool progress = true;
  while (!heads_todo.empty() && progress) {
    std::atomic<std::size_t> resolved{0};
    device::launch(ctx, heads_todo.size(), [&](std::size_t i) {
      const NodeId v = heads_todo[i];
      if (ready[v]) return;
      const NodeId p = parent_[v];
      // The parent either lies on an already-resolved segment (its head is
      // ready) or not; segments resolve top-down, one level per round. A
      // sibling virtual thread may resolve ph within this same launch, so
      // the ready handoff is acquire/release: observing ready[ph] == 1
      // makes the paired ascendant_[ph] write visible (racing threads that
      // miss it just resolve v next round).
      const NodeId ph = head_[inlabel_[p]];
      if (std::atomic_ref(ready[ph]).load(std::memory_order_acquire)) {
        ascendant_[v] = ascendant_[ph] | (1u << util::lsb_index(inlabel_[v]));
        std::atomic_ref(ready[v]).store(1, std::memory_order_release);
        resolved.fetch_add(1, std::memory_order_relaxed);
      }
    });
    progress = resolved.load() > 0;
    std::erase_if(heads_todo, [&](NodeId v) { return ready[v] != 0; });
  }
  assert(heads_todo.empty() && "ascendant sweep failed to converge");
  // Non-head nodes share their segment head's ascendant. Heads skip the
  // self-copy so no thread writes a slot another may be reading.
  device::launch(ctx, n, [&](std::size_t v) {
    const NodeId h = head_[inlabel_[v]];
    if (static_cast<NodeId>(v) != h) ascendant_[v] = ascendant_[h];
  });
}

InlabelLca InlabelLca::build_parallel(const device::Context& ctx,
                                      const core::ParentTree& tree,
                                      util::PhaseTimer* phases) {
  InlabelLca lca;
  lca.root_ = tree.root;
  lca.parent_ = tree.parent;

  // Euler tour preprocessing (§2): preorder numbers, subtree sizes, levels.
  const graph::EdgeList edges = core::tree_edges(tree);
  const core::EulerTour tour =
      core::build_euler_tour(ctx, edges, tree.root, core::RankAlgo::kWeiJaja,
                             phases);
  core::TreeStats stats = core::compute_tree_stats(ctx, tour, phases);
  lca.level_ = std::move(stats.level);
  lca.preorder_ = std::move(stats.preorder);
  lca.subtree_size_ = std::move(stats.subtree_size);
  lca.finish_preprocessing(ctx, phases);
  return lca;
}

InlabelLca InlabelLca::build_from_edges(const device::Context& ctx,
                                        const graph::EdgeList& edges,
                                        NodeId root,
                                        util::PhaseTimer* phases) {
  InlabelLca lca;
  lca.root_ = root;
  const core::EulerTour tour =
      core::build_euler_tour(ctx, edges, root, core::RankAlgo::kWeiJaja,
                             phases);
  core::TreeStats stats = core::compute_tree_stats(ctx, tour, phases);
  lca.parent_ = std::move(stats.parent);
  lca.level_ = std::move(stats.level);
  lca.preorder_ = std::move(stats.preorder);
  lca.subtree_size_ = std::move(stats.subtree_size);
  lca.finish_preprocessing(ctx, phases);
  return lca;
}

InlabelLca InlabelLca::build_sequential(const core::ParentTree& tree,
                                        util::PhaseTimer* phases) {
  InlabelLca lca;
  lca.root_ = tree.root;
  lca.parent_ = tree.parent;
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
    std::vector<EdgeId> child_cursor(n);
    for (std::size_t v = 0; v < n; ++v) child_cursor[v] = child_offset[v];
    preorder[tree.root] = next_pre++;
    level[tree.root] = 0;
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
  lca.level_ = std::move(level);
  lca.preorder_ = std::move(preorder);
  lca.subtree_size_ = std::move(subtree_size);
  const device::Context seq = device::Context::sequential();
  lca.finish_preprocessing(seq, phases);
  return lca;
}

NodeId InlabelLca::query(NodeId x, NodeId y) const {
  const std::uint32_t ix = inlabel_[x];
  const std::uint32_t iy = inlabel_[y];
  if (ix == iy) {
    // Same path segment: the shallower endpoint is the ancestor.
    return level_[x] <= level_[y] ? x : y;
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
    return parent_[w];
  };
  const NodeId xz = climb(x);
  const NodeId yz = climb(y);
  return level_[xz] <= level_[yz] ? xz : yz;
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
