#include "dynamic/oracle.hpp"

#include <atomic>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "bridges/cc_spanning.hpp"
#include "bridges/tarjan_vishkin.hpp"
#include "bridges/two_ecc.hpp"
#include "device/primitives.hpp"
#include "device/union_find.hpp"

namespace emc::dynamic {

std::optional<InsertPartition> partition_insertions(
    const std::vector<NodeId>& labels,
    std::span<const graph::Edge> inserted) {
  InsertPartition part;
  std::unordered_map<NodeId, NodeId> parent;  // label -> parent label
  auto find = [&](NodeId c) {
    for (auto it = parent.find(c); it != parent.end(); it = parent.find(c)) {
      c = it->second;
    }
    return c;
  };
  for (std::size_t i = 0; i < inserted.size(); ++i) {
    const NodeId cu = labels[inserted[i].u];
    const NodeId cv = labels[inserted[i].v];
    if (cu == cv) {
      part.intra.push_back(i);
      continue;
    }
    const NodeId a = find(cu);
    const NodeId b = find(cv);
    if (a == b) return std::nullopt;  // cycle across this batch's merges
    parent[std::max(a, b)] = std::min(a, b);
    part.cross.push_back(i);
  }
  for (const auto& entry : parent) part.merged[entry.first] = find(entry.first);
  return part;
}

bool ConnectivityOracle::insert(const device::Context& ctx,
                                std::span<const graph::Edge> inserted,
                                const InsertPartition& part,
                                util::PhaseTimer* phases) {
  // Intra-component edges merge blocks (contraction), cross-component
  // edges become bridges linking block trees (tree-link).
  if (!part.intra.empty() &&
      !apply_insertions(ctx, inserted, part.intra, phases)) {
    return false;
  }
  if (!part.cross.empty()) {
    // Reindexes the (contracted) quotient with the new bridges spliced
    // in — a mixed batch pays one block-tree index, not two.
    link_components(ctx, inserted, part.cross, part.merged, phases);
    ++tree_links_;
  } else if (node_block_.size() > 2 * num_blocks_) {
    // Dead edges (one per merge: tree nodes - blocks) outnumber live
    // ones: the carried tree is mostly contracted weight, so reindex its
    // quotient.
    util::ScopedPhase phase(phases, "block_tree");
    index_block_tree(ctx, current_block_tree(ctx));
  }
  ++incremental_refreshes_;
  return true;
}

void ConnectivityOracle::build(const device::Context& ctx,
                               graph::EdgeSpan snapshot,
                               const bridges::BridgeMask* bridge_mask,
                               const bridges::SpanningForest* cc,
                               util::PhaseTimer* phases) {
  const auto n = static_cast<std::size_t>(snapshot.num_nodes);
  const std::size_t m = snapshot.edges.size();
  if (n == 0) {
    cc_label_.clear();
    block_of_.clear();
    block_size_.clear();
    block_lca_.reset();
    dead_.clear();
    node_block_.clear();
    class_node_.clear();
    bridge_depth_.clear();
    num_bridges_ = 0;
    num_blocks_ = 0;
    ++rebuilds_;
    return;
  }

  // Connected components; the representatives become the virtual-root
  // children of the block tree.
  bridges::SpanningForest forest;
  {
    util::ScopedPhase phase(phases, "components");
    if (cc != nullptr) {
      // Precomputed by the caller (the engine's cached forest artifact).
      // Only the labels are consumed here, and they are copied because the
      // tail below moves them into cc_label_.
      assert(cc->component.size() == n);
      forest.component = cc->component;
      forest.num_components = cc->num_components;
    } else {
      forest = bridges::cc_spanning_forest(ctx, snapshot);
    }
  }
  const std::size_t k = forest.num_components;
  const std::vector<NodeId> comp_reps =
      bridges::component_representatives(ctx, forest);

  bridges::BridgeMask mask;
  {
    util::ScopedPhase phase(phases, "bridge_mask");
    if (bridge_mask != nullptr) {
      // Precomputed by the caller (the engine's policy-chosen backend);
      // every backend produces the same verdict, so reuse is exact.
      assert(bridge_mask->size() == m);
      mask = *bridge_mask;
    } else {
      mask = bridges::find_bridges_tarjan_vishkin(ctx, snapshot);
    }
  }
  num_bridges_ = bridges::count_bridges(mask);

  std::vector<NodeId> label;
  {
    util::ScopedPhase phase(phases, "two_ecc");
    label = bridges::two_edge_components(ctx, snapshot, mask);
  }

  util::ScopedPhase phase(phases, "block_tree");
  // Compact the representative labels to block ids [0, B).
  std::vector<NodeId> block_reps(n);
  const std::size_t num_blocks = device::copy_if_index(
      ctx, n,
      [&](std::size_t v) { return label[v] == static_cast<NodeId>(v); },
      block_reps.data());
  std::vector<NodeId> block_index(n);
  device::launch(ctx, num_blocks, [&](std::size_t b) {
    block_index[block_reps[b]] = static_cast<NodeId>(b);
  });
  block_of_.resize(n);
  device::transform(ctx, n, block_of_.data(),
                    [&](std::size_t v) { return block_index[label[v]]; });
  block_size_.assign(num_blocks, 0);
  device::launch(ctx, n, [&](std::size_t v) {
    std::atomic_ref<NodeId>(block_size_[block_of_[v]])
        .fetch_add(1, std::memory_order_relaxed);
  });
  num_blocks_ = num_blocks;
  cc_label_ = std::move(forest.component);

  // Contract: blocks are the nodes, bridges the edges — a forest with one
  // tree per connected component (num_bridges == num_blocks - k), rooted
  // into a single tree through a virtual super-root adjacent to each
  // component's representative block.
  std::vector<EdgeId> bridge_ids(m);
  device::copy_if_index(ctx, m, [&](std::size_t e) { return mask[e] != 0; },
                        bridge_ids.data());
  graph::EdgeList block_tree;
  block_tree.num_nodes = static_cast<NodeId>(num_blocks + 1);
  block_tree.edges.resize(num_bridges_ + k);
  device::transform(ctx, num_bridges_, block_tree.edges.data(),
                    [&](std::size_t i) {
                      const graph::Edge e = snapshot.edges[bridge_ids[i]];
                      return graph::Edge{block_of_[e.u], block_of_[e.v]};
                    });
  device::transform(ctx, k, block_tree.edges.data() + num_bridges_,
                    [&](std::size_t r) {
                      return graph::Edge{static_cast<NodeId>(num_blocks),
                                         block_of_[comp_reps[r]]};
                    });
  index_block_tree(ctx, block_tree);
  ++rebuilds_;
}

void ConnectivityOracle::index_block_tree(const device::Context& ctx,
                                          const graph::EdgeList& block_tree) {
  const auto super_root = static_cast<NodeId>(block_tree.num_nodes - 1);
  // One fused Euler tour roots the tree AND feeds the inlabel index (the
  // root_tree + build_parallel pair used to tour the same tree twice).
  block_lca_ = std::make_shared<const lca::InlabelLca>(
      lca::InlabelLca::build_from_edges(ctx, block_tree, super_root));
  // Fresh carried tree: every block is its own node, every edge is live.
  const std::size_t t = num_blocks_;
  dead_.assign(t, 0);
  node_block_.resize(t);
  device::iota(ctx, t, node_block_.data());
  class_node_ = node_block_;
  bridge_depth_ = block_lca_->levels();
}

bool ConnectivityOracle::apply_insertions(
    const device::Context& ctx, std::span<const graph::Edge> inserted,
    const std::vector<std::size_t>& ids, util::PhaseTimer* phases) {
  const std::size_t n = block_of_.size();
  const std::size_t d = ids.size();
  const lca::InlabelLca& tree = *block_lca_;
  const std::vector<NodeId>& parent = tree.parents();
  const std::vector<NodeId>& depth = bridge_depth_;

  // The inserted endpoints' blocks as carried-tree nodes (each block's top),
  // and their meeting points — one bulk LCA kernel for the whole delta.
  // Every pair lies within one component, so the meet is always a real
  // node, never the virtual super-root; and since every block is a
  // connected subtree, the meet's block is the pair's LCA in the contracted
  // tree.
  std::vector<std::pair<NodeId, NodeId>> pairs(d);
  device::transform(ctx, d, pairs.data(), [&](std::size_t i) {
    const graph::Edge e = inserted[ids[i]];
    return std::pair<NodeId, NodeId>{class_node_[block_of_[e.u]],
                                     class_node_[block_of_[e.v]]};
  });
  std::vector<NodeId> meet;
  {
    util::ScopedPhase phase(phases, "lca_paths");
    tree.query_batch(ctx, pairs, meet);
  }

  // Covered-length rule: the contraction below walks every covered live
  // tree edge, and the delta SIZE does not bound that (a single inserted
  // edge can span a chain of a million blocks). Sum the path lengths from
  // the LCA answers and hand oversized totals back to the full rebuild —
  // the probe's cost so far is three small kernels, noise next to either
  // path.
  const std::size_t covered = device::reduce(
      ctx, d, std::size_t{0},
      [&](std::size_t i) -> std::size_t {
        return static_cast<std::size_t>(depth[pairs[i].first] +
                                        depth[pairs[i].second] -
                                        2 * depth[meet[i]]);
      },
      [](std::size_t a, std::size_t b) { return a + b; });
  if (covered > std::max<std::size_t>(kIncrementalFloor,
                                      num_blocks_ / kIncrementalRatio)) {
    return false;
  }

  // Contract: each inserted edge closes a cycle through the tree path
  // between its blocks, merging every block on it. One virtual thread per
  // edge walks both legs up to the meet's block, standing only on block
  // tops — a top's parent edge is live, so each step crosses exactly one
  // covered bridge — hooking the two blocks together in the shared
  // union-find and marking the edge dead. Paths overlap freely (unite is
  // idempotent and order-independent; the byte exchange lets exactly one
  // walker claim each newly dead edge), and the final partition is exactly
  // connectivity over the covered edges. A newly dead edge x subtracts one
  // from the bridge depth of x's subtree: preorder range
  // [pre(x), pre(x) + size(x)) of a difference array (preorder is 1-based).
  const std::vector<NodeId>& pre = tree.preorder();
  const std::vector<NodeId>& size = tree.subtree_sizes();
  std::vector<NodeId> diff(static_cast<std::size_t>(tree.num_nodes()) + 2, 0);
  std::vector<NodeId> uf(num_blocks_);
  {
    util::ScopedPhase phase(phases, "contract");
    device::uf_init(ctx, uf.data(), num_blocks_);
    device::launch(ctx, d, [&](std::size_t i) {
      const NodeId meet_block = node_block_[meet[i]];
      for (NodeId x : {pairs[i].first, pairs[i].second}) {
        while (node_block_[x] != meet_block) {
          const NodeId p = parent[x];
          device::uf_unite(uf.data(), node_block_[x], node_block_[p]);
          if (std::atomic_ref<std::uint8_t>(dead_[x]).exchange(1) == 0) {
            std::atomic_ref<NodeId>(diff[pre[x]])
                .fetch_sub(1, std::memory_order_relaxed);
            std::atomic_ref<NodeId>(diff[pre[x] + size[x]])
                .fetch_add(1, std::memory_order_relaxed);
          }
          x = class_node_[node_block_[p]];
        }
      }
    });
    device::uf_flatten(ctx, uf.data(), num_blocks_);
  }

  util::ScopedPhase phase(phases, "block_tree");
  // Compact surviving roots to new block ids and remap old blocks.
  std::vector<NodeId> reps(num_blocks_);
  const std::size_t new_blocks = device::copy_if_index(
      ctx, num_blocks_,
      [&](std::size_t b) { return uf[b] == static_cast<NodeId>(b); },
      reps.data());
  std::vector<NodeId> new_id(num_blocks_);
  device::launch(ctx, new_blocks, [&](std::size_t b) {
    new_id[reps[b]] = static_cast<NodeId>(b);
  });
  std::vector<NodeId> remap(num_blocks_);
  device::transform(ctx, num_blocks_, remap.data(),
                    [&](std::size_t b) { return new_id[uf[b]]; });

  // Relabel the per-node index (the one n-sized pass of this path) and
  // fold the merged blocks' sizes together.
  device::launch(ctx, n, [&](std::size_t v) { block_of_[v] = remap[block_of_[v]]; });
  std::vector<NodeId> new_size(new_blocks, 0);
  device::launch(ctx, num_blocks_, [&](std::size_t b) {
    std::atomic_ref<NodeId>(new_size[remap[b]])
        .fetch_add(block_size_[b], std::memory_order_relaxed);
  });
  block_size_ = std::move(new_size);

  // Carry the tree: relabel its nodes, keep as each merged block's top the
  // one old top whose parent edge survived (the merged subtree's root), and
  // fold the newly dead edges into the bridge depths with one scan.
  device::launch(ctx, node_block_.size(),
                 [&](std::size_t x) { node_block_[x] = remap[node_block_[x]]; });
  std::vector<NodeId> new_class(new_blocks);
  device::launch(ctx, num_blocks_, [&](std::size_t b) {
    const NodeId top = class_node_[b];
    if (dead_[top] == 0) new_class[remap[b]] = top;
  });
  class_node_ = std::move(new_class);
  device::inclusive_scan(ctx, diff.data(), diff.size(), diff.data());
  device::launch(ctx, bridge_depth_.size(),
                 [&](std::size_t x) { bridge_depth_[x] += diff[pre[x]]; });

  // Each merge kills exactly one bridge. cc_label_ is untouched: an
  // intra-component delta cannot change connectivity.
  num_bridges_ -= num_blocks_ - new_blocks;
  num_blocks_ = new_blocks;
  return true;
}

graph::EdgeList ConnectivityOracle::current_block_tree(
    const device::Context& ctx) const {
  graph::EdgeList tree;
  tree.num_nodes = static_cast<NodeId>(num_blocks_ + 1);
  tree.edges.resize(num_blocks_);
  // One parent edge per block — its top's, which is live; root children
  // point at the super-root, so the edge count is exactly num_blocks_.
  const std::vector<NodeId>& parent = block_lca_->parents();
  const NodeId carried_root = block_lca_->root();
  const auto super_root = static_cast<NodeId>(num_blocks_);
  device::transform(ctx, num_blocks_, tree.edges.data(), [&](std::size_t b) {
    const NodeId p = parent[class_node_[b]];
    return graph::Edge{static_cast<NodeId>(b),
                       p == carried_root ? super_root : node_block_[p]};
  });
  return tree;
}

void ConnectivityOracle::link_components(
    const device::Context& ctx, std::span<const graph::Edge> inserted,
    const std::vector<std::size_t>& cross,
    const std::unordered_map<NodeId, NodeId>& merged,
    util::PhaseTimer* phases) {
  util::ScopedPhase phase(phases, "tree_link");
  const graph::EdgeList tree = current_block_tree(ctx);
  const std::size_t num_blocks = num_blocks_;
  const auto super_root = static_cast<NodeId>(num_blocks);
  // The merged-away components' root-child blocks — one per cross edge. A
  // component's root child is the block holding its representative (the
  // virtual edges are built as (super_root, block_of[rep])); block_of_ is
  // read here, after any same-batch contraction relabeled it, while the
  // merged map's keys are component labels, which contraction never moves.
  std::unordered_set<NodeId> loser_children;
  for (const auto& entry : merged) {
    loser_children.insert(block_of_[entry.first]);
  }
  assert(loser_children.size() == cross.size());

  // The new block tree: every real bridge survives (no block merges here),
  // the cross edges join as bridges between the linked trees, and the
  // merged-away components' virtual-root edges are dropped — one per cross
  // edge, keeping the edge count at exactly num_blocks.
  std::vector<NodeId> kept(num_blocks);
  const std::size_t k = device::copy_if_index(
      ctx, num_blocks,
      [&](std::size_t i) {
        const graph::Edge e = tree.edges[i];
        if (e.u != super_root && e.v != super_root) return true;
        const NodeId child = e.u == super_root ? e.v : e.u;
        return !loser_children.contains(child);
      },
      kept.data());
  assert(k + cross.size() == num_blocks);

  graph::EdgeList new_tree;
  new_tree.num_nodes = static_cast<NodeId>(num_blocks + 1);
  new_tree.edges.resize(num_blocks);
  device::transform(ctx, k, new_tree.edges.data(),
                    [&](std::size_t i) { return tree.edges[kept[i]]; });
  for (std::size_t i = 0; i < cross.size(); ++i) {
    const graph::Edge e = inserted[cross[i]];
    new_tree.edges[k + i] = {block_of_[e.u], block_of_[e.v]};
  }

  // Relabel the merged components with one n-sized pass (read-only host map
  // lookups race-free under the bulk kernel) and count the new bridges. The
  // 2-ecc state — block_of_, block_size_, num_blocks_ — is untouched: a
  // first edge between two components can never close a cycle.
  device::launch(ctx, cc_label_.size(), [&](std::size_t v) {
    const auto it = merged.find(cc_label_[v]);
    if (it != merged.end()) cc_label_[v] = it->second;
  });
  num_bridges_ += cross.size();
  index_block_tree(ctx, new_tree);
}

NodeId ConnectivityOracle::bridges_on_path(NodeId u, NodeId v) const {
  assert(in_range(u) && in_range(v));
  if (cc_label_[u] != cc_label_[v]) return kNoNode;
  const NodeId bu = block_of_[u];
  const NodeId bv = block_of_[v];
  if (bu == bv) return 0;
  // Both blocks hang below the same component root, so the meet is a real
  // tree node whose block is the blocks' LCA in the contracted tree, and
  // the live edges between them are exactly the bridges on the path.
  const NodeId a = class_node_[bu];
  const NodeId b = class_node_[bv];
  const NodeId z = block_lca_->query(a, b);
  return bridge_depth_[a] + bridge_depth_[b] - 2 * bridge_depth_[z];
}

}  // namespace emc::dynamic
