// The Inlabel LCA algorithm of Schieber & Vishkin [50] (paper §3.1).
//
// Preprocessing assigns each node:
//   inlabel  — maps the node into the smallest full binary tree B with at
//              least |T| nodes (identified by inorder numbers), such that
//              the *path partition* and *inorder* properties hold: nodes
//              sharing an inlabel form a top-down path, and descendants map
//              to descendants in B.
//   ascendant — bitmask recording, for every inlabel path segment on the
//              node's root path, the height (= lowest set bit position) of
//              that segment's inlabel in B.
//   head     — for each inlabel value, the node of that path closest to the
//              root.
// together with levels. Queries then take O(1) bitwise operations.
//
// The preprocessing inputs (preorder, subtree size, level, parent) come from
// the Euler tour technique in the parallel variants, and from an iterative
// DFS in the single-core reference variant; everything after that is O(1)
// work per node ("the remaining part of the preprocessing runs in O(1) time
// and O(n) total work"): bulk kernels for inlabels and heads, and for the
// ascendants one core::PreorderWeights difference scan (each path head adds
// its height bit over its subtree interval), so the constructor launches the
// same kernels for every tree of a given size. The index keeps those inputs
// as its tree().
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/euler_tour.hpp"
#include "core/tree.hpp"
#include "device/context.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace emc::lca {

class InlabelLca {
 public:
  /// Parallel preprocessing (Euler tour + bulk kernels) over `ctx`.
  /// Context::device() reproduces "GPU Inlabel"; a k-worker context
  /// reproduces "multi-core CPU Inlabel"; Context::sequential() runs the
  /// same kernels inline.
  static InlabelLca build_parallel(const device::Context& ctx,
                                   const core::ParentTree& tree,
                                   util::PhaseTimer* phases = nullptr);

  /// Single-core reference preprocessing (iterative DFS), the paper's
  /// "single-core CPU Inlabel" baseline.
  static InlabelLca build_sequential(const core::ParentTree& tree,
                                     util::PhaseTimer* phases = nullptr);

  /// Preprocessing from a tree's stats, which the index keeps: a caller
  /// that already toured its tree (bridges::forest_lca) pays no second tour.
  InlabelLca(const device::Context& ctx, core::TreeStats tree, NodeId root,
             util::PhaseTimer* phases = nullptr);

  /// Lowest common ancestor of x and y. O(1).
  NodeId query(NodeId x, NodeId y) const;

  /// Answers a batch of queries with one bulk kernel (one virtual thread
  /// per query, as on the GPU).
  void query_batch(const device::Context& ctx,
                   const std::vector<std::pair<NodeId, NodeId>>& queries,
                   std::vector<NodeId>& answers) const;

  NodeId num_nodes() const { return static_cast<NodeId>(tree_.level.size()); }
  const std::vector<NodeId>& levels() const { return tree_.level; }
  NodeId root() const { return root_; }

  /// The rooted tree the index was built over (v's subtree occupies
  /// preorder [pre(v), pre(v) + size(v))): consumers that keep an
  /// InlabelLca read it here instead of touring the tree again.
  const core::TreeStats& tree() const { return tree_; }

 private:
  NodeId root_ = kNoNode;
  core::TreeStats tree_;
  std::vector<std::uint32_t> inlabel_;
  std::vector<std::uint32_t> ascendant_;
  std::vector<NodeId> head_;  // indexed by inlabel value, size n + 1
};

}  // namespace emc::lca
