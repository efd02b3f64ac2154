// 2-edge-connectivity index on an epoch's spanning forest — the queryable
// index the paper's pipeline produces.
//
// One rooted spanning tree answers every tree query (the paper's Euler-tour
// technique). Every bridge is a tree edge of every spanning forest, and each
// 2-edge-connected block meets the forest in a connected subtree. So the
// index derives from the epoch's forest, its forest LCA (bridges::forest_lca,
// shared with the epoch record) and bridge mask: per node, its compact block
// label (the components of the non-bridge tree edges); per block, its size,
// one member (its head) and its bridge depth bd — the bridges on any
// member's forest root path, one count for all members since the block's
// tree part is connected. One host pass over the forest LCA's tree in
// preorder derives them all: a block's head is a component root or a node
// whose parent edge is a bridge, and every other node joins its parent's
// block.
// A simple forest path crosses exactly the bridges separating its ends, once
// each, so
//
//   bridges_on_path(u, v) = bd(u) + bd(v) - 2 bd(lca_F(u, v))
//
// and same_2ecc compares labels: O(1) queries, which the engine answers in
// bulk with ONE kernel per batch (engine::answer_each), the paper's Figure 6
// regime.
//
// insert() derives the next epoch's index for an insert-only suffix by
// walking the bridge tree (the blocks, each hanging below the block of its
// head's parent). An intra edge {u, v} demotes exactly the bridges on its
// forest path: core::BlockUnion walks its ends' blocks up, stepping the side
// whose head is deeper, and each step demotes that head's parent edge and
// merges its block into the one above, until both sides meet. The walk is
// O(batch + demoted) host steps over a sparse union-find and needs no LCA.
// The merged blocks keep their heads' preorder numbering, so one n-sized
// relabel and one pass over the blocks give the next arrays; a block's bd
// drops by the demoted intervals holding it (core::PreorderWeights). A batch
// that demotes nothing shares every array and runs no kernel. A cross edge
// is a new bridge linking two trees: the caller links the forest and
// rebuilds its LCA, and the index is the preorder pass over the linked
// forest, where an edge is a bridge iff its ends' merged blocks differ.
//
// The index has no epoch and counts nothing: when a suffix may be replayed is
// engine::Session's one replay rule.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "bridges/bridges.hpp"
#include "bridges/cc_spanning.hpp"
#include "device/context.hpp"
#include "graph/graph.hpp"
#include "lca/inlabel.hpp"
#include "util/types.hpp"

namespace emc::dynamic {

class ConnectivityOracle {
 public:
  /// The index of the empty graph.
  ConnectivityOracle() = default;

  /// Indexes `g` from its spanning forest, that forest's LCA
  /// and a bridge mask aligned with g.edges (any backend — they all agree).
  ConnectivityOracle(const device::Context& ctx, graph::EdgeSpan g,
                     const bridges::SpanningForest& forest,
                     std::shared_ptr<const lca::InlabelLca> lca,
                     const bridges::BridgeMask& mask);

  /// The index of `g`: the indexed snapshot followed by `inserted` (its
  /// edge log suffix, any number of insert-only batches), of which the
  /// `intra` edges join nodes the indexed forest already connects and the
  /// rest link its trees. `forest` and `lca` are g's forest and forest LCA;
  /// the arrays bound to the forest are kept iff `lca` is the indexed one.
  /// Arrays the suffix leaves unchanged are shared.
  ConnectivityOracle insert(const device::Context& ctx, graph::EdgeSpan g,
                            const bridges::SpanningForest& forest,
                            std::span<const graph::Edge> inserted,
                            std::span<const std::size_t> intra,
                            std::shared_ptr<const lca::InlabelLca> lca) const;

  /// The size half of the replay rule: an insert-only batch qualifies iff
  /// it is small relative to the INDEXED snapshot —
  ///   0 < inserted <= max(kIncrementalFloor,
  ///                       indexed_edges / kIncrementalRatio).
  /// (The floor keeps small graphs on the incremental path; the ratio bounds
  /// the worst case where the replay's passes would not beat the full
  /// pipeline. An erase never gets here: the graph reports no insert-only
  /// suffix across one.)
  static bool incremental_applies(std::size_t inserted,
                                  std::size_t indexed_edges) {
    return inserted > 0 &&
           inserted <= std::max<std::size_t>(kIncrementalFloor,
                                             indexed_edges / kIncrementalRatio);
  }

  static constexpr std::size_t kIncrementalFloor = 64;
  static constexpr std::size_t kIncrementalRatio = 4;

  std::size_t num_bridges() const { return num_bridges_; }
  /// Number of 2-edge-connected components (blocks).
  std::size_t num_blocks() const { return num_blocks_; }

  /// Per-node compact 2-ecc block id in [0, num_blocks) — u and v share a
  /// block iff same_2ecc(u, v). This is the label array the engine serves
  /// as its TwoEcc artifact.
  const std::vector<NodeId>& block_labels() const { return *labels_; }
  /// Nodes per block, indexed by block id.
  const std::vector<NodeId>& block_sizes() const { return *sizes_; }

  // Query precondition (all queries below): node ids must be < the indexed
  // snapshot's num_nodes — checked by assert in Debug builds, unchecked on
  // the Release hot path.

  /// True iff two edge-disjoint u-v paths exist.
  bool same_2ecc(NodeId u, NodeId v) const {
    assert(in_range(u) && in_range(v));
    return (*labels_)[u] == (*labels_)[v];
  }

  /// Number of bridges on the (every) u-v path, or kNoNode if u and v lie
  /// in different connected components. O(1) via the forest LCA.
  NodeId bridges_on_path(NodeId u, NodeId v) const {
    assert(in_range(u) && in_range(v));
    const std::vector<NodeId>& label = *labels_;
    if (label[u] == label[v]) return 0;
    const NodeId z = lca_->query(u, v);
    // The virtual root is the meet of nodes in different components.
    if (static_cast<std::size_t>(z) == label.size()) return kNoNode;
    return depth_[label[u]] + depth_[label[v]] - 2 * depth_[label[z]];
  }

  /// Size of u's 2-edge-connected component.
  NodeId component_size(NodeId u) const {
    assert(in_range(u));
    return (*sizes_)[(*labels_)[u]];
  }

 private:
  /// Fills every array but num_bridges_ from one preorder pass over
  /// lca_->tree() (`forest` is its forest; is_bridge(e) tests g's edge e).
  template <typename IsBridge>
  void index_forest(const device::Context& ctx, graph::EdgeSpan g,
                    const bridges::SpanningForest& forest,
                    const IsBridge& is_bridge);

  bool in_range(NodeId v) const {
    return v >= 0 && static_cast<std::size_t>(v) < labels_->size();
  }

  std::size_t num_bridges_ = 0;
  std::size_t num_blocks_ = 0;
  std::shared_ptr<const std::vector<NodeId>> labels_ =
      std::make_shared<const std::vector<NodeId>>();
  std::shared_ptr<const std::vector<NodeId>> sizes_ = labels_;
  std::shared_ptr<const NodeId[]> members_;  // per block: its head
  std::shared_ptr<const NodeId[]> depth_;    // bd, per block
  std::shared_ptr<const lca::InlabelLca> lca_;
};

}  // namespace emc::dynamic
