// 2-edge-connectivity oracle — the queryable index the paper's pipeline
// produces, kept alive between update batches.
//
// build() indexes a snapshot with the paper's own pipeline:
//
//   bridge mask          — Tarjan-Vishkin on the snapshot as it is (a
//                          disconnected one too: TV roots its spanning
//                          forest below one virtual node adjacent to each
//                          component representative), or the caller's mask;
//   2ecc labels          — two_edge_components (bridge removal + device CC);
//   bridge-block tree    — contract each 2-edge-connected component to one
//                          node; the bridges are exactly the tree edges of
//                          the resulting forest, which is rooted through a
//                          virtual super-root and preprocessed with the
//                          Schieber-Vishkin inlabel LCA.
//
// Each query is O(1) arithmetic on the index (the inlabel query on the
// block tree). The engine answers request batches through these scalar
// queries with ONE bulk kernel per batch (engine::answer_each), so there
// are no per-query kernel launches, exactly the regime the paper's
// Figure 6 shows the device needs.
//
// The index has no epoch and names no graph store: it is whatever its last
// build() or insert() made it. Deciding WHEN an insert batch may be
// replayed belongs to the caller (engine::Session owns the one replay
// rule); the oracle only states the size rule (incremental_applies) and
// refuses, unchanged, a batch whose covered paths are too long.
//
// Incremental maintenance: insert() replays an insert-only batch split by
// the indexed components (partition_insertions). An inserted edge {u, v}
// inside one component can only MERGE 2-edge-connected components: it
// closes a cycle through the block-tree path between u's and v's blocks,
// so every block on that path collapses into one. The intra-component part
//
//   1. answers all inserted endpoints' block pairs with ONE bulk LCA kernel
//      on the existing block tree;
//   2. contracts each pair's tree path with the device union-find (one bulk
//      kernel; each virtual thread walks its path hooking blocks together
//      with CAS — src/device/union_find.hpp);
//   3. relabels the per-node block ids with one n-sized pass;
//   4. keeps the indexed block tree: the contracted tree edges are only
//      marked dead, and one preorder difference-array scan recomputes each
//      tree node's bridge depth (live edges on its root path). The LCA of
//      two blocks in the contracted tree is the class of their LCA in the
//      indexed tree, so bridges_on_path stays exact with no Euler tour;
//      the quotient is reindexed only once dead edges outnumber live ones.
//
// An edge whose endpoints lie in DIFFERENT components cannot merge any
// 2-edge-connected components (every cycle through it would need a second
// connecting edge): it IS a new bridge, and its only structural effect is
// linking two trees of the block forest. The cross-component part is
// replayed by link_components() without touching the n-sized 2-ecc state:
// merge the affected component labels (one n-sized relabel pass), append
// one block-tree edge per inserted bridge to the live quotient tree, drop
// the merged-away components' virtual-root edges, and reindex only the
// block tree + inlabel LCA.
//
// The contraction's work is the total length of the covered block-tree
// paths, which the batch size does not bound (one edge can span a
// million-block chain), so after the bulk LCA answers the path lengths are
// summed and an oversized total makes insert() return false — see
// apply_insertions().
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bridges/bridges.hpp"
#include "bridges/cc_spanning.hpp"
#include "device/context.hpp"
#include "graph/graph.hpp"
#include "lca/inlabel.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace emc::dynamic {

/// An insert batch split by the connected components of the snapshot it
/// applies to: intra-component edges can only merge 2-edge-connected
/// blocks, cross-component edges each become a bridge linking two trees.
struct InsertPartition {
  std::vector<std::size_t> intra;  // batch indexes, endpoints in one component
  std::vector<std::size_t> cross;  // batch indexes, endpoints in two components
  /// Loser label -> final winner label of the components the cross edges
  /// join. The min label wins, so relabeling yields exactly what a fresh CC
  /// labeling of the new snapshot assigns (component[rep] == rep holds).
  std::unordered_map<NodeId, NodeId> merged;
};

/// Classifies `inserted` by `labels` (per-node component label of the
/// snapshot BEFORE the insert), merging the touched labels with a host
/// union-find as it goes. Returns nullopt for the one shape neither
/// incremental replay can express: a cross edge closing a cycle through
/// components merged earlier in the same batch (it is not a bridge, yet
/// not intra-component on the old snapshot either).
std::optional<InsertPartition> partition_insertions(
    const std::vector<NodeId>& labels,
    std::span<const graph::Edge> inserted);

class ConnectivityOracle {
 public:
  /// Builds the index from a snapshot with the full pipeline. Phases (when
  /// collected): components, bridge_mask, two_ecc, block_tree.
  /// `bridge_mask`, when provided, must align with `snapshot.edges` (any
  /// backend — they all agree) and lets the build skip its own
  /// Tarjan-Vishkin mask phase; `cc`, when provided, must be the spanning
  /// forest of `snapshot` and spares the build its components phase the
  /// same way — so a session that already answered a Bridges request pays
  /// only the marginal 2-ecc work.
  void build(const device::Context& ctx, graph::EdgeSpan snapshot,
             const bridges::BridgeMask* bridge_mask = nullptr,
             const bridges::SpanningForest* cc = nullptr,
             util::PhaseTimer* phases = nullptr);

  /// Replays `inserted` — every edge added to the indexed snapshot since,
  /// one or more insert-only batches concatenated — split by `part`, which
  /// partition_insertions computed over component_labels(). Returns false,
  /// leaving the index UNCHANGED, when the covered-length rule fires (see
  /// apply_insertions); the caller then build()s the new snapshot. Phases:
  /// lca_paths, contract, block_tree, tree_link.
  bool insert(const device::Context& ctx,
              std::span<const graph::Edge> inserted,
              const InsertPartition& part, util::PhaseTimer* phases = nullptr);

  /// The size half of the incremental decision rule: an insert-only batch
  /// qualifies iff it is small relative to the INDEXED snapshot —
  ///   inserted <= max(kIncrementalFloor, indexed_edges / kIncrementalRatio)
  /// and erased == 0. (The floor keeps small graphs on the incremental path;
  /// the ratio bounds the worst case where contraction relabels would not
  /// beat the full pipeline.)
  static bool incremental_applies(std::size_t inserted, std::size_t erased,
                                  std::size_t indexed_edges) {
    return erased == 0 && inserted > 0 &&
           inserted <= std::max<std::size_t>(kIncrementalFloor,
                                             indexed_edges / kIncrementalRatio);
  }

  static constexpr std::size_t kIncrementalFloor = 64;
  static constexpr std::size_t kIncrementalRatio = 4;

  std::size_t rebuilds() const { return rebuilds_; }
  /// Batches served by insert() (the delta-replay path).
  std::size_t incremental_refreshes() const { return incremental_refreshes_; }
  /// Incremental refreshes whose batch included cross-component edges,
  /// served by the tree-link path (a subset of incremental_refreshes()).
  std::size_t tree_links() const { return tree_links_; }

  std::size_t num_bridges() const { return num_bridges_; }
  /// Number of 2-edge-connected components (blocks).
  std::size_t num_blocks() const { return num_blocks_; }

  /// Per-node compact 2-ecc block id in [0, num_blocks) — u and v share a
  /// block iff same_2ecc(u, v). This is the label array the engine serves
  /// as its TwoEcc artifact (the oracle IS the cache's 2-ecc index, not a
  /// parallel universe).
  const std::vector<NodeId>& block_labels() const { return block_of_; }
  /// Nodes per block, indexed by block id.
  const std::vector<NodeId>& block_sizes() const { return block_size_; }
  /// Per-node connected-component representative of the indexed snapshot.
  const std::vector<NodeId>& component_labels() const { return cc_label_; }

  // Query precondition (all queries below): node ids must be < the indexed
  // snapshot's num_nodes — checked by assert in Debug builds, unchecked on
  // the Release hot path.

  /// True iff two edge-disjoint u-v paths exist.
  bool same_2ecc(NodeId u, NodeId v) const {
    assert(in_range(u) && in_range(v));
    return block_of_[u] == block_of_[v];
  }

  /// Number of bridges on the (every) u-v path, or kNoNode if u and v lie
  /// in different connected components. O(1) via the block-tree LCA.
  NodeId bridges_on_path(NodeId u, NodeId v) const;

  /// Size of u's 2-edge-connected component.
  NodeId component_size(NodeId u) const {
    assert(in_range(u));
    return block_size_[block_of_[u]];
  }

 private:
  /// Replays the intra-component insertions `inserted[ids]` onto the
  /// current index. Precondition: every such edge's endpoints share a
  /// connected component (partition_insertions). Returns false —
  /// leaving the index UNCHANGED — when the covered-length rule fires: the
  /// summed block-tree path length of the delta exceeds
  /// max(kIncrementalFloor, num_blocks / kIncrementalRatio), in which case
  /// the contraction walk would not beat the full pipeline. The covered
  /// tree edges are marked dead in the carried tree, not reindexed.
  bool apply_insertions(const device::Context& ctx,
                        std::span<const graph::Edge> inserted,
                        const std::vector<std::size_t>& ids,
                        util::PhaseTimer* phases);

  /// Replays the cross-component insertions `inserted[cross]` onto the
  /// current index: each edge becomes a new bridge linking two trees of the
  /// block forest, so no 2-ecc state changes — apply `merged`
  /// (partition_insertions' resolved loser -> winner labels) to the
  /// component labels in one n-sized pass, splice the new bridges into
  /// current_block_tree() in place of the merged-away components'
  /// virtual-root edges, and reindex once.
  void link_components(const device::Context& ctx,
                       std::span<const graph::Edge> inserted,
                       const std::vector<std::size_t>& cross,
                       const std::unordered_map<NodeId, NodeId>& merged,
                       util::PhaseTimer* phases);

  /// The live block forest as an edge list over compact block ids — the
  /// quotient of the carried tree by its dead edges (one parent edge per
  /// block; root children attached to the virtual super-root, node id
  /// num_blocks).
  graph::EdgeList current_block_tree(const device::Context& ctx) const;

  /// Indexes `block_tree` (one node per current block + the virtual
  /// super-root, node id num_blocks) with the inlabel LCA and resets the
  /// carried-tree state to it: no dead edges, every block its own node.
  void index_block_tree(const device::Context& ctx,
                        const graph::EdgeList& block_tree);

  bool in_range(NodeId v) const {
    return v >= 0 && static_cast<std::size_t>(v) < block_of_.size();
  }

  std::size_t rebuilds_ = 0;
  std::size_t incremental_refreshes_ = 0;
  std::size_t tree_links_ = 0;

  std::size_t num_bridges_ = 0;
  std::size_t num_blocks_ = 0;
  std::vector<NodeId> cc_label_;    // connected-component representative
  std::vector<NodeId> block_of_;    // compact 2ecc block id, [0, num_blocks)
  std::vector<NodeId> block_size_;  // nodes per block
  // The carried block tree: the inlabel LCA over the block forest as of the
  // last reindex, rooted at a virtual super-root (its last node). Its
  // nodes are the blocks of THAT moment; intra-component replays since
  // then merged some of them by contracting tree edges, which stay in the
  // index and are only marked dead. Each current block is a connected
  // subtree of the carried tree. Shared (immutable) between copy-on-write
  // clones; engaged whenever the indexed snapshot has >= 1 node.
  std::shared_ptr<const lca::InlabelLca> block_lca_;
  std::vector<std::uint8_t> dead_;      // per tree node: parent edge contracted
  std::vector<NodeId> node_block_;      // per tree node: current block id
  std::vector<NodeId> class_node_;      // per block: its top tree node
  std::vector<NodeId> bridge_depth_;    // per tree node: live root-path edges
};

}  // namespace emc::dynamic
