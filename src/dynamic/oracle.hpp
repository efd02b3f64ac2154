// 2-edge-connectivity oracle over a DynamicGraph — the queryable index the
// paper's pipeline produces, kept alive between update batches.
//
// After each update batch the oracle rebuilds its index from the current
// snapshot with the paper's own pipeline:
//
//   bridge mask          — Tarjan-Vishkin on the snapshot (a disconnected
//                          snapshot is stitched with virtual edges between
//                          component representatives first: a single extra
//                          edge between two components can never change the
//                          bridgeness of a real edge, so slicing the mask
//                          back to the real edges is exact);
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
// Epoch versioning: refresh() compares its build epoch against the graph's
// and skips the rebuild entirely when nothing changed — in particular after
// update batches that turn out to be no-ops (all duplicates / already
// absent), which never advance the graph epoch.
//
// Incremental maintenance: when the graph is exactly ONE effective batch
// ahead of the index and that batch's applied delta (DynamicGraph::
// last_delta) is insert-only, small, and stays within connected components,
// refresh() skips the full pipeline. An inserted edge {u, v} inside one
// component can only MERGE 2-edge-connected components: it closes a cycle
// through the block-tree path between u's and v's blocks, so every block on
// that path collapses into one. The incremental path therefore
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
// An inserted edge whose endpoints lie in DIFFERENT components takes the
// complementary fast path: it cannot merge any 2-edge-connected components
// (every cycle through it would need a second connecting edge), it IS a new
// bridge, and its only structural effect is linking two trees of the block
// forest. refresh() therefore splits an insert-only delta
// (partition_insertions) into the intra-component part (contracted as
// above) and the cross-component part, which link_components() replays
// without touching the n-sized 2-ecc state:
// merge the affected component labels (one n-sized relabel pass), append
// one block-tree edge per inserted bridge to the live quotient tree, drop
// the merged-away components' virtual-root edges, and reindex only the
// block tree + inlabel LCA.
//
// Everything else — deletions, oversized deltas, a cycle-closing set of
// cross-component edges within one batch (two deltas joining the same pair
// of components), or a graph more than one batch ahead — falls back to the
// full rebuild under the explicit cost rule in incremental_applies(). One
// more guard engages mid-flight: the contraction's work is the total length
// of the covered block-tree paths, which the delta size does not bound (one
// edge can span a million-block chain), so after the bulk LCA answers the
// path lengths are summed and an oversized total aborts into the rebuild —
// see apply_insertions().
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bridges/bridges.hpp"
#include "bridges/cc_spanning.hpp"
#include "device/context.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "lca/inlabel.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace emc::dynamic {

class ConnectivityOracle {
 public:
  /// Brings the index up to date with `graph`. Returns true if any work ran
  /// (incremental or full rebuild), false if the (uid, epoch) check proved
  /// the index is already current for this exact graph instance. Phases
  /// (when collected): components, bridge_mask, two_ecc, block_tree for the
  /// full rebuild; lca_paths, contract, block_tree, tree_link for the
  /// incremental paths. `bridge_mask` and `cc`, when provided, must belong
  /// to the graph's CURRENT snapshot (engine artifact reuse: the per-edge
  /// bridge verdict and the connected-components spanning forest); both are
  /// consumed only if the full-rebuild path runs.
  bool refresh(const device::Context& ctx, const DynamicGraph& graph,
               util::PhaseTimer* phases = nullptr,
               const bridges::BridgeMask* bridge_mask = nullptr,
               const bridges::SpanningForest* cc = nullptr);

  /// Builds the index from an immutable snapshot with the full pipeline,
  /// unconditionally — the engine's static-graph entry (the caller owns
  /// change detection; epoch-keying lives in its artifact cache). Severs any
  /// (uid, epoch) binding to a DynamicGraph and counts as a rebuild.
  /// `bridge_mask`, when provided, must align with `snapshot.edges` (any
  /// backend — they all agree) and lets the rebuild skip its own
  /// Tarjan-Vishkin mask phase; `cc`, when provided, must be the spanning
  /// forest of `snapshot` and spares the rebuild its components phase the
  /// same way — so a session that already answered a Bridges request pays
  /// only the marginal 2-ecc work.
  void build(const device::Context& ctx, const graph::EdgeList& snapshot,
             const bridges::BridgeMask* bridge_mask = nullptr,
             const bridges::SpanningForest* cc = nullptr,
             util::PhaseTimer* phases = nullptr);

  /// True iff a refresh() against `graph` right now would run the full
  /// rebuild pipeline — neither the (uid, epoch) skip nor the incremental
  /// candidacy checks hold. Cheap host checks only: a candidate delta can
  /// still fall back to the rebuild mid-flight (cycle-closing cross edges,
  /// oversized covered paths), so a false here is a strong hint, not a
  /// promise. The engine uses it to decide whether a policy-chosen mask is
  /// worth computing up front.
  bool refresh_needs_rebuild(const DynamicGraph& graph) const {
    if (built_uid_ == graph.uid() && built_epoch_ == graph.epoch()) {
      return false;  // refresh would skip entirely
    }
    return !incremental_candidate(graph);
  }

  /// Severs the (uid, epoch) binding so the next refresh() can take neither
  /// the skip nor the incremental path — it must run the full pipeline. The
  /// engine's drop_artifacts/drop_results hooks call this so "the next
  /// request rebuilds" holds for dynamic sessions too (their refresh would
  /// otherwise no-op on the unchanged epoch). The index stays queryable.
  void invalidate() {
    built_uid_ = 0;
    built_epoch_ = kNeverBuilt;
    built_edges_ = 0;
  }

  /// The size half of the incremental decision rule: an insert-only delta
  /// qualifies iff it is small relative to the INDEXED snapshot —
  ///   inserted <= max(kIncrementalFloor, indexed_edges / kIncrementalRatio)
  /// and erased == 0. (The floor keeps small graphs on the incremental path;
  /// the ratio bounds the worst case where contraction relabels would not
  /// beat the full pipeline.) The remaining conditions — index exactly one
  /// batch behind, and no cycle-closing set of cross-component edges within
  /// the batch — are checked against live state by refresh().
  static bool incremental_applies(std::size_t inserted, std::size_t erased,
                                  std::size_t indexed_edges) {
    return erased == 0 && inserted > 0 &&
           inserted <= std::max<std::size_t>(kIncrementalFloor,
                                             indexed_edges / kIncrementalRatio);
  }

  static constexpr std::size_t kIncrementalFloor = 64;
  static constexpr std::size_t kIncrementalRatio = 4;

  /// Epoch of the snapshot the index was built from.
  std::uint64_t built_epoch() const { return built_epoch_; }
  std::size_t rebuilds() const { return rebuilds_; }
  std::size_t refreshes_skipped() const { return refreshes_skipped_; }
  /// Refreshes served by the incremental (delta-replay) path.
  std::size_t incremental_refreshes() const { return incremental_refreshes_; }
  /// Incremental refreshes whose delta included cross-component edges,
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

  // Query precondition (all queries below): refresh() must have run against
  // the queried graph, and node ids must be < that snapshot's num_nodes —
  // checked by assert in Debug builds, unchecked on the Release hot path.

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
  /// The stateful half of the incremental decision rule (shared by
  /// refresh() and refresh_needs_rebuild()): the index is exactly the one
  /// effective batch whose delta the graph still holds behind the current
  /// epoch, and the delta passes incremental_applies().
  bool incremental_candidate(const DynamicGraph& graph) const {
    const UpdateDelta& delta = graph.last_delta();
    return built_uid_ == graph.uid() && built_epoch_ != kNeverBuilt &&
           graph.epoch() == built_epoch_ + 1 &&
           delta.from_epoch == built_epoch_ &&
           incremental_applies(delta.inserted.size(), delta.erased.size(),
                               built_edges_);
  }

  void rebuild(const device::Context& ctx, const graph::EdgeList& snapshot,
               util::PhaseTimer* phases,
               const bridges::BridgeMask* bridge_mask = nullptr,
               const bridges::SpanningForest* cc = nullptr);

  /// Replays the intra-component insertions `inserted[ids]` onto the
  /// current index. Precondition: incremental_applies() held and every
  /// such edge's endpoints share a connected component (checked by
  /// refresh() through partition_insertions). Returns false —
  /// leaving the index UNCHANGED — when the covered-length rule fires: the
  /// summed block-tree path length of the delta exceeds
  /// max(kIncrementalFloor, num_blocks / kIncrementalRatio), in which case
  /// the contraction walk would not beat the full pipeline. The covered
  /// tree edges are marked dead in the carried tree, not reindexed.
  bool apply_insertions(const device::Context& ctx,
                        const std::vector<graph::Edge>& inserted,
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
                       const std::vector<graph::Edge>& inserted,
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

  static constexpr std::uint64_t kNeverBuilt = ~std::uint64_t{0};
  std::uint64_t built_uid_ = 0;  // no DynamicGraph has uid 0
  std::uint64_t built_epoch_ = kNeverBuilt;
  std::size_t built_edges_ = 0;  // edge count of the indexed snapshot
  std::size_t rebuilds_ = 0;
  std::size_t refreshes_skipped_ = 0;
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
