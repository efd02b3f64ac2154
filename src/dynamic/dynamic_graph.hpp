// Batch-dynamic graph storage — a DCSR (dynamic CSR) over the device layer.
//
// The paper's pipeline is a one-shot batch computation; a serving system
// needs the graph to *change*. This module stores the adjacency the way
// dynamic-CSR systems do (per-node segments with slack, cf. the DCSR of
// ldeng-ustc/bubble): node v owns the slot range
// [seg_begin[v], seg_begin[v+1]) of `adj`, of which the first seg_count[v]
// slots hold v's current neighbors and the rest are slack absorbing future
// insertions without moving other nodes' segments.
//
// Updates arrive as *batches* of undirected edges and are applied with the
// existing device primitives: radix sort of the packed (lo, hi) keys
// deduplicates the batch, a second sort of the directed expansion groups the
// half-edges by source node, and one bulk kernel per batch (one virtual
// thread per touched node) appends into — or deletes from — the segments,
// so the launch count per update batch is a small constant independent of
// the batch size. When some segment's slack is exhausted the whole store is
// compacted into a fresh CSR with renewed slack (chained scan for the new
// offsets, scatter of the surviving segments), amortizing the reshuffle over
// many batches.
//
// The graph is kept *simple* (no self-loops, no parallel edges; see
// graph::canonicalize): inserting an edge already present or erasing one
// already absent is a no-op and does not advance the epoch. The epoch
// counter advances exactly when the edge set actually changes, which is what
// lets an epoch-keyed cache (engine::Session) skip all work for no-op
// batches.
//
// snapshot() exports the current version as the immutable graph::EdgeList
// every existing algorithm consumes, built once per epoch and cached —
// repeated calls within an epoch are zero-copy. (A Csr of it is the
// consumer's to build: graph::build_csr(ctx, snapshot(ctx)); the engine
// does so lazily, once per epoch, only when a request reads one.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "device/context.hpp"
#include "graph/graph.hpp"
#include "util/types.hpp"

namespace emc::dynamic {

/// The applied (post-normalization) delta of the most recent effective
/// update batch: the edges that actually entered or left the store, in
/// canonical (u < v) form, and the epoch the batch applied on top of. A
/// consumer holding an index for `from_epoch` can bring it to
/// `from_epoch + 1` by replaying the delta instead of re-reading the whole
/// graph — the hook the engine's delta-replay publish hangs off.
struct UpdateDelta {
  /// Epoch the delta applies on top of (the batch produced from_epoch + 1).
  /// kNoDelta when no effective batch has run yet.
  std::uint64_t from_epoch = ~std::uint64_t{0};
  std::vector<graph::Edge> inserted;  // canonical u < v, deduplicated
  std::vector<graph::Edge> erased;    // canonical u < v, deduplicated

  static constexpr std::uint64_t kNoDelta = ~std::uint64_t{0};
  bool insert_only() const { return erased.empty(); }
};

class DynamicGraph {
 public:
  /// Empty graph on `num_nodes` nodes (all segments empty, zero capacity;
  /// the first insert batch triggers the initial compaction).
  explicit DynamicGraph(NodeId num_nodes);

  /// Seeds the store from an edge list. The input is canonicalized first
  /// (self-loops and duplicate/reversed-duplicate edges dropped), so the
  /// stored edge set is the simple form of `initial`.
  DynamicGraph(const device::Context& ctx, const graph::EdgeList& initial);

  /// Identity type — neither copyable nor movable: sessions bind it by
  /// address and key their caches on its epoch, which a copy (or a gutted
  /// moved-from source) would carry while holding a different edge set.
  /// Heap-allocate when ownership must travel.
  DynamicGraph(const DynamicGraph&) = delete;
  DynamicGraph& operator=(const DynamicGraph&) = delete;

  /// Applies a batch of insertions. Self-loops, out-of-range endpoints,
  /// within-batch duplicates and edges already present are ignored. Returns
  /// the number of edges actually added; the epoch advances iff that is
  /// non-zero.
  std::size_t insert_edges(const device::Context& ctx,
                           const std::vector<graph::Edge>& batch);

  /// Applies a batch of deletions (same normalization; edges not present are
  /// ignored). Returns the number of edges actually removed; the epoch
  /// advances iff that is non-zero.
  std::size_t erase_edges(const device::Context& ctx,
                          const std::vector<graph::Edge>& batch);

  NodeId num_nodes() const { return num_nodes_; }
  std::size_t num_edges() const { return num_edges_; }

  /// Version counter: advances exactly when the edge set changes.
  std::uint64_t epoch() const { return epoch_; }

  /// Delta of the most recent effective update batch (the one that advanced
  /// the epoch to epoch()). No-op batches leave it untouched; before any
  /// effective batch (including right after the seeding constructor, whose
  /// initial edges are part of epoch 0, not a delta on top of it) its
  /// from_epoch is UpdateDelta::kNoDelta. Invalidated by the next effective
  /// batch — consumers replay it immediately or not at all.
  const UpdateDelta& last_delta() const { return last_delta_; }

  /// Compactions performed so far (the amortized reshuffles).
  std::size_t num_compactions() const { return num_compactions_; }

  /// Edge-list snapshots served by the insert-only APPEND fast path (the
  /// previous epoch's snapshot plus the recorded delta — no kernels, no
  /// segment walk) rather than a full export. Advances when a streaming
  /// writer publishes back-to-back insert-only epochs; the ingest tests pin
  /// that insert-only stretches actually take it.
  std::size_t num_snapshot_appends() const { return num_snapshot_appends_; }

  /// Total adjacency slots currently reserved (used + slack).
  std::size_t slot_capacity() const { return adj_.size(); }

  EdgeId degree(NodeId v) const { return seg_count_[v]; }

  /// Membership test by scanning the smaller endpoint's segment.
  bool has_edge(NodeId u, NodeId v) const;

  /// The current version as an immutable edge list, built once per epoch and
  /// cached: calling again without an intervening update returns the same
  /// object (zero-copy). Every existing bridge finder runs unmodified on it.
  const graph::EdgeList& snapshot(const device::Context& ctx) const {
    return *snapshot_shared(ctx);
  }

  /// Shared-ownership form of the per-epoch snapshot. The store only keeps
  /// the CURRENT epoch's snapshot cached; a consumer pinning an older
  /// version (an engine::View generation) holds it alive through this
  /// handle after the cache has moved on — MVCC by refcount, no copying.
  std::shared_ptr<const graph::EdgeList> snapshot_shared(
      const device::Context& ctx) const;

 private:
  /// Sorts and deduplicates a batch into canonical packed (lo << 32 | hi)
  /// keys, dropping invalid entries and keeping only edges whose presence in
  /// the store matches `keep_present` (false for inserts, true for erases).
  std::vector<std::uint64_t> normalized_batch(
      const device::Context& ctx, const std::vector<graph::Edge>& batch,
      bool keep_present) const;

  /// Rebuilds the segment store with fresh slack. `demand` (optional, per
  /// node) reserves room for that many additional neighbors on top of the
  /// current degree, guaranteeing a pending insert batch fits.
  void compact(const device::Context& ctx, const EdgeId* demand);

  NodeId num_nodes_ = 0;
  std::size_t num_edges_ = 0;
  std::uint64_t epoch_ = 0;
  std::size_t num_compactions_ = 0;

  /// Records `keys` (canonical packed edges) as the delta that produced the
  /// current epoch, into the inserted or erased side.
  void record_delta(const device::Context& ctx,
                    const std::vector<std::uint64_t>& keys, bool inserted);

  std::vector<EdgeId> seg_begin_;  // size n+1: slot range of each segment
  std::vector<EdgeId> seg_count_;  // size n: used slots (node degree)
  std::vector<NodeId> adj_;        // slot store
  UpdateDelta last_delta_;

  static constexpr std::uint64_t kNeverBuilt = ~std::uint64_t{0};
  mutable std::shared_ptr<const graph::EdgeList> edge_snapshot_;
  mutable std::uint64_t edge_snapshot_epoch_ = kNeverBuilt;
  mutable std::size_t num_snapshot_appends_ = 0;
};

}  // namespace emc::dynamic
