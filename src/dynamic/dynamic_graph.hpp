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
// snapshot() exposes the current version as a prefix of one append-only
// EDGE LOG — the plain edge list every algorithm reads, through a
// graph::EdgeSpan. The log is exported from the segments once: by the first
// snapshot() after construction or after an erase. From then on every
// effective insert batch appends its applied edges to it, so each
// insert-only epoch's snapshot is the first len(epoch) edges of the same
// buffer (no per-epoch copy), and what the epochs since e added is exactly
// the suffix inserted_since(e) returns. The buffer grows by the segments'
// slack rule; a regrow copies the prefix into a fresh buffer while
// snapshots pinned on the old one keep it alive. The writer only ever
// writes past every pinned length and a reader never reads past its own,
// so a snapshot handed to another thread stays race-free while the writer
// appends. An erase drops the log; the next snapshot() exports a fresh one.
// (A Csr is the consumer's to build: graph::build_csr(ctx, snapshot(ctx));
// the engine does so lazily, once per epoch, only when a request reads one.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "device/context.hpp"
#include "graph/graph.hpp"
#include "util/types.hpp"

namespace emc::dynamic {

/// One epoch's edge list: the first num_edges() edges of the store's edge
/// log. Co-owns the log buffer, so it stays readable after the store has
/// appended past it, regrown or dropped the log, or been destroyed. The
/// edge order is fixed: a Csr or bridge mask built from the snapshot
/// indexes its positions, and later insert-only epochs keep every position
/// and append theirs after it.
class EdgeSnapshot {
 public:
  EdgeSnapshot() = default;

  graph::EdgeSpan span() const { return {num_nodes_, {log_.get(), length_}}; }
  /* implicit */ operator graph::EdgeSpan() const { return span(); }
  std::size_t num_edges() const { return length_; }

 private:
  friend class DynamicGraph;
  EdgeSnapshot(std::shared_ptr<const graph::Edge[]> log, std::size_t length,
               NodeId num_nodes)
      : log_(std::move(log)), length_(length), num_nodes_(num_nodes) {}

  std::shared_ptr<const graph::Edge[]> log_;
  std::size_t length_ = 0;
  NodeId num_nodes_ = 0;
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
  /// non-zero, and then the added edges are appended to the edge log (when
  /// one exists). The log's regrow allocation happens before the segments
  /// change, and the append itself cannot fail, so a fault leaves the store
  /// and its log consistent.
  std::size_t insert_edges(const device::Context& ctx,
                           const std::vector<graph::Edge>& batch);

  /// Applies a batch of deletions (same normalization; edges not present are
  /// ignored). Returns the number of edges actually removed; the epoch
  /// advances iff that is non-zero, and then the edge log is dropped.
  std::size_t erase_edges(const device::Context& ctx,
                          const std::vector<graph::Edge>& batch);

  NodeId num_nodes() const { return num_nodes_; }
  std::size_t num_edges() const { return num_edges_; }

  /// Version counter: advances exactly when the edge set changes.
  std::uint64_t epoch() const { return epoch_; }

  /// Compactions performed so far (the amortized reshuffles).
  std::size_t num_compactions() const { return num_compactions_; }

  /// Total adjacency slots currently reserved (used + slack).
  std::size_t slot_capacity() const { return adj_.size(); }

  EdgeId degree(NodeId v) const { return seg_count_[v]; }

  /// Membership test by scanning the smaller endpoint's segment.
  bool has_edge(NodeId u, NodeId v) const;

  /// The current version: this epoch's prefix of the edge log. Exports the
  /// log from the segments first when none exists — the one place the log
  /// is created, and the only call here that runs kernels or can fault.
  EdgeSnapshot snapshot(const device::Context& ctx) const;

  /// The edges added since `epoch`: the log suffix [len(epoch), len(now)),
  /// every insert batch in between concatenated in apply order (canonical
  /// u < v). nullopt when no log covers `epoch` — it was not exported yet
  /// at that epoch, or an erase came in between. Valid until the next
  /// update.
  std::optional<std::span<const graph::Edge>> inserted_since(
      std::uint64_t epoch) const;

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

  std::vector<EdgeId> seg_begin_;  // size n+1: slot range of each segment
  std::vector<EdgeId> seg_count_;  // size n: used slots (node degree)
  std::vector<NodeId> adj_;        // slot store

  // The edge log, null when none exists: log_capacity_ slots, of which the
  // first log_len_.back() hold the current edges; log_len_[i] is the edge
  // count at epoch log_base_ + i. Mutable because snapshot() exports it.
  mutable std::shared_ptr<graph::Edge[]> log_;
  mutable std::size_t log_capacity_ = 0;
  mutable std::uint64_t log_base_ = 0;
  mutable std::vector<std::size_t> log_len_;
};

}  // namespace emc::dynamic
