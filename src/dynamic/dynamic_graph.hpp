// Batch-dynamic graph storage: one append-only edge log plus a sorted key
// index.
//
// The paper's pipeline is a one-shot batch computation; a serving system
// needs the graph to *change*. Every algorithm here reads a plain edge list
// (graph::EdgeSpan), so the store keeps exactly that, the EDGE LOG, plus
// the same edges' canonical keys (graph::edge_key) in sorted order to
// answer "is this edge present?" by binary search. The keys are two sorted
// runs: the bulk, and the keys inserted since the last fold, which folds
// into the bulk by one parallel merge once it passes a fixed fraction of it.
//
// Updates arrive as *batches* of undirected edges. A radix sort of the
// batch's keys deduplicates it, and one compaction kernel drops the entries
// whose presence rules them out, so the launch count per batch is a small
// constant independent of its size. The graph is kept *simple* (see
// graph::canonical_keys): inserting an edge already present or erasing one
// already absent is a no-op, and the epoch advances exactly when the edge
// set changes, which lets an epoch-keyed cache (engine::Session) skip all
// work for no-op batches.
//
// snapshot() is the current epoch's prefix of the log, which starts as the
// seed's edges in key order. Each effective insert batch appends its edges,
// so every insert-only epoch's snapshot is a prefix of the same buffer, and
// what the epochs since e added is the suffix inserted_since(e) returns. A
// regrow copies the prefix into a fresh buffer (with a quarter of slack)
// while snapshots pinned on the old one keep it alive. The writer only ever
// writes past every pinned length and a reader never reads past its own, so
// a snapshot handed to another thread stays race-free while the writer
// appends. An erase builds a new log by one order-preserving filter of the
// old one, which also records the old log positions it dropped: the
// survivor at old position p moves to p minus the erased positions below
// it, so a consumer holding artifacts keyed by the old positions (the
// engine's spanning forest) renumbers them without reading either log
// (erased_since). (A Csr is the consumer's to build: the engine builds one
// lazily per epoch, only when a request reads it.)
//
// Both update calls give the strong exception guarantee: every kernel and
// allocation runs first, into new buffers, and the store then commits by
// swaps and host steps that cannot fail. A faulted call leaves the edge
// set, the epoch, the log and every snapshot as they were.
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
/// appended past it, regrown or replaced the log, or been destroyed. The
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
  /// Empty graph on `num_nodes` nodes.
  explicit DynamicGraph(NodeId num_nodes);

  /// Seeds the store from an edge list. The input is canonicalized first
  /// (self-loops and duplicate/reversed-duplicate edges dropped), so the
  /// stored edge set is the simple form of `initial`, and the log holds it
  /// in key order.
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
  /// non-zero, and then the added edges are appended to the edge log.
  std::size_t insert_edges(const device::Context& ctx,
                           const std::vector<graph::Edge>& batch);

  /// Applies a batch of deletions (same normalization; edges not present are
  /// ignored). Returns the number of edges actually removed; the epoch
  /// advances iff that is non-zero, and then the log is rebuilt without
  /// them, keeping the survivors' order.
  std::size_t erase_edges(const device::Context& ctx,
                          const std::vector<graph::Edge>& batch);

  NodeId num_nodes() const { return num_nodes_; }
  std::size_t num_edges() const { return log_len_.back(); }

  /// Version counter: advances exactly when the edge set changes.
  std::uint64_t epoch() const { return epoch_; }

  /// Membership test: a binary search of each key run.
  bool has_edge(NodeId u, NodeId v) const;

  /// The current version: this epoch's prefix of the edge log. A reference
  /// count copy — it runs no kernel and cannot fail.
  EdgeSnapshot snapshot() const;

  /// The edges added since `epoch`: the log suffix [len(epoch), len(now)),
  /// every insert batch in between concatenated in apply order (canonical
  /// u < v). nullopt when an erase came in between, or for a future epoch.
  /// Valid until the next update.
  std::optional<std::span<const graph::Edge>> inserted_since(
      std::uint64_t epoch) const;

  /// The erased positions: when the only update since `epoch` is one
  /// effective erase batch, the positions its edges held in the snapshot
  /// at `epoch`, ascending. The survivor at old position p is now at p
  /// minus the number of erased positions below p. nullopt when no erase,
  /// a second erase or any insert separates `epoch` from now
  /// (inserted_since covers the insert-only gaps). Valid until the next
  /// update.
  std::optional<std::span<const EdgeId>> erased_since(
      std::uint64_t epoch) const;

 private:
  /// The batch's graph::canonical_keys, keeping only edges whose presence
  /// in the store matches `keep_present` (false for inserts, true for
  /// erases).
  std::vector<std::uint64_t> normalized_batch(
      const device::Context& ctx, const std::vector<graph::Edge>& batch,
      bool keep_present) const;

  bool has_key(std::uint64_t key) const;

  NodeId num_nodes_ = 0;
  std::uint64_t epoch_ = 0;

  // The key index: two disjoint sorted runs whose union is the edge set.
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> recent_;

  // The edge log: log_capacity_ slots, of which the first log_len_.back()
  // hold the current edges; log_len_[i] is the edge count at epoch
  // log_base_ + i (the epochs since construction or the last erase).
  std::shared_ptr<graph::Edge[]> log_;
  std::size_t log_capacity_ = 0;
  std::uint64_t log_base_ = 0;
  std::vector<std::size_t> log_len_;
  // The last erase batch's positions in the log before it, ascending,
  // relative to epoch log_base_ - 1 (see erased_since).
  std::vector<EdgeId> erased_;
};

}  // namespace emc::dynamic
