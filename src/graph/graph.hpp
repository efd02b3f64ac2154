// Graph representations.
//
// EdgeList — the "very unstructured input" of §2.1: an unordered collection
// of undirected edges as pairs of node identifiers. All paper algorithms
// accept this (or a parent array, for trees).
//
// EdgeSpan — a read-only view of the same shape (node count + contiguous
// edges) that the algorithms actually take, so an EdgeList and a prefix of
// the dynamic store's append-only edge log are read by the same code.
//
// Csr — compressed sparse row adjacency built from an EdgeList; used by BFS,
// DFS, and the CK marking phase.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "device/context.hpp"
#include "util/types.hpp"

namespace emc::graph {

/// Undirected edge {u, v}. Orientation of storage is not meaningful.
struct Edge {
  NodeId u;
  NodeId v;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Canonical 64-bit sort key of an undirected edge: (min << 32 | max).
/// The one packing shared by canonicalize() and the dynamic-graph batch
/// pipeline (both encode the library-wide 32-bit NodeId assumption here).
inline std::uint64_t edge_key(NodeId u, NodeId v) {
  const auto lo = static_cast<std::uint32_t>(u < v ? u : v);
  const auto hi = static_cast<std::uint32_t>(u < v ? v : u);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

/// The edge a canonical key encodes, oriented (min, max).
inline Edge edge_of_key(std::uint64_t key) {
  return {static_cast<NodeId>(key >> 32),
          static_cast<NodeId>(key & 0xffffffffULL)};
}

/// The validity rule edge_key's callers filter by: in-range endpoints, no
/// self-loop. Shared so canonicalize() and the dynamic-graph batch paths
/// cannot drift.
inline bool edge_valid(NodeId u, NodeId v, NodeId num_nodes) {
  return u != v && u >= 0 && v >= 0 && u < num_nodes && v < num_nodes;
}

/// Unordered collection of undirected edges over nodes [0, num_nodes).
struct EdgeList {
  NodeId num_nodes = 0;
  std::vector<Edge> edges;

  std::size_t num_edges() const { return edges.size(); }

  /// Checks ids are in range and there are no self-loops. Parallel edges are
  /// allowed (they occur in raw generated graphs and are handled by every
  /// algorithm in this library).
  bool valid() const;
};

/// Read-only view of an edge list: node count plus a contiguous edge range
/// it does not own. Built implicitly from an EdgeList, so every function
/// taking one also takes a plain EdgeList; the viewed edges must outlive
/// the span.
struct EdgeSpan {
  NodeId num_nodes = 0;
  std::span<const Edge> edges;

  EdgeSpan() = default;
  EdgeSpan(NodeId nodes, std::span<const Edge> list)
      : num_nodes(nodes), edges(list) {}
  /* implicit */ EdgeSpan(const EdgeList& graph)
      : num_nodes(graph.num_nodes), edges(graph.edges) {}

  std::size_t num_edges() const { return edges.size(); }
};

/// Compressed sparse row: for node v the incident half-edges are
/// neighbors[row_offsets[v] .. row_offsets[v+1]); edge_ids gives the
/// undirected edge id each half-edge came from, so algorithms can
/// distinguish parallel edges and map results back to EdgeList order.
struct Csr {
  NodeId num_nodes = 0;
  std::vector<EdgeId> row_offsets;  // size num_nodes + 1
  std::vector<NodeId> neighbors;    // size 2 * num_edges
  std::vector<EdgeId> edge_ids;     // size 2 * num_edges

  std::size_t num_edges() const { return neighbors.size() / 2; }
  EdgeId degree(NodeId v) const { return row_offsets[v + 1] - row_offsets[v]; }
};

/// Builds CSR adjacency from an edge list. Counting-sort based: O(n + m),
/// bulk-parallel over the device context.
Csr build_csr(const device::Context& ctx, EdgeSpan graph);

/// True iff `csr` could be the adjacency build_csr() produces for `graph`:
/// same node/edge counts and the same multiset of (edge id, endpoints)
/// incidences, compared through an order-insensitive 64-bit hash that each
/// side computes from its own representation alone (so nothing has to be
/// stored at build time and the Release hot path pays nothing). O(n + m)
/// sequential — this is the debug contract behind the dual-argument
/// algorithms: every function taking an (EdgeList, Csr) pair asserts it,
/// turning a silently wrong answer from mismatched arguments into an
/// immediate failure.
bool csr_matches(EdgeSpan graph, const Csr& csr);

/// Connected component labels via sequential union-find. This is the
/// *preprocessing* tool (e.g. extracting the largest component of a
/// generated graph, mirroring the paper's dataset preparation); the
/// device-parallel CC used inside Tarjan-Vishkin lives in
/// bridges/cc_spanning.hpp.
std::vector<NodeId> connected_component_labels(EdgeSpan graph);

/// Number of distinct values in a label array.
std::size_t count_components(const std::vector<NodeId>& labels);

/// Returns the subgraph induced by the largest connected component, with
/// nodes renumbered to [0, k). Mirrors "we preprocessed each graph to keep
/// only its largest connected component" (§4.2).
EdgeList largest_component(const EdgeList& graph);

/// The edge set of `graph` as sorted, unique canonical keys (edge_key),
/// via the device sort (on the calling thread for inputs small enough that
/// its fixed launches dominate): self-loops and out-of-range endpoints are
/// dropped, and duplicate and reversed-duplicate edges collapse to one key.
/// The one shared normalization: canonicalize() decodes these keys, and the
/// dynamic graph seeds its edge log and key index from them and normalizes
/// every update batch through them.
std::vector<std::uint64_t> canonical_keys(const device::Context& ctx,
                                          EdgeSpan graph);

/// Canonical simple form: canonical_keys() decoded, so the survivors come
/// oriented (min, max) in ascending order. Every EdgeList returned by it
/// satisfies valid() and round-trips through canonicalize unchanged.
EdgeList canonicalize(const device::Context& ctx, const EdgeList& graph);

/// Removes self-loops and duplicate (parallel) edges. Sequential
/// convenience wrapper over canonicalize().
EdgeList simplified(const EdgeList& graph);

/// Basic statistics used by the Table 1 benchmark.
struct GraphStats {
  NodeId num_nodes = 0;
  std::size_t num_edges = 0;
  std::size_t num_bridges = 0;  // filled by callers that ran a bridge finder
  NodeId diameter_lower_bound = 0;
};

/// Sequential frontier BFS from `source`: fills `level` (resized to
/// num_nodes) with each node's hop distance, kNoNode where unreachable, and
/// returns the first node of the last frontier — a farthest node.
NodeId bfs_levels(const Csr& graph, NodeId source, std::vector<NodeId>& level);

/// Diameter lower bound by iterated double-BFS sweeps (the standard
/// technique experimental papers use to report "Diameter" for large graphs).
NodeId estimate_diameter(const Csr& graph, int sweeps = 4,
                         std::uint64_t seed = 1);

}  // namespace emc::graph
