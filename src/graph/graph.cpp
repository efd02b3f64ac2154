#include "graph/graph.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "device/primitives.hpp"
#include "device/sort.hpp"
#include "util/rng.hpp"

namespace emc::graph {

bool EdgeList::valid() const {
  for (const Edge& e : edges) {
    if (e.u < 0 || e.u >= num_nodes || e.v < 0 || e.v >= num_nodes) return false;
    if (e.u == e.v) return false;
  }
  return true;
}

Csr build_csr(const device::Context& ctx, EdgeSpan graph) {
  const NodeId n = graph.num_nodes;
  const std::size_t m = graph.edges.size();
  Csr csr;
  csr.num_nodes = n;
  csr.row_offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  csr.neighbors.resize(2 * m);
  csr.edge_ids.resize(2 * m);

  // Degree counting with device-style atomics, then a scan, then scatter.
  std::vector<EdgeId> degree(static_cast<std::size_t>(n), 0);
  device::launch(ctx, m, [&](std::size_t e) {
    std::atomic_ref<EdgeId>(degree[graph.edges[e].u])
        .fetch_add(1, std::memory_order_relaxed);
    std::atomic_ref<EdgeId>(degree[graph.edges[e].v])
        .fetch_add(1, std::memory_order_relaxed);
  });
  device::exclusive_scan(ctx, degree.data(), static_cast<std::size_t>(n),
                         csr.row_offsets.data());
  csr.row_offsets[static_cast<std::size_t>(n)] = static_cast<EdgeId>(2 * m);

  std::vector<EdgeId> cursor(csr.row_offsets.begin(),
                             csr.row_offsets.end() - 1);
  device::launch(ctx, m, [&](std::size_t e) {
    const Edge edge = graph.edges[e];
    const EdgeId slot_u = std::atomic_ref<EdgeId>(cursor[edge.u])
                              .fetch_add(1, std::memory_order_relaxed);
    csr.neighbors[slot_u] = edge.v;
    csr.edge_ids[slot_u] = static_cast<EdgeId>(e);
    const EdgeId slot_v = std::atomic_ref<EdgeId>(cursor[edge.v])
                              .fetch_add(1, std::memory_order_relaxed);
    csr.neighbors[slot_v] = edge.u;
    csr.edge_ids[slot_v] = static_cast<EdgeId>(e);
  });
  return csr;
}

namespace {

/// splitmix64 step as a pure finalizer: the cheap mixer both sides of
/// csr_matches() feed their (edge id, canonical endpoints) incidences
/// through before summing.
std::uint64_t mix64(std::uint64_t x) { return util::splitmix64(x); }

}  // namespace

bool csr_matches(EdgeSpan graph, const Csr& csr) {
  const std::size_t m = graph.edges.size();
  if (graph.num_nodes != csr.num_nodes || m != csr.num_edges()) return false;
  if (csr.row_offsets.size() != static_cast<std::size_t>(csr.num_nodes) + 1) {
    return false;
  }
  // Each undirected edge e = {u, v} appears in the CSR as two half-edges
  // carrying the same (edge id, endpoints) triple, so summing the mixed
  // triples over the edge list twice and over every CSR slot once must
  // agree. Summation makes both sides insensitive to adjacency order.
  // The edge id is mixed before combining: a raw (key ^ id) fold would let
  // structured inputs collide deterministically (edge {0,2} at id 0 and
  // edge {0,6} at id 2 fold to the same value), reducing the check to far
  // less than its nominal 64 bits on exactly the regular graphs it guards.
  std::uint64_t list_hash = 0;
  for (std::size_t e = 0; e < m; ++e) {
    const Edge edge = graph.edges[e];
    list_hash += 2 * mix64(edge_key(edge.u, edge.v) ^ mix64(e));
  }
  std::uint64_t csr_hash = 0;
  for (NodeId v = 0; v < csr.num_nodes; ++v) {
    for (EdgeId s = csr.row_offsets[v]; s < csr.row_offsets[v + 1]; ++s) {
      csr_hash += mix64(edge_key(v, csr.neighbors[s]) ^
                        mix64(csr.edge_ids[s]));
    }
  }
  return list_hash == csr_hash;
}

namespace {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), NodeId{0});
  }

  NodeId find(NodeId x) {
    NodeId root = x;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[x] != root) x = std::exchange(parent_[x], root);
    return root;
  }

  bool unite(NodeId a, NodeId b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (a > b) std::swap(a, b);  // smaller id becomes the root
    parent_[b] = a;
    return true;
  }

 private:
  std::vector<NodeId> parent_;
};

}  // namespace

std::vector<NodeId> connected_component_labels(EdgeSpan graph) {
  UnionFind uf(static_cast<std::size_t>(graph.num_nodes));
  for (const Edge& e : graph.edges) uf.unite(e.u, e.v);
  std::vector<NodeId> labels(static_cast<std::size_t>(graph.num_nodes));
  for (NodeId v = 0; v < graph.num_nodes; ++v) labels[v] = uf.find(v);
  return labels;
}

std::size_t count_components(const std::vector<NodeId>& labels) {
  std::size_t count = 0;
  for (std::size_t v = 0; v < labels.size(); ++v) {
    if (labels[v] == static_cast<NodeId>(v)) ++count;
  }
  return count;
}

EdgeList largest_component(const EdgeList& graph) {
  const auto labels = connected_component_labels(graph);
  std::vector<std::size_t> size(static_cast<std::size_t>(graph.num_nodes), 0);
  for (NodeId v = 0; v < graph.num_nodes; ++v) ++size[labels[v]];
  NodeId best = 0;
  for (NodeId v = 0; v < graph.num_nodes; ++v) {
    if (size[labels[v]] > size[labels[best]]) best = v;
  }
  const NodeId keep = labels[best];

  std::vector<NodeId> remap(static_cast<std::size_t>(graph.num_nodes), kNoNode);
  NodeId next_id = 0;
  for (NodeId v = 0; v < graph.num_nodes; ++v) {
    if (labels[v] == keep) remap[v] = next_id++;
  }
  EdgeList out;
  out.num_nodes = next_id;
  out.edges.reserve(graph.edges.size());
  for (const Edge& e : graph.edges) {
    if (labels[e.u] == keep) out.edges.push_back({remap[e.u], remap[e.v]});
  }
  return out;
}

std::vector<std::uint64_t> canonical_keys(const device::Context& ctx,
                                          EdgeSpan graph) {
  const std::size_t m = graph.edges.size();
  if (m == 0) return {};
  // Self-loops and out-of-range endpoints map to a sentinel that sorts past
  // every real key, so one sort groups rejects at the back and duplicates
  // (in either orientation) adjacently; compaction keeps each run's first.
  constexpr std::uint64_t kDropped = ~std::uint64_t{0};
  std::vector<std::uint64_t> keys(m);
  device::transform(ctx, m, keys.data(), [&](std::size_t e) {
    const Edge edge = graph.edges[e];
    if (!edge_valid(edge.u, edge.v, graph.num_nodes)) return kDropped;
    return edge_key(edge.u, edge.v);
  });
  // The radix sort's 8 digit passes (the sentinel spans every digit) cost
  // 9 launches whatever m is. Below the crossover the calling thread sorts,
  // by costs measured on 4 workers, in ns: a host key 50 (std::sort up to
  // ~32k keys), a launch 5k plus its modelled latency.
  if (50.0 * m < 9 * (5e3 + 1e9 * ctx.launch_overhead())) {
    std::sort(keys.begin(), keys.end());
  } else {
    device::sort_keys(ctx, keys.data(), m);
  }
  std::vector<std::uint64_t> unique(m);
  unique.resize(device::copy_if(
      ctx, keys.data(), m,
      [&](std::size_t i) {
        return keys[i] != kDropped && (i == 0 || keys[i] != keys[i - 1]);
      },
      unique.data()));
  return unique;
}

EdgeList canonicalize(const device::Context& ctx, const EdgeList& graph) {
  const std::vector<std::uint64_t> keys = canonical_keys(ctx, graph);
  EdgeList out;
  out.num_nodes = graph.num_nodes;
  out.edges.resize(keys.size());
  device::transform(ctx, keys.size(), out.edges.data(),
                    [&](std::size_t i) { return edge_of_key(keys[i]); });
  return out;
}

EdgeList simplified(const EdgeList& graph) {
  return canonicalize(device::Context::sequential(), graph);
}

NodeId bfs_levels(const Csr& graph, NodeId source,
                  std::vector<NodeId>& level) {
  level.assign(static_cast<std::size_t>(graph.num_nodes), kNoNode);
  level[source] = 0;
  std::vector<NodeId> frontier{source};
  std::vector<NodeId> next;
  NodeId last = source;
  for (NodeId depth = 1; !frontier.empty(); ++depth) {
    last = frontier.front();
    next.clear();
    for (const NodeId u : frontier) {
      for (EdgeId i = graph.row_offsets[u]; i < graph.row_offsets[u + 1]; ++i) {
        const NodeId v = graph.neighbors[i];
        if (level[v] == kNoNode) {
          level[v] = depth;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
  }
  return last;
}

NodeId estimate_diameter(const Csr& graph, int sweeps, std::uint64_t seed) {
  // The start is the r-th node with an edge, r uniform: a sweep from an
  // isolated node reaches nothing. With no node isolated, this is a
  // uniform draw over all nodes.
  std::uint64_t touched = 0;
  for (NodeId v = 0; v < graph.num_nodes; ++v) touched += graph.degree(v) != 0;
  if (touched == 0) return 0;
  util::Rng rng(seed);
  std::uint64_t r = rng.below(touched);
  NodeId start = 0;
  while (graph.degree(start) == 0 || r-- != 0) ++start;
  std::vector<NodeId> dist;
  NodeId best = 0;
  for (int s = 0; s < sweeps; ++s) {
    // Double-sweep: restart from the farthest node found.
    start = bfs_levels(graph, start, dist);
    best = std::max(best, dist[start]);
  }
  return best;
}

}  // namespace emc::graph
