// Shared from-scratch reference implementations for differential testing.
//
// Every fuzz/differential suite checks a device pipeline against an
// independent sequential recompute. The references here — union-find
// connectivity, DFS-bridge-based 2ecc labels, BFS reachability, and the
// full oracle reference built from them — used to be duplicated across
// test_dynamic.cpp and test_fuzz.cpp; they live here once so all suites
// (and future ones) diff against the same ground truth. Nothing in this
// header shares code with the device pipelines it checks, except the
// sequential DFS bridge finder, which is itself a paper baseline.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bridges/dfs_bridges.hpp"
#include "core/euler_tour.hpp"
#include "device/context.hpp"
#include "graph/graph.hpp"
#include "util/types.hpp"

namespace emc::test_support {

/// Minimal sequential union-find (path halving, no ranks) — the
/// connectivity reference. Deliberately unrelated to device::uf_*.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t v = 0; v < n; ++v) parent_[v] = static_cast<NodeId>(v);
  }

  NodeId find(NodeId x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }

  bool unite(NodeId a, NodeId b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<NodeId> parent_;
};

/// Connected-component label per node (a representative node id) by
/// union-find over the edge list.
inline std::vector<NodeId> cc_labels(graph::EdgeSpan g) {
  UnionFind uf(static_cast<std::size_t>(g.num_nodes));
  for (const graph::Edge& e : g.edges) uf.unite(e.u, e.v);
  std::vector<NodeId> label(static_cast<std::size_t>(g.num_nodes));
  for (NodeId v = 0; v < g.num_nodes; ++v) label[v] = uf.find(v);
  return label;
}

/// 2-edge-connected-component label per node: union-find over the
/// non-bridge edges of `mask` (which must align with g.edges).
inline std::vector<NodeId> two_ecc_labels(graph::EdgeSpan g,
                                          const bridges::BridgeMask& mask) {
  UnionFind uf(static_cast<std::size_t>(g.num_nodes));
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    if (!mask[e]) uf.unite(g.edges[e].u, g.edges[e].v);
  }
  std::vector<NodeId> label(static_cast<std::size_t>(g.num_nodes));
  for (NodeId v = 0; v < g.num_nodes; ++v) label[v] = uf.find(v);
  return label;
}

/// The labels renamed by first appearance: two label arrays induce the same
/// partition iff their canonical forms are equal.
inline std::vector<NodeId> canonical_partition(
    const std::vector<NodeId>& labels) {
  std::vector<NodeId> first(labels.size(), kNoNode);
  std::vector<NodeId> out(labels.size());
  NodeId next = 0;
  for (std::size_t v = 0; v < labels.size(); ++v) {
    NodeId& name = first[static_cast<std::size_t>(labels[v])];
    if (name == kNoNode) name = next++;
    out[v] = name;
  }
  return out;
}

/// Whether two label arrays induce the same partition, strictly: a
/// bijection between their labels, with kNoNode matching only kNoNode.
/// Returns "" when they do, else where they first diverge — a plain
/// predicate (this header is built outside GoogleTest too), asserted at
/// each call site.
inline std::string partition_mismatch(const std::vector<NodeId>& got,
                                      const std::vector<NodeId>& want) {
  if (got.size() != want.size()) {
    return "sizes " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
  }
  std::unordered_map<NodeId, NodeId> fwd, rev;
  for (std::size_t v = 0; v < got.size(); ++v) {
    if (got[v] == kNoNode || want[v] == kNoNode) {
      if (got[v] != want[v]) return "kNoNode mismatch at " + std::to_string(v);
      continue;
    }
    const auto f = fwd.try_emplace(got[v], want[v]).first;
    const auto r = rev.try_emplace(want[v], got[v]).first;
    if (f->second != want[v]) return "split at " + std::to_string(v);
    if (r->second != got[v]) return "merge at " + std::to_string(v);
  }
  return {};
}

/// Subtree low/high on a rooted spanning tree of `g` by the sequential fold:
/// each node starts at its own preorder, takes its non-tree neighbours'
/// (`is_tree_edge` aligned with g.edges), and one reverse-preorder pass
/// folds every node into its parent. Indexed by node over tree's nodes.
struct LowHighFold {
  std::vector<NodeId> low;
  std::vector<NodeId> high;

  LowHighFold(graph::EdgeSpan g, const std::vector<std::uint8_t>& is_tree_edge,
              const core::TreeStats& tree)
      : low(tree.preorder), high(tree.preorder) {
    const std::vector<NodeId>& pre = tree.preorder;
    for (std::size_t e = 0; e < g.edges.size(); ++e) {
      if (is_tree_edge[e]) continue;
      const auto [u, v] = g.edges[e];
      low[u] = std::min(low[u], pre[v]);
      high[u] = std::max(high[u], pre[v]);
      low[v] = std::min(low[v], pre[u]);
      high[v] = std::max(high[v], pre[u]);
    }
    std::vector<NodeId> order(pre.size());
    for (std::size_t v = 0; v < pre.size(); ++v) {
      order[pre[v] - 1] = static_cast<NodeId>(v);
    }
    for (std::size_t p = pre.size(); p-- > 1;) {  // position 0 is the root
      const NodeId v = order[p];
      const NodeId up = tree.parent[v];
      low[up] = std::min(low[up], low[v]);
      high[up] = std::max(high[up], high[v]);
    }
  }
};

/// BFS levels from `source`; kNoNode for unreachable nodes — the
/// reachability/level reference for the device BFS and block-tree walks.
inline std::vector<NodeId> bfs_levels(const graph::Csr& csr, NodeId source) {
  std::vector<NodeId> dist(static_cast<std::size_t>(csr.num_nodes), kNoNode);
  std::queue<NodeId> queue;
  dist[source] = 0;
  queue.push(source);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop();
    for (EdgeId i = csr.row_offsets[u]; i < csr.row_offsets[u + 1]; ++i) {
      const NodeId v = csr.neighbors[i];
      if (dist[v] == kNoNode) {
        dist[v] = dist[u] + 1;
        queue.push(v);
      }
    }
  }
  return dist;
}

/// Sequential iterative Hopcroft–Tarjan vertex biconnectivity: per-edge
/// block labels, articulation mask, and per-vertex block membership. The
/// classical edge-stack DFS — deliberately nothing like the bulk
/// Tarjan-Vishkin pipeline in src/bcc it checks. Handles disconnected
/// inputs (fresh DFS per component), multigraphs (the parent skip is by
/// edge id, so a parallel edge counts as a back edge and glues its
/// endpoints into one block), and self-loops (excluded: they belong to no
/// block, mirroring bcc_edge_blocks' kNoNode for them).
struct ReferenceBcc {
  std::vector<NodeId> edge_block;            // kNoNode for self-loops
  std::vector<std::uint8_t> is_articulation; // member of >= 2 blocks
  std::vector<std::vector<NodeId>> vertex_blocks;  // sorted, unique
  std::size_t num_blocks = 0;

  explicit ReferenceBcc(graph::EdgeSpan g) {
    const auto n = static_cast<std::size_t>(g.num_nodes);
    const std::size_t m = g.edges.size();
    edge_block.assign(m, kNoNode);
    is_articulation.assign(n, 0);
    vertex_blocks.assign(n, {});
    std::vector<std::vector<std::pair<NodeId, EdgeId>>> adj(n);
    for (std::size_t e = 0; e < m; ++e) {
      const auto [u, v] = g.edges[e];
      if (u == v) continue;
      adj[u].push_back({v, static_cast<EdgeId>(e)});
      adj[v].push_back({u, static_cast<EdgeId>(e)});
    }

    struct Frame {
      NodeId v;
      EdgeId via;        // edge used to enter v (kNoEdge at a root)
      std::size_t next;  // cursor into adj[v]
      NodeId children;   // tree children seen so far
    };
    std::vector<NodeId> disc(n, kNoNode), low(n, 0);
    std::vector<EdgeId> estack;
    std::vector<Frame> stack;
    NodeId time = 0;
    for (NodeId root = 0; root < g.num_nodes; ++root) {
      if (disc[root] != kNoNode) continue;
      disc[root] = low[root] = time++;
      stack.push_back({root, kNoEdge, 0, 0});
      while (!stack.empty()) {
        Frame& f = stack.back();
        if (f.next < adj[f.v].size()) {
          const auto [w, e] = adj[f.v][f.next++];
          if (e == f.via) continue;  // the one entering edge, by id
          if (disc[w] == kNoNode) {
            estack.push_back(e);
            disc[w] = low[w] = time++;
            ++f.children;
            stack.push_back({w, e, 0, 0});
          } else if (disc[w] < disc[f.v]) {
            estack.push_back(e);  // back edge (its reverse view is skipped)
            low[f.v] = std::min(low[f.v], disc[w]);
          }
          continue;
        }
        const Frame done = f;
        stack.pop_back();
        if (stack.empty()) continue;  // component finished; estack is empty
        Frame& p = stack.back();
        low[p.v] = std::min(low[p.v], low[done.v]);
        if (low[done.v] >= disc[p.v]) {
          // done's subtree hangs off p through no back edge: flush one block.
          const auto b = static_cast<NodeId>(num_blocks++);
          EdgeId e = kNoEdge;
          do {
            e = estack.back();
            estack.pop_back();
            edge_block[e] = b;
          } while (e != done.via);
        }
      }
    }

    for (std::size_t e = 0; e < m; ++e) {
      if (edge_block[e] == kNoNode) continue;
      vertex_blocks[g.edges[e].u].push_back(edge_block[e]);
      vertex_blocks[g.edges[e].v].push_back(edge_block[e]);
    }
    for (std::size_t v = 0; v < n; ++v) {
      auto& blocks = vertex_blocks[v];
      std::sort(blocks.begin(), blocks.end());
      blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
      is_articulation[v] = blocks.size() >= 2 ? 1 : 0;
    }
  }

  /// Do u and v share a biconnected block? (u == v counts as yes, the
  /// same convention BccIndex::same_bcc uses.)
  bool same_bcc(NodeId u, NodeId v) const {
    if (u == v) return true;
    const auto& a = vertex_blocks[u];
    const auto& b = vertex_blocks[v];
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] == b[j]) return true;
      a[i] < b[j] ? ++i : ++j;
    }
    return false;
  }
};

/// From-scratch recompute reference for every ConnectivityOracle query:
/// DFS bridges, union-find cc/2ecc labels, and BFS distances over the
/// contracted block graph. Shares no code with the oracle's device
/// pipeline.
struct ReferenceOracle {
  std::vector<NodeId> cc;         // connected component label
  std::vector<NodeId> comp;       // 2ecc label
  std::vector<NodeId> comp_size;  // per node: size of its 2ecc component
  std::vector<std::vector<NodeId>> block_adj;  // bridge adjacency over comps
  std::size_t num_bridges = 0;

  ReferenceOracle(const device::Context& ctx, graph::EdgeSpan g) {
    const auto n = static_cast<std::size_t>(g.num_nodes);
    const graph::Csr csr = graph::build_csr(ctx, g);
    const bridges::BridgeMask mask = bridges::find_bridges_dfs(csr);
    num_bridges = bridges::count_bridges(mask);
    cc = cc_labels(g);
    comp = two_ecc_labels(g, mask);
    comp_size.assign(n, 0);
    std::vector<NodeId> count(n, 0);
    for (std::size_t v = 0; v < n; ++v) ++count[comp[v]];
    for (std::size_t v = 0; v < n; ++v) comp_size[v] = count[comp[v]];
    block_adj.assign(n, {});
    for (std::size_t e = 0; e < g.edges.size(); ++e) {
      if (mask[e]) {
        block_adj[comp[g.edges[e].u]].push_back(comp[g.edges[e].v]);
        block_adj[comp[g.edges[e].v]].push_back(comp[g.edges[e].u]);
      }
    }
  }

  NodeId bridges_on_path(NodeId u, NodeId v) const {
    if (cc[u] != cc[v]) return kNoNode;
    if (comp[u] == comp[v]) return 0;
    std::vector<NodeId> dist(block_adj.size(), kNoNode);
    std::queue<NodeId> queue;
    dist[comp[u]] = 0;
    queue.push(comp[u]);
    while (!queue.empty()) {
      const NodeId b = queue.front();
      queue.pop();
      if (b == comp[v]) return dist[b];
      for (const NodeId next : block_adj[b]) {
        if (dist[next] == kNoNode) {
          dist[next] = dist[b] + 1;
          queue.push(next);
        }
      }
    }
    return kNoNode;  // unreachable: same cc implies a block path exists
  }
};

}  // namespace emc::test_support
