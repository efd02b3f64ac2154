#include "core/euler_tour.hpp"

#include <cassert>

#include "device/primitives.hpp"
#include "device/sort.hpp"
#include "listrank/listrank.hpp"

namespace emc::core {

EulerTour build_euler_tour(const device::Context& ctx,
                           const graph::EdgeList& edges, NodeId root,
                           RankAlgo rank_algo, util::PhaseTimer* phases) {
  const NodeId n = edges.num_nodes;
  assert(n >= 1);
  assert(edges.edges.size() + 1 == static_cast<std::size_t>(n));
  assert(root >= 0 && root < n);

  EulerTour tour;
  tour.num_nodes = n;
  tour.root = root;
  const std::size_t h = 2 * edges.edges.size();  // number of half-edges
  tour.edge_src.resize(h);
  tour.edge_dst.resize(h);
  tour.succ.resize(h);
  tour.rank.resize(h);
  tour.tour.resize(h);
  if (h == 0) return tour;  // single-node tree: empty tour

  device::Arena::Scope scope(ctx.arena());

  // --- DCEL construction (§2.1). Array A: both directions of edge k stored
  // at 2k and 2k+1, so twin is the implicit e ^ 1. One fused kernel also
  // emits the source sort keys and seeds the id payload, so each input edge
  // is read exactly once before the sort.
  std::uint32_t* keys = scope.get<std::uint32_t>(h);
  EdgeId* order = scope.get<EdgeId>(h);
  {
    util::ScopedPhase phase(phases, "dcel_expand");
    device::launch(ctx, edges.edges.size(), [&](std::size_t k) {
      const graph::Edge e = edges.edges[k];
      tour.edge_src[2 * k] = e.u;
      tour.edge_dst[2 * k] = e.v;
      tour.edge_src[2 * k + 1] = e.v;
      tour.edge_dst[2 * k + 1] = e.u;
      keys[2 * k] = static_cast<std::uint32_t>(e.u);
      keys[2 * k + 1] = static_cast<std::uint32_t>(e.v);
      order[2 * k] = static_cast<EdgeId>(2 * k);
      order[2 * k + 1] = static_cast<EdgeId>(2 * k + 1);
    });
  }

  // Array B: half-edge ids grouped by source. `order` plays the role of B;
  // the sort is "the costly sorting" the paper notes cannot generally be
  // avoided. Any order of the half-edges leaving a node gives a valid tour,
  // so the key is the source alone (ceil(log2 n) bits, half the radix
  // passes of a (src, dst) key); the radix sort is stable, so each node's
  // half-edges stay in id order and the tour is deterministic.
  {
    util::ScopedPhase phase(phases, "dcel_sort");
    device::sort_pairs(ctx, keys, order, h);
  }

  // first_pos[x]: position in B of the first half-edge leaving x.
  EdgeId* first_pos = scope.get<EdgeId>(static_cast<std::size_t>(n));
  {
    util::ScopedPhase phase(phases, "dcel_next");
    device::launch(ctx, h, [&](std::size_t i) {
      const NodeId src = tour.edge_src[order[i]];
      if (i == 0 || tour.edge_src[order[i - 1]] != src) {
        first_pos[src] = static_cast<EdgeId>(i);
      }
    });
  }

  // --- Tour linking, one fused kernel. For position i with e = order[i],
  // next(e) = the successor of e among half-edges leaving src(e) (cyclic,
  // wrapping to first_pos[src]), and the tour list is succ(e) = next(twin(e))
  // (§2.1) — so write next(e) directly into succ[twin(e)]. The list head is
  // the first half-edge leaving the root in B order, available as
  // order[first_pos[root]] without any scan; the unique predecessor of the
  // head is the tail, cut in the same kernel instead of a separate pass.
  {
    util::ScopedPhase phase(phases, "tour_link");
    const EdgeId head = order[first_pos[root]];
    tour.head = head;
    device::launch(ctx, h, [&](std::size_t i) {
      const EdgeId e = order[i];
      const NodeId src = tour.edge_src[e];
      EdgeId next_e;
      if (i + 1 < h && tour.edge_src[order[i + 1]] == src) {
        next_e = order[i + 1];
      } else {
        next_e = order[first_pos[src]];  // wrap to the first edge at src
      }
      tour.succ[e ^ 1] = next_e == head ? kNoEdge : next_e;
    });
  }

  // --- The single list ranking (§2.2), then the array form.
  {
    util::ScopedPhase phase(phases, "list_ranking");
    switch (rank_algo) {
      case RankAlgo::kWeiJaja:
        listrank::rank_wei_jaja(ctx, tour.succ, tour.head, tour.rank);
        break;
      case RankAlgo::kWyllie:
        listrank::rank_wyllie(ctx, tour.succ, tour.head, tour.rank);
        break;
      case RankAlgo::kSequential:
        listrank::rank_sequential(tour.succ, tour.head, tour.rank);
        break;
    }
  }
  {
    util::ScopedPhase phase(phases, "tour_array");
    device::launch(ctx, h, [&](std::size_t e) {
      tour.tour[tour.rank[e]] = static_cast<EdgeId>(e);
    });
  }
  return tour;
}

TreeStats compute_tree_stats(const device::Context& ctx, const EulerTour& tour,
                             util::PhaseTimer* phases) {
  const NodeId n = tour.num_nodes;
  const std::size_t h = tour.num_half_edges();
  TreeStats stats;
  stats.preorder.assign(static_cast<std::size_t>(n), 0);
  stats.subtree_size.assign(static_cast<std::size_t>(n), 0);
  stats.level.assign(static_cast<std::size_t>(n), 0);
  stats.parent.assign(static_cast<std::size_t>(n), kNoNode);
  stats.preorder[tour.root] = 1;
  stats.subtree_size[tour.root] = n;
  stats.level[tour.root] = 0;
  if (h == 0) return stats;

  util::ScopedPhase phase(phases, "tree_stats");

  // Weight +1 for down edges; preorder is their prefix count, one scan over
  // the *array* form — this is exactly the §2.2 optimization. The level
  // (down steps +1, up steps -1) needs no scan of its own: after position r
  // it is down_prefix[r] - (r + 1 - down_prefix[r]).
  device::Arena::Scope scope(ctx.arena());
  NodeId* down_prefix = scope.get<NodeId>(h);
  device::launch(ctx, h, [&](std::size_t r) {
    down_prefix[r] = tour.goes_down(tour.tour[r]) ? 1 : 0;
  });
  device::inclusive_scan(ctx, down_prefix, h, down_prefix);

  device::launch(ctx, h, [&](std::size_t r) {
    const EdgeId e = tour.tour[r];
    if (!tour.goes_down(e)) return;
    const NodeId child = tour.edge_dst[e];
    stats.preorder[child] = down_prefix[r] + 1;  // 1-based; root is 1
    stats.level[child] = 2 * down_prefix[r] - static_cast<NodeId>(r + 1);
    stats.parent[child] = tour.edge_src[e];
    // Subtree spans [rank(e), rank(twin(e))]: that interval holds both
    // directions of every edge internal to the subtree plus this enter/exit
    // pair, so its length is 2*size - 1 + 1, hence size = (len + 1) / 2.
    const EdgeId up_rank = tour.rank[tour.twin(e)];
    stats.subtree_size[child] =
        (up_rank - static_cast<EdgeId>(r) + 1) / 2;
  });
  return stats;
}

void root_tree(const device::Context& ctx, const graph::EdgeList& edges,
               NodeId root, std::vector<NodeId>& parent,
               std::vector<NodeId>& level, util::PhaseTimer* phases) {
  const EulerTour tour = build_euler_tour(ctx, edges, root,
                                          RankAlgo::kWeiJaja, phases);
  TreeStats stats = compute_tree_stats(ctx, tour, phases);
  parent = std::move(stats.parent);
  level = std::move(stats.level);
}

}  // namespace emc::core
