#include "bridges/cc_spanning.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <utility>

#include "core/tour_splice.hpp"
#include "core/tree_ops.hpp"
#include "device/arena.hpp"
#include "device/primitives.hpp"
#include "device/union_find.hpp"

namespace emc::bridges {

SpanningForest cc_spanning_forest(const device::Context& ctx,
                                  graph::EdgeSpan graph,
                                  std::span<const std::uint8_t> keep,
                                  util::PhaseTimer* phases) {
  util::ScopedPhase phase(phases, "spanning_tree");
  const auto n = static_cast<std::size_t>(graph.num_nodes);
  const std::size_t m = graph.edges.size();
  assert(keep.empty() || keep.size() == m);

  SpanningForest forest;
  forest.component.resize(n);
  device::iota(ctx, n, forest.component.data());
  NodeId* label = forest.component.data();

  // Proposal slot per node; only roots receive proposals. Packed as
  // (target label << 32 | edge id) so atomic min prefers the smallest
  // target and then the smallest edge — fully deterministic output. All
  // round-scoped arrays are arena scratch.
  constexpr std::uint64_t kNoProposal = std::numeric_limits<std::uint64_t>::max();
  device::Arena::Scope scope(ctx.arena());
  std::uint64_t* proposal = scope.get<std::uint64_t>(n);
  std::uint8_t* edge_used = scope.get<std::uint8_t>(m);
  device::fill(ctx, m, edge_used, std::uint8_t{0});

  // Called only on edges whose endpoint labels (roots, after a flatten)
  // differ: hook the larger root towards the smaller.
  const auto propose = [&](EdgeId e, NodeId lu, NodeId lv) {
    const NodeId target = lu < lv ? lu : lv;
    const NodeId hooker = lu < lv ? lv : lu;
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(target)) << 32) |
        static_cast<std::uint32_t>(e);
    device::atomic_min(&proposal[hooker], packed);
  };
  // Winning proposals hook, then one find-with-halving launch flattens:
  // hooks only point a root at a smaller label, so the chains are acyclic
  // and every label ends at its root.
  const auto hook_and_flatten = [&] {
    device::launch(ctx, n, [&](std::size_t r) {
      const std::uint64_t p = proposal[r];
      if (p == kNoProposal) return;
      label[r] = static_cast<NodeId>(p >> 32);
      edge_used[static_cast<std::uint32_t>(p)] = 1;
    });
    device::uf_flatten(ctx, label, n);
  };

  // Round 1 scans every kept edge. Every node is still its own label, so
  // the endpoints are the labels.
  device::fill(ctx, n, proposal, kNoProposal);
  std::atomic<int> any_proposal{0};
  device::launch(ctx, m, [&](std::size_t e) {
    if (!keep.empty() && keep[e] == 0) return;
    const graph::Edge edge = graph.edges[e];
    if (edge.u == edge.v) return;
    propose(static_cast<EdgeId>(e), edge.u, edge.v);
    // Load first: a store per edge would bounce the flag's cache line
    // between workers on every proposal.
    if (any_proposal.load(std::memory_order_relaxed) == 0) {
      any_proposal.store(1, std::memory_order_relaxed);
    }
  });

  // Later rounds run over the edges that still cross components: each
  // round compacts the previous round's crossing list (all kept edges for
  // round 2) to those whose labels still differ and proposes from it in
  // the same kernel. Labels only merge, so an edge that stops crossing
  // never crosses again and the proposals match a full rescan's.
  if (any_proposal.load(std::memory_order_relaxed) != 0) {
    hook_and_flatten();
    EdgeId* crossing = scope.get<EdgeId>(m);
    device::fill(ctx, n, proposal, kNoProposal);
    std::size_t count = device::compact(
        ctx, m,
        [&](std::size_t e) {
          return (keep.empty() || keep[e] != 0) &&
                 label[graph.edges[e].u] != label[graph.edges[e].v];
        },
        [&](std::size_t slot, std::size_t e) {
          crossing[slot] = static_cast<EdgeId>(e);
          propose(static_cast<EdgeId>(e), label[graph.edges[e].u],
                  label[graph.edges[e].v]);
        });
    EdgeId* next = scope.get<EdgeId>(count);
    while (count != 0) {
      hook_and_flatten();
      device::fill(ctx, n, proposal, kNoProposal);
      count = device::compact(
          ctx, count,
          [&](std::size_t j) {
            const graph::Edge edge = graph.edges[crossing[j]];
            return label[edge.u] != label[edge.v];
          },
          [&](std::size_t slot, std::size_t j) {
            const EdgeId e = crossing[j];
            next[slot] = e;
            propose(e, label[graph.edges[e].u], label[graph.edges[e].v]);
          });
      std::swap(crossing, next);
    }
  }

  forest.tree_edges.resize(std::min(m, n));
  const std::size_t k = device::copy_if_index(
      ctx, m, [&](std::size_t e) { return edge_used[e] != 0; },
      forest.tree_edges.data());
  forest.tree_edges.resize(k);

  forest.num_components = static_cast<std::size_t>(device::reduce(
      ctx, n, NodeId{0},
      [&](std::size_t v) {
        return static_cast<NodeId>(label[v] == static_cast<NodeId>(v) ? 1 : 0);
      },
      [](NodeId a, NodeId b) { return a + b; }));
  return forest;
}

std::vector<NodeId> component_representatives(const device::Context& ctx,
                                              const SpanningForest& forest) {
  const std::size_t n = forest.component.size();
  std::vector<NodeId> reps(n);
  const std::size_t k = device::copy_if_index(
      ctx, n,
      [&](std::size_t v) {
        return forest.component[v] == static_cast<NodeId>(v);
      },
      reps.data());
  assert(k == forest.num_components);
  reps.resize(k);
  return reps;
}

graph::EdgeList virtual_root_tree(const device::Context& ctx,
                                  graph::EdgeSpan graph,
                                  const SpanningForest& forest) {
  const NodeId virtual_root = graph.num_nodes;
  const std::size_t t = forest.tree_edges.size();
  const std::vector<NodeId> reps = component_representatives(ctx, forest);
  graph::EdgeList tree;
  tree.num_nodes = virtual_root + 1;
  tree.edges.resize(t + reps.size());
  device::transform(ctx, t, tree.edges.data(), [&](std::size_t k) {
    return graph.edges[forest.tree_edges[k]];
  });
  device::transform(ctx, reps.size(), tree.edges.data() + t,
                    [&](std::size_t r) {
                      return graph::Edge{virtual_root, reps[r]};
                    });
  return tree;
}

core::TreeStats root_forest(const device::Context& ctx, graph::EdgeSpan graph,
                            const SpanningForest& forest) {
  const core::EulerTour tour = core::build_euler_tour(
      ctx, virtual_root_tree(ctx, graph, forest), graph.num_nodes);
  return core::compute_tree_stats(ctx, tour);
}

std::shared_ptr<const lca::InlabelLca> forest_lca(
    const device::Context& ctx, graph::EdgeSpan graph,
    const SpanningForest& forest) {
  return std::make_shared<const lca::InlabelLca>(
      ctx, root_forest(ctx, graph, forest), graph.num_nodes);
}

ForestWithLca splice_forest(const device::Context& ctx, graph::EdgeSpan before,
                            graph::EdgeSpan graph,
                            const SpanningForest& forest,
                            const lca::InlabelLca& lca,
                            std::span<const EdgeId> erased,
                            std::span<const EdgeId> linked) {
  const NodeId n = graph.num_nodes;
  const core::TreeStats& tree = lca.tree();
  assert(graph.num_edges() + erased.size() >= before.num_edges());

  // The cuts: the erased tree edges, named by their child end (the graph is
  // simple, so an erased edge is a tree edge iff one end is the other's
  // parent), then the representative of every component a link touches,
  // cut at its virtual parent edge. Only the links join a linked
  // component's pieces to other pieces, so none of them reaches piece 0.
  std::vector<NodeId> cuts;
  for (const EdgeId e : erased) {
    const graph::Edge edge = before.edges[e];
    if (tree.parent[edge.u] == edge.v) {
      cuts.push_back(edge.u);
    } else if (tree.parent[edge.v] == edge.u) {
      cuts.push_back(edge.v);
    }
  }
  const std::size_t tree_cuts = cuts.size();
  std::vector<NodeId> reps;
  for (const EdgeId e : linked) {
    reps.push_back(forest.component[graph.edges[e].u]);
    reps.push_back(forest.component[graph.edges[e].v]);
  }
  std::sort(reps.begin(), reps.end());
  reps.erase(std::unique(reps.begin(), reps.end()), reps.end());
  cuts.insert(cuts.end(), reps.begin(), reps.end());

  auto next = std::make_shared<SpanningForest>();
  next->component.resize(static_cast<std::size_t>(n));
  std::vector<EdgeId> joins;  // the replacements and the links, in BFS order
  std::size_t groups = 0;
  core::TreeStats spliced_tree = core::splice_tree(
      ctx, tree, n, cuts, [&](const core::TourPieces& pieces) {
        const std::size_t num_pieces = pieces.heads.size() + 1;
        const NodeId* piece = pieces.piece.data();
        // The surviving edges between pieces (a surviving tree edge never
        // is one), contracted to piece ids.
        device::Arena::Scope scope(ctx.arena());
        const std::size_t m = graph.num_edges();
        EdgeId* crossing = scope.get<EdgeId>(m);
        const std::size_t c = device::copy_if_index(
            ctx, m,
            [&](std::size_t e) {
              return piece[graph.edges[e].u] != piece[graph.edges[e].v];
            },
            crossing);
        graph::EdgeList contracted;
        contracted.num_nodes = static_cast<NodeId>(num_pieces);
        contracted.edges.resize(c);
        device::transform(ctx, c, contracted.edges.data(), [&](std::size_t i) {
          const graph::Edge edge = graph.edges[crossing[i]];
          return graph::Edge{piece[edge.u], piece[edge.v]};
        });
        const SpanningForest joined = cc_spanning_forest(ctx, contracted);

        // Orient the piece forest: the group holding piece 0 (every old
        // root) hangs each piece below the piece it was reached from; any
        // other group is a component of the new forest (split off by the
        // cuts, or joined by the links), rooted at its smallest node, which
        // hangs below the virtual root n.
        std::vector<std::size_t> offset(num_pieces + 1, 0);
        for (const EdgeId k : joined.tree_edges) {
          ++offset[static_cast<std::size_t>(contracted.edges[k].u) + 1];
          ++offset[static_cast<std::size_t>(contracted.edges[k].v) + 1];
        }
        for (std::size_t p = 0; p < num_pieces; ++p) offset[p + 1] += offset[p];
        std::vector<EdgeId> adjacent(offset[num_pieces]);
        {
          std::vector<std::size_t> fill(offset.begin(), offset.end() - 1);
          for (const EdgeId k : joined.tree_edges) {
            adjacent[fill[contracted.edges[k].u]++] = k;
            adjacent[fill[contracted.edges[k].v]++] = k;
          }
        }
        std::vector<std::size_t> root_of(num_pieces, 0);  // per group label
        for (std::size_t p = 0; p < num_pieces; ++p) {
          const auto g = static_cast<std::size_t>(joined.component[p]);
          if (g == p || pieces.smallest[p] < pieces.smallest[root_of[g]]) {
            root_of[g] = p;
          }
        }
        root_of[0] = 0;
        std::vector<core::TourLink> links(num_pieces - 1);
        std::vector<NodeId> relabel(num_pieces, kNoNode);
        std::vector<std::uint8_t> seen(num_pieces, 0);
        std::vector<std::size_t> queue;
        for (std::size_t g = 0; g < num_pieces; ++g) {
          if (static_cast<std::size_t>(joined.component[g]) != g) continue;
          const std::size_t root = root_of[g];
          const NodeId label = g == 0 ? kNoNode : pieces.smallest[root];
          if (g != 0) {
            links[root - 1] = {label, n};
            ++groups;
          }
          queue.assign(1, root);
          seen[root] = 1;
          for (std::size_t head = 0; head < queue.size(); ++head) {
            const std::size_t q = queue[head];
            relabel[q] = label;
            for (std::size_t i = offset[q]; i < offset[q + 1]; ++i) {
              const graph::Edge edge = graph.edges[crossing[adjacent[i]]];
              const bool u_here =
                  static_cast<std::size_t>(piece[edge.u]) == q;
              const NodeId far = u_here ? edge.v : edge.u;
              const auto p = static_cast<std::size_t>(piece[far]);
              if (seen[p] != 0) continue;
              seen[p] = 1;
              links[p - 1] = {far, u_here ? edge.u : edge.v};
              joins.push_back(crossing[adjacent[i]]);
              queue.push_back(p);
            }
          }
        }

        // A new component's nodes take its label; every other node keeps
        // its old one.
        device::transform(ctx, static_cast<std::size_t>(n),
                          next->component.data(), [&](std::size_t v) {
                            const NodeId label = relabel[piece[v]];
                            return label == kNoNode ? forest.component[v]
                                                    : label;
                          });
        return links;
      });

  // The tree edges: the surviving old ones renumbered past the erased
  // positions below them, then the joins. The count's scratch is released
  // before the inlabel build below takes its own.
  const std::size_t kept = forest.tree_edges.size() - tree_cuts;
  next->tree_edges.resize(kept + joins.size());
  {
    device::Arena::Scope scope(ctx.arena());
    const core::PreorderWeights gone(
        ctx, scope, before.num_edges() + 1, erased.size(),
        2 * forest.tree_edges.size(),
        [&](std::size_t i, auto&& add) { add(erased[i], 1); });
    const std::size_t survivors = device::compact(
        ctx, forest.tree_edges.size(),
        [&](std::size_t k) {
          const EdgeId e = forest.tree_edges[k];
          return gone.below(e + 1) == gone.below(e);
        },
        [&](std::size_t slot, std::size_t k) {
          const EdgeId e = forest.tree_edges[k];
          next->tree_edges[slot] = e - gone.below(e);
        });
    assert(survivors == kept);
    (void)survivors;
  }
  std::copy(joins.begin(), joins.end(),
            next->tree_edges.begin() + static_cast<std::ptrdiff_t>(kept));
  next->num_components = forest.num_components - reps.size() + groups;

  auto spliced = std::make_shared<const lca::InlabelLca>(
      ctx, std::move(spliced_tree), n);
  return {std::move(next), std::move(spliced)};
}

}  // namespace emc::bridges
