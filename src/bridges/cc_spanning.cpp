#include "bridges/cc_spanning.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <utility>

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

}  // namespace emc::bridges
