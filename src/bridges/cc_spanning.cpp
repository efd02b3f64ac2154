#include "bridges/cc_spanning.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>

#include "device/arena.hpp"
#include "device/primitives.hpp"

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
  std::vector<NodeId>& label = forest.component;

  // Proposal slot per node; only roots receive proposals. Packed as
  // (target label << 32 | edge id) so atomic min prefers the smallest
  // target and then the smallest edge — fully deterministic output. Both
  // rounds-scoped arrays are arena scratch.
  constexpr std::uint64_t kNoProposal = std::numeric_limits<std::uint64_t>::max();
  device::Arena::Scope scope(ctx.arena());
  std::uint64_t* proposal = scope.get<std::uint64_t>(n);
  std::uint8_t* edge_used = scope.get<std::uint8_t>(m);
  device::fill(ctx, m, edge_used, std::uint8_t{0});

  const auto flatten = [&] {
    bool changed = true;
    while (changed) {
      std::atomic<int> any{0};
      // Pointer jumping: label[l] may be rewritten by a sibling thread in
      // the same launch. Relaxed atomics make the race defined; a stale
      // read only delays that node to the next round (the loop runs until
      // a full pass — barrier-separated from the previous one — changes
      // nothing).
      device::launch(ctx, n, [&](std::size_t v) {
        const NodeId l = std::atomic_ref(label[v]).load(std::memory_order_relaxed);
        const NodeId ll = std::atomic_ref(label[l]).load(std::memory_order_relaxed);
        if (ll != l) {
          std::atomic_ref(label[v]).store(ll, std::memory_order_relaxed);
          any.store(1, std::memory_order_relaxed);
        }
      });
      changed = any.load(std::memory_order_relaxed) != 0;
    }
  };

  bool hooked = true;
  while (hooked) {
    flatten();
    device::fill(ctx, n, proposal, kNoProposal);
    std::atomic<int> any_proposal{0};
    device::launch(ctx, m, [&](std::size_t e) {
      if (!keep.empty() && keep[e] == 0) return;
      const NodeId lu = label[graph.edges[e].u];
      const NodeId lv = label[graph.edges[e].v];
      if (lu == lv) return;
      const NodeId target = lu < lv ? lu : lv;   // hook towards smaller label
      const NodeId hooker = lu < lv ? lv : lu;
      const std::uint64_t packed =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(target))
           << 32) |
          static_cast<std::uint32_t>(e);
      device::atomic_min(&proposal[hooker], packed);
      any_proposal.store(1, std::memory_order_relaxed);
    });
    hooked = any_proposal.load(std::memory_order_relaxed) != 0;
    if (!hooked) break;
    device::launch(ctx, n, [&](std::size_t r) {
      const std::uint64_t p = proposal[r];
      if (p == kNoProposal) return;
      label[r] = static_cast<NodeId>(p >> 32);
      edge_used[static_cast<std::uint32_t>(p)] = 1;
    });
  }
  flatten();

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
