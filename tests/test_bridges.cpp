#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bridges/bfs.hpp"
#include "bridges/cc_spanning.hpp"
#include "bridges/chaitanya_kothapalli.hpp"
#include "bridges/dfs_bridges.hpp"
#include "bridges/hybrid.hpp"
#include "bridges/tarjan_vishkin.hpp"
#include "device/context.hpp"
#include "gen/graphs.hpp"
#include "graph/graph.hpp"
#include "support/block_labels.hpp"
#include "support/reference.hpp"
#include "util/rng.hpp"

namespace emc::bridges {
namespace {

graph::EdgeList prepared(graph::EdgeList raw) {
  return graph::largest_component(graph::simplified(raw));
}

/// The 2-ecc index's block labels under `mask`, checked for partition
/// equality with the sequential reference before the caller's own checks.
std::vector<NodeId> two_ecc(const device::Context& ctx,
                            const graph::EdgeList& g, const BridgeMask& mask) {
  std::vector<NodeId> labels = test_support::oracle_block_labels(ctx, g, mask);
  EXPECT_EQ(test_support::canonical_partition(labels),
            test_support::canonical_partition(
                test_support::two_ecc_labels(g, mask)));
  return labels;
}

/// Asserts that all three parallel algorithms agree with the DFS baseline.
void expect_all_agree(const device::Context& ctx, const graph::EdgeList& g,
                      const char* label) {
  ASSERT_GE(g.num_nodes, 1) << label;
  const graph::Csr csr = build_csr(ctx, g);
  const BridgeMask dfs = find_bridges_dfs(csr);
  const BridgeMask tv = find_bridges_tarjan_vishkin(ctx, g);
  const BridgeMask ck = find_bridges_ck(
      ctx, g, csr, component_representatives(ctx, cc_spanning_forest(ctx, g)));
  const BridgeMask hy = find_bridges_hybrid(ctx, g);
  ASSERT_EQ(tv, dfs) << label << ": TV disagrees with DFS";
  ASSERT_EQ(ck, dfs) << label << ": CK disagrees with DFS";
  ASSERT_EQ(hy, dfs) << label << ": hybrid disagrees with DFS";
}

class BridgesParam : public ::testing::TestWithParam<unsigned> {
 protected:
  device::Context ctx_{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(Workers, BridgesParam, ::testing::Values(1u, 4u));

TEST_P(BridgesParam, PathAllBridges) {
  const auto g = gen::path_graph(500);
  const graph::Csr csr = build_csr(ctx_, g);
  EXPECT_EQ(count_bridges(find_bridges_dfs(csr)), 499u);
  expect_all_agree(ctx_, g, "path");
}

TEST_P(BridgesParam, CycleNoBridges) {
  const auto g = gen::cycle_graph(500);
  EXPECT_EQ(count_bridges(find_bridges_tarjan_vishkin(ctx_, g)), 0u);
  expect_all_agree(ctx_, g, "cycle");
}

TEST_P(BridgesParam, StarAllBridges) {
  graph::EdgeList g;
  g.num_nodes = 200;
  for (NodeId v = 1; v < 200; ++v) g.edges.push_back({0, v});
  EXPECT_EQ(count_bridges(find_bridges_tarjan_vishkin(ctx_, g)), 199u);
  expect_all_agree(ctx_, g, "star");
}

TEST_P(BridgesParam, ParallelEdgeIsNeverABridge) {
  graph::EdgeList g;
  g.num_nodes = 3;
  g.edges = {{0, 1}, {0, 1}, {1, 2}};  // duplicated edge 0-1, bridge 1-2
  const graph::Csr csr = build_csr(ctx_, g);
  const BridgeMask dfs = find_bridges_dfs(csr);
  EXPECT_EQ(dfs[0], 0);
  EXPECT_EQ(dfs[1], 0);
  EXPECT_EQ(dfs[2], 1);
  expect_all_agree(ctx_, g, "parallel-edge");
}

TEST_P(BridgesParam, TwoTrianglesJoinedByBridge) {
  graph::EdgeList g;
  g.num_nodes = 6;
  g.edges = {{0, 1}, {1, 2}, {2, 0},   // triangle A
             {3, 4}, {4, 5}, {5, 3},   // triangle B
             {2, 3}};                  // the bridge
  const BridgeMask tv = find_bridges_tarjan_vishkin(ctx_, g);
  EXPECT_EQ(count_bridges(tv), 1u);
  EXPECT_EQ(tv[6], 1);
  expect_all_agree(ctx_, g, "two-triangles");
}

TEST_P(BridgesParam, BarbellOfCliques) {
  // Two K5 cliques connected by a path of length 3: 2 path edges + the
  // connecting edges are bridges (3 total).
  graph::EdgeList g;
  g.num_nodes = 12;
  for (NodeId i = 0; i < 5; ++i) {
    for (NodeId j = i + 1; j < 5; ++j) {
      g.edges.push_back({i, j});
      g.edges.push_back({static_cast<NodeId>(i + 5),
                         static_cast<NodeId>(j + 5)});
    }
  }
  g.edges.push_back({4, 10});
  g.edges.push_back({10, 11});
  g.edges.push_back({11, 5});
  const BridgeMask tv = find_bridges_tarjan_vishkin(ctx_, g);
  EXPECT_EQ(count_bridges(tv), 3u);
  expect_all_agree(ctx_, g, "barbell");
}

TEST_P(BridgesParam, RandomErSweep) {
  // Density sweep: m/n from 1.02 (many bridges) to 4 (few bridges).
  for (const double density : {1.02, 1.2, 2.0, 4.0}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto g = prepared(gen::er_graph(
          400, static_cast<std::size_t>(400 * density), seed * 31));
      if (g.num_nodes < 2) continue;
      expect_all_agree(ctx_, g, "er");
    }
  }
}

TEST_P(BridgesParam, RoadGraphs) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto g = prepared(gen::road_graph(25, 25, 0.65, 0.05, seed));
    if (g.num_nodes < 2) continue;
    expect_all_agree(ctx_, g, "road");
  }
}

TEST_P(BridgesParam, KroneckerGraphs) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const auto g = prepared(gen::kron_graph(9, 4, seed));
    if (g.num_nodes < 2) continue;
    expect_all_agree(ctx_, g, "kron");
  }
}

TEST_P(BridgesParam, TreeInputAllEdgesAreBridges) {
  // A tree given as a graph: every edge is a bridge.
  const auto g = prepared(gen::road_graph(30, 1, 1.0, 0.0, 5));
  const BridgeMask tv = find_bridges_tarjan_vishkin(ctx_, g);
  EXPECT_EQ(count_bridges(tv), g.edges.size());
  expect_all_agree(ctx_, g, "tree");
}

// ---------------------------------------------------------------- cc

/// Random multigraph with parallel edges, self-loops and isolated nodes:
/// `m` uniform pairs over the first n - 3 nodes (the last three touch no
/// edge).
graph::EdgeList random_multigraph(NodeId n, std::size_t m, util::Rng& rng) {
  graph::EdgeList g;
  g.num_nodes = n;
  for (std::size_t i = 0; i < m; ++i) {
    const NodeId u = static_cast<NodeId>(rng.below(n - 3));
    const NodeId v = rng.below(8) == 0
                         ? u
                         : static_cast<NodeId>(rng.below(n - 3));
    g.edges.push_back({u, v});
    if (rng.below(6) == 0) g.edges.push_back({v, u});  // parallel twin
  }
  return g;
}

/// cc_spanning_forest(g, keep) is the CC of the kept edges: the same labels
/// as the CC of a copy holding only them, a spanning forest of kept edges
/// with n - #components edges, and no mask == an all-ones mask.
void expect_forest_of_kept(const device::Context& ctx, const graph::EdgeList& g,
                           const std::vector<std::uint8_t>& keep) {
  const SpanningForest forest = cc_spanning_forest(ctx, g, keep);
  graph::EdgeList kept;
  kept.num_nodes = g.num_nodes;
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    if (keep.empty() || keep[e]) kept.edges.push_back(g.edges[e]);
  }
  EXPECT_EQ(forest.component, cc_spanning_forest(ctx, kept).component);
  const auto ref_labels = graph::connected_component_labels(kept);
  const std::size_t ref_components = graph::count_components(ref_labels);
  ASSERT_EQ(forest.num_components, ref_components);
  // Same partition as the sequential reference: no coarser (every kept
  // edge inside one label) and as many components.
  for (const auto& e : kept.edges) {
    ASSERT_EQ(forest.component[e.u], forest.component[e.v]);
  }
  // Forest size: n - #components, all of them kept edges.
  ASSERT_EQ(forest.tree_edges.size(),
            static_cast<std::size_t>(g.num_nodes) - ref_components);
  // Forest edges are acyclic: union-find over them never sees a cycle.
  std::vector<NodeId> uf(g.num_nodes);
  for (NodeId v = 0; v < g.num_nodes; ++v) uf[v] = v;
  auto find = [&](NodeId x) {
    while (uf[x] != x) x = uf[x] = uf[uf[x]];
    return x;
  };
  for (const EdgeId e : forest.tree_edges) {
    ASSERT_TRUE(keep.empty() || keep[e]) << "tree edge " << e << " masked";
    const NodeId a = find(g.edges[e].u);
    const NodeId b = find(g.edges[e].v);
    ASSERT_NE(a, b) << "cycle in spanning forest";
    uf[a] = b;
  }
  if (keep.empty()) {
    const SpanningForest ones = cc_spanning_forest(
        ctx, g, std::vector<std::uint8_t>(g.edges.size(), 1));
    EXPECT_EQ(ones.component, forest.component);
    EXPECT_EQ(ones.tree_edges, forest.tree_edges);
  }
}

TEST_P(BridgesParam, SpanningForestProperties) {
  util::Rng rng(17);
  std::vector<graph::EdgeList> graphs;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    graphs.push_back(gen::er_graph(300, 500, seed * 7));
    graphs.push_back(random_multigraph(60 + static_cast<NodeId>(seed) * 20,
                                       40 * seed, rng));
  }
  // Disconnected: two cycles, a path of doubled edges and isolated nodes.
  graph::EdgeList shapes;
  shapes.num_nodes = 40;
  for (NodeId v = 0; v < 10; ++v) {
    shapes.edges.push_back({v, (v + 1) % 10});
    shapes.edges.push_back({20 + v, 20 + (v + 1) % 10});
    shapes.edges.push_back({10 + v / 2, 11 + v / 2});
  }
  graphs.push_back(shapes);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    SCOPED_TRACE("graph " + std::to_string(i));
    const graph::EdgeList& g = graphs[i];
    expect_forest_of_kept(ctx_, g, {});
    for (const std::uint64_t one_in : {2, 4}) {
      std::vector<std::uint8_t> keep(g.edges.size());
      for (auto& k : keep) k = rng.below(one_in) != 0 ? 1 : 0;
      expect_forest_of_kept(ctx_, g, keep);
    }
    expect_forest_of_kept(ctx_, g, std::vector<std::uint8_t>(g.edges.size()));
  }
}

TEST_P(BridgesParam, SpanningForestBufferIsSizedByNodes) {
  // A forest has at most n - 1 edges; its buffer must not keep m slots.
  const auto g = gen::er_graph(200, 4000, 5);
  const SpanningForest forest = cc_spanning_forest(ctx_, g);
  EXPECT_EQ(forest.tree_edges.size(), 199u);
  EXPECT_LE(forest.tree_edges.capacity(),
            static_cast<std::size_t>(g.num_nodes));
}

TEST_P(BridgesParam, SpanningForestDeterministic) {
  // Same forest and the same number of launches on every build, with and
  // without a keep mask. The road grid spans many chunks, so with 4 workers
  // the hook and flatten kernels really race.
  util::Rng rng(23);
  for (const auto& g : {gen::er_graph(500, 1200, 99),
                        gen::road_graph(500, 500, 0.8, 0.05, 7)}) {
    std::vector<std::uint8_t> half(g.edges.size());
    for (auto& k : half) k = rng.below(2) != 0 ? 1 : 0;
    for (const auto& keep : {std::vector<std::uint8_t>{}, half}) {
      const std::uint64_t start = ctx_.launch_count();
      const SpanningForest a = cc_spanning_forest(ctx_, g, keep);
      const std::uint64_t mid = ctx_.launch_count();
      const SpanningForest b = cc_spanning_forest(ctx_, g, keep);
      const std::uint64_t end = ctx_.launch_count();
      EXPECT_EQ(a.component, b.component);
      EXPECT_EQ(a.tree_edges, b.tree_edges);
      EXPECT_EQ(a.num_components, b.num_components);
      EXPECT_EQ(mid - start, end - mid);
    }
  }
}

// ---------------------------------------------------------------- bfs

TEST_P(BridgesParam, BfsLevelsMatchSequential) {
  const auto g = prepared(gen::er_graph(400, 900, 3));
  const graph::Csr csr = build_csr(ctx_, g);
  const BfsTree tree = bfs(ctx_, csr, {0});
  // Shared sequential reference BFS.
  EXPECT_EQ(tree.level, test_support::bfs_levels(csr, 0));
  // Parent edges are consistent: level[parent] == level[v] - 1.
  for (NodeId v = 0; v < g.num_nodes; ++v) {
    if (v == 0) continue;
    ASSERT_EQ(tree.level[tree.parent[v]], tree.level[v] - 1);
    const graph::Edge e = g.edges[tree.parent_edge[v]];
    ASSERT_TRUE((e.u == v && e.v == tree.parent[v]) ||
                (e.v == v && e.u == tree.parent[v]));
  }
}

TEST_P(BridgesParam, BfsOnPathHasFullDepth) {
  const auto g = gen::path_graph(300);
  const graph::Csr csr = build_csr(ctx_, g);
  const BfsTree tree = bfs(ctx_, csr, {0});
  EXPECT_EQ(tree.num_levels, 300);
  EXPECT_EQ(tree.level[299], 299);
}

TEST_P(BridgesParam, BfsFromASourceSetLevelsEachComponent) {
  // Two paths 0-1-2 and 3-4, isolated 5: one source per path.
  graph::EdgeList g;
  g.num_nodes = 6;
  g.edges = {{0, 1}, {1, 2}, {3, 4}};
  const BfsTree tree = bfs(ctx_, build_csr(ctx_, g), {2, 3});
  EXPECT_EQ(tree.level, (std::vector<NodeId>{2, 1, 0, 0, 1, kNoNode}));
  EXPECT_EQ(tree.parent, (std::vector<NodeId>{1, 2, kNoNode, kNoNode, 3,
                                              kNoNode}));
}

TEST_P(BridgesParam, CkThrowsWhenItsRootsMissAComponent) {
  // A triangle, an edge {3, 4} and isolated 5: {0} misses the edge's
  // component, whose marking walks would otherwise climb a missing parent
  // chain forever. Isolated nodes need no root.
  graph::EdgeList g;
  g.num_nodes = 6;
  g.edges = {{0, 1}, {1, 2}, {0, 2}, {3, 4}};
  const graph::Csr csr = build_csr(ctx_, g);
  EXPECT_THROW(find_bridges_ck(ctx_, g, csr, {0}), std::invalid_argument);
  EXPECT_EQ(find_bridges_ck(ctx_, g, csr, {0, 3}), find_bridges_dfs(csr));
}

// ---------------------------------------------------------------- 2ecc

TEST_P(BridgesParam, TwoEccPartitionsByBridges) {
  graph::EdgeList g;
  g.num_nodes = 6;
  g.edges = {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}};
  const BridgeMask mask = find_bridges_tarjan_vishkin(ctx_, g);
  const auto labels = two_ecc(ctx_, g, mask);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_EQ(labels[4], labels[5]);
  EXPECT_NE(labels[0], labels[3]);
}

TEST_P(BridgesParam, TwoEccOfCycleIsOneComponent) {
  const auto g = gen::cycle_graph(100);
  const auto labels = two_ecc(ctx_, g, find_bridges_tarjan_vishkin(ctx_, g));
  const std::set<NodeId> distinct(labels.begin(), labels.end());
  EXPECT_EQ(distinct.size(), 1u);
}

TEST_P(BridgesParam, TwoEccOfTreeIsAllSingletons) {
  const auto g = gen::path_graph(50);
  const auto labels = two_ecc(ctx_, g, find_bridges_tarjan_vishkin(ctx_, g));
  const std::set<NodeId> distinct(labels.begin(), labels.end());
  EXPECT_EQ(distinct.size(), 50u);
}

TEST_P(BridgesParam, TwoEccSizesSumToN) {
  const auto g = prepared(gen::er_graph(300, 450, 17));
  const auto labels = two_ecc(ctx_, g, find_bridges_tarjan_vishkin(ctx_, g));
  EXPECT_EQ(labels.size(), static_cast<std::size_t>(g.num_nodes));
}

// ------------------------------------------------------- phase breakdowns

TEST(BridgesPhases, TvReportsThreePhases) {
  const device::Context ctx(1);
  const auto g = prepared(gen::er_graph(200, 400, 1));
  util::PhaseTimer phases;
  find_bridges_tarjan_vishkin(ctx, g, &phases);
  std::vector<std::string> names;
  for (const auto& [name, secs] : phases.phases()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"spanning_tree", "euler_tour",
                                             "detect_bridges"}));
}

TEST(BridgesPhases, CkReportsBfsAndMark) {
  const device::Context ctx(1);
  const auto g = prepared(gen::er_graph(200, 400, 2));
  const graph::Csr csr = build_csr(ctx, g);
  util::PhaseTimer phases;
  find_bridges_ck(ctx, g, csr, {0}, &phases);
  std::vector<std::string> names;
  for (const auto& [name, secs] : phases.phases()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"bfs", "mark_non_bridges"}));
}

TEST(BridgesPhases, HybridReportsFourPhases) {
  const device::Context ctx(1);
  const auto g = prepared(gen::er_graph(200, 400, 3));
  util::PhaseTimer phases;
  find_bridges_hybrid(ctx, g, &phases);
  std::vector<std::string> names;
  for (const auto& [name, secs] : phases.phases()) names.push_back(name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"spanning_tree", "euler_tour",
                                      "levels_and_parents",
                                      "mark_non_bridges"}));
}

TEST(Bridges, LargeRandomStress) {
  const device::Context ctx(4);
  const auto g = prepared(gen::er_graph(20'000, 30'000, 11));
  expect_all_agree(ctx, g, "large-er");
}

TEST(Bridges, LargeRoadStress) {
  const device::Context ctx(4);
  const auto g = prepared(gen::road_graph(120, 120, 0.6, 0.03, 13));
  expect_all_agree(ctx, g, "large-road");
}

// --------------------------------------------- dynamic-path adversarials
//
// The batch-dynamic subsystem (src/dynamic) feeds these shapes to the
// static algorithms on every rebuild; pin them down standalone.

TEST(TwoEccAdversarial, TwoEccOnEdgelessGraph) {
  // An update batch that erases everything leaves an edgeless snapshot.
  const device::Context ctx(1);
  graph::EdgeList g;
  g.num_nodes = 4;
  const auto labels = two_ecc(ctx, g, BridgeMask{});
  ASSERT_EQ(labels.size(), 4u);
  const std::set<NodeId> distinct(labels.begin(), labels.end());
  EXPECT_EQ(distinct.size(), 4u);  // all singletons
}

TEST(TwoEccAdversarial, TwoEccAcrossConnectingInsert) {
  // Disconnected graph gaining a connecting edge: the new edge is a bridge,
  // so the 2ecc partition must not merge across it.
  const device::Context ctx(2);
  graph::EdgeList g;
  g.num_nodes = 6;
  g.edges = {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}};
  const graph::Csr before = build_csr(ctx, g);
  const auto labels_before = two_ecc(ctx, g, find_bridges_dfs(before));
  EXPECT_EQ(labels_before[0], labels_before[2]);
  EXPECT_NE(labels_before[0], labels_before[3]);

  g.edges.push_back({2, 3});  // the connecting insert
  const auto mask = find_bridges_dfs(build_csr(ctx, g));
  EXPECT_EQ(count_bridges(mask), 1u);
  EXPECT_EQ(mask[6], 1);
  const auto labels_after = two_ecc(ctx, g, mask);
  EXPECT_NE(labels_after[2], labels_after[3]);
  EXPECT_EQ(labels_after[0], labels_after[2]);
  EXPECT_EQ(labels_after[3], labels_after[5]);
}

}  // namespace
}  // namespace emc::bridges
