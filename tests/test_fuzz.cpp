// Randomized small-instance sweeps: hundreds of tiny trees/graphs, checked
// exhaustively against brute force. Small instances hit boundary conditions
// (roots with one child, parallel edges, stars, near-paths) far more densely
// per CPU-second than large ones.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "bridges/cc_spanning.hpp"
#include "bridges/chaitanya_kothapalli.hpp"
#include "bridges/dfs_bridges.hpp"
#include "bridges/hybrid.hpp"
#include "bridges/tarjan_vishkin.hpp"
#include "bridges/tv_detail.hpp"
#include "core/euler_tour.hpp"
#include "listrank/listrank.hpp"
#include "core/tree.hpp"
#include "device/context.hpp"
#include "gen/graphs.hpp"
#include "gen/trees.hpp"
#include "graph/graph.hpp"
#include "lca/inlabel.hpp"
#include "lca/naive.hpp"
#include "lca/rmq_lca.hpp"
#include "support/block_labels.hpp"
#include "support/fuzz_env.hpp"
#include "support/reference.hpp"
#include "util/rng.hpp"

namespace emc {
namespace {

/// Random connected multigraph on n nodes with extra random (possibly
/// parallel) edges: a random spanning tree plus `extra` uniform pairs.
graph::EdgeList random_connected_multigraph(NodeId n, std::size_t extra,
                                            util::Rng& rng) {
  graph::EdgeList g;
  g.num_nodes = n;
  for (NodeId v = 1; v < n; ++v) {
    g.edges.push_back({v, static_cast<NodeId>(rng.below(v))});
  }
  while (g.edges.size() < static_cast<std::size_t>(n - 1) + extra) {
    const NodeId u = static_cast<NodeId>(rng.below(n));
    const NodeId v = static_cast<NodeId>(rng.below(n));
    if (u != v) g.edges.push_back({u, v});
  }
  return g;
}

/// Random disconnected multigraph: 2-4 random connected multigraphs plus
/// 1-3 isolated nodes, with node ids and edge order shuffled so component
/// representatives and tree edges land anywhere.
graph::EdgeList random_disconnected_multigraph(util::Rng& rng) {
  graph::EdgeList g;
  g.num_nodes = 0;
  const std::size_t parts = 2 + rng.below(3);
  for (std::size_t p = 0; p < parts; ++p) {
    const NodeId size = 2 + static_cast<NodeId>(rng.below(5));
    for (const graph::Edge e :
         random_connected_multigraph(size, rng.below(6), rng).edges) {
      g.edges.push_back({g.num_nodes + e.u, g.num_nodes + e.v});
    }
    g.num_nodes += size;
  }
  g.num_nodes += 1 + static_cast<NodeId>(rng.below(3));
  std::vector<NodeId> id(static_cast<std::size_t>(g.num_nodes));
  for (NodeId v = 0; v < g.num_nodes; ++v) id[v] = v;
  for (std::size_t i = id.size(); i > 1; --i) {
    std::swap(id[i - 1], id[rng.below(i)]);
  }
  for (graph::Edge& e : g.edges) e = {id[e.u], id[e.v]};
  for (std::size_t i = g.edges.size(); i > 1; --i) {
    std::swap(g.edges[i - 1], g.edges[rng.below(i)]);
  }
  return g;
}

TEST(FuzzLca, ExhaustiveOnTinyTrees) {
  const device::Context ctx(2);
  const test_support::FuzzRun run = test_support::fuzz_run(42, 150);
  SCOPED_TRACE(run.trace);
  util::Rng rng(run.seed);
  for (int round = 0; round < run.rounds; ++round) {
    const NodeId n = 1 + static_cast<NodeId>(rng.below(12));
    const NodeId grasp = rng.below(2) == 0
                             ? gen::kInfiniteGrasp
                             : static_cast<NodeId>(1 + rng.below(4));
    core::ParentTree tree = gen::random_tree(n, grasp, rng());
    gen::scramble_ids(tree, rng());
    ASSERT_TRUE(core::valid_parent_tree(tree));

    const auto depth = core::depths_reference(tree);
    const auto inlabel = lca::InlabelLca::build_parallel(ctx, tree);
    const auto inlabel_seq = lca::InlabelLca::build_sequential(tree);
    const auto naive = lca::NaiveLca::build(ctx, tree);
    const auto rmq = lca::RmqLca::build(tree);

    // Exhaustive n^2 queries vs brute force.
    for (NodeId x = 0; x < n; ++x) {
      for (NodeId y = 0; y < n; ++y) {
        NodeId a = x, b = y;
        while (depth[a] > depth[b]) a = tree.parent[a];
        while (depth[b] > depth[a]) b = tree.parent[b];
        while (a != b) {
          a = tree.parent[a];
          b = tree.parent[b];
        }
        ASSERT_EQ(inlabel.query(x, y), a)
            << "round " << round << " n=" << n << " (" << x << "," << y << ")";
        ASSERT_EQ(inlabel_seq.query(x, y), a);
        ASSERT_EQ(naive.query(x, y), a);
        ASSERT_EQ(rmq.query(x, y), a);
      }
    }
  }
}

TEST(FuzzEuler, StatsOnTinyTrees) {
  const device::Context ctx(3);
  const test_support::FuzzRun run = test_support::fuzz_run(43, 200);
  SCOPED_TRACE(run.trace);
  util::Rng rng(run.seed);
  for (int round = 0; round < run.rounds; ++round) {
    const NodeId n = 1 + static_cast<NodeId>(rng.below(10));
    core::ParentTree tree = gen::random_tree(n, gen::kInfiniteGrasp, rng());
    gen::scramble_ids(tree, rng());
    const core::EulerTour tour =
        core::build_euler_tour(ctx, core::tree_edges(tree), tree.root);
    const core::TreeStats stats = core::compute_tree_stats(ctx, tour);
    const auto depth = core::depths_reference(tree);
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(stats.level[v], depth[v]);
      if (v != tree.root) {
        ASSERT_EQ(stats.parent[v], tree.parent[v]);
      }
    }
  }
}

TEST(FuzzBridges, AllAlgorithmsOnTinyMultigraphs) {
  const device::Context ctx(2);
  const test_support::FuzzRun run = test_support::fuzz_run(44, 250);
  SCOPED_TRACE(run.trace);
  util::Rng rng(run.seed);
  for (int round = 0; round < run.rounds; ++round) {
    const NodeId n = 2 + static_cast<NodeId>(rng.below(10));
    const std::size_t extra = rng.below(12);
    // Odd rounds: several components plus isolated nodes.
    const bool connected = round % 2 == 0;
    const graph::EdgeList g = connected
                                  ? random_connected_multigraph(n, extra, rng)
                                  : random_disconnected_multigraph(rng);
    const graph::Csr csr = build_csr(ctx, g);
    const auto dfs = bridges::find_bridges_dfs(csr);
    const bridges::SpanningForest forest = bridges::cc_spanning_forest(ctx, g);
    const std::vector<NodeId> roots =
        bridges::component_representatives(ctx, forest);
    ASSERT_EQ(bridges::find_bridges_tarjan_vishkin(ctx, g), dfs)
        << "TV, round " << round;
    ASSERT_EQ(bridges::find_bridges_tarjan_vishkin(
                  ctx, g, forest, bridges::forest_lca(ctx, g, forest)->tree()),
              dfs)
        << "TV on the forest LCA's tree, round " << round;
    ASSERT_EQ(bridges::find_bridges_ck(ctx, g, csr, roots), dfs)
        << "CK, round " << round;
    ASSERT_EQ(bridges::find_bridges_hybrid(ctx, g), dfs)
        << "hybrid, round " << round;
  }
}

TEST(FuzzListRank, TinyListsAllAlgorithms) {
  const device::Context ctx(3);
  const test_support::FuzzRun run = test_support::fuzz_run(46, 300);
  SCOPED_TRACE(run.trace);
  util::Rng rng(run.seed);
  for (int round = 0; round < run.rounds; ++round) {
    const std::size_t n = 1 + rng.below(20);
    std::vector<EdgeId> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<EdgeId>(i);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    std::vector<EdgeId> next(n, kNoEdge);
    for (std::size_t i = 0; i + 1 < n; ++i) next[order[i]] = order[i + 1];

    std::vector<EdgeId> expected, wyllie, wei;
    listrank::rank_sequential(next, order[0], expected);
    listrank::rank_wyllie(ctx, next, order[0], wyllie);
    listrank::rank_wei_jaja(ctx, next, order[0], wei, 1 + rng.below(n));
    ASSERT_EQ(wyllie, expected) << "round " << round;
    ASSERT_EQ(wei, expected) << "round " << round;
  }
}

TEST(FuzzTwoEcc, AgreesWithBridgeStructure) {
  const device::Context ctx(2);
  const test_support::FuzzRun run = test_support::fuzz_run(47, 100);
  SCOPED_TRACE(run.trace);
  util::Rng rng(run.seed);
  for (int round = 0; round < run.rounds; ++round) {
    const NodeId n = 2 + static_cast<NodeId>(rng.below(10));
    const graph::EdgeList g = random_connected_multigraph(n, rng.below(8), rng);
    const auto mask = bridges::find_bridges_tarjan_vishkin(ctx, g);
    const auto labels = test_support::oracle_block_labels(ctx, g, mask);
    // Two endpoints of a non-bridge share a component; endpoints of a
    // bridge do not.
    for (std::size_t e = 0; e < g.edges.size(); ++e) {
      const auto [u, v] = g.edges[e];
      if (mask[e]) {
        ASSERT_NE(labels[u], labels[v]) << "round " << round;
      } else {
        ASSERT_EQ(labels[u], labels[v]) << "round " << round;
      }
    }
    // Full partition diff against the shared union-find reference.
    const auto ref = test_support::two_ecc_labels(g, mask);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        ASSERT_EQ(labels[u] == labels[v], ref[u] == ref[v])
            << "round " << round << " (" << u << "," << v << ")";
      }
    }
  }
}

/// subtree_low_high on g's rooted spanning forest against the sequential
/// fold, array for array.
void expect_low_high_matches_fold(const device::Context& ctx,
                                  const graph::EdgeList& g,
                                  const std::string& what) {
  const bridges::SpanningForest forest = bridges::cc_spanning_forest(ctx, g);
  const core::TreeStats tree = bridges::root_forest(ctx, g, forest);
  std::vector<std::uint8_t> is_tree_edge(g.edges.size(), 0);
  for (const EdgeId e : forest.tree_edges) is_tree_edge[e] = 1;
  const bridges::tv_detail::LowHigh got =
      bridges::tv_detail::subtree_low_high(ctx, g, is_tree_edge, tree);
  const test_support::LowHighFold want(g, is_tree_edge, tree);
  ASSERT_EQ(got.low, want.low) << what;
  ASSERT_EQ(got.high, want.high) << what;
}

TEST(FuzzLowHigh, RandomMultigraphsMatchTheSequentialFold) {
  // Uniform pairs, self-loops and parallel edges included; a sparse draw
  // leaves several components. The rooted forest has n + 1 nodes (the
  // virtual root), so the sizes straddle the 64-wide block edges both ways.
  constexpr NodeId kSizes[] = {1, 2, 62, 63, 64, 65, 126, 127, 128, 4096, 4097};
  const device::Context serial(1);
  const device::Context wide(4);
  const test_support::FuzzRun run = test_support::fuzz_run(53, 12);
  SCOPED_TRACE(run.trace);
  util::Rng rng(run.seed);
  for (int round = 0; round < run.rounds; ++round) {
    for (const NodeId n : kSizes) {
      graph::EdgeList g;
      g.num_nodes = n;
      const std::size_t m = rng.below(3 * static_cast<std::uint64_t>(n) + 1);
      for (std::size_t i = 0; i < m; ++i) {
        g.edges.push_back({static_cast<NodeId>(rng.below(n)),
                           static_cast<NodeId>(rng.below(n))});
      }
      expect_low_high_matches_fold(round % 2 == 0 ? serial : wide, g,
                                   "round " + std::to_string(round) + " n " +
                                       std::to_string(n));
    }
  }
}

TEST(FuzzLowHigh, LongPathAndStarMatchTheSequentialFold) {
  const device::Context ctx(4);
  constexpr NodeId n = 4097;
  // A path is its own spanning tree, so every subtree interval is a suffix
  // or a prefix spanning many blocks. Parallel copies and self-loops make
  // the non-tree edges.
  graph::EdgeList path = gen::path_graph(n);
  for (NodeId v = 0; v + 1 < n; v += 3) path.edges.push_back({v + 1, v});
  for (NodeId v = 0; v < n; v += 5) path.edges.push_back({v, v});
  expect_low_high_matches_fold(ctx, path, "path");
  // The same path with chords reaching far across it.
  util::Rng rng(7);
  for (int i = 0; i < 64; ++i) {
    path.edges.push_back({static_cast<NodeId>(rng.below(n)),
                          static_cast<NodeId>(rng.below(n))});
  }
  expect_low_high_matches_fold(ctx, path, "path with chords");
  // A star whose every non-tree edge is a parallel hub edge: the hub's slot
  // takes every atomic.
  graph::EdgeList star;
  star.num_nodes = n;
  for (NodeId v = 1; v < n; ++v) star.edges.push_back({0, v});
  for (NodeId v = 1; v < n; ++v) star.edges.push_back({v, 0});
  expect_low_high_matches_fold(ctx, star, "star");
}

}  // namespace
}  // namespace emc
