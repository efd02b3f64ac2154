// Vertex biconnectivity: the BccIndex artifact and the four request
// families built on it (Articulations, SameBcc, BfsLevels, CcMembership).
//
// Four pillars:
//   deterministic shapes — paths, cycles, bowties, dumbbells, stars,
//     multigraphs, self-loops, disconnected and edgeless graphs, plus
//     random/road/kron classes at 1 and 4 workers, pin the exact
//     block/articulation structure the bulk Tarjan-Vishkin pipeline must
//     produce, checked against the sequential Hopcroft-Tarjan reference
//     (and bridges == singleton blocks against the DFS bridge finder);
//   differential fuzz — seed-replayable rounds across the whole gen suite
//     (with injected parallel edges and self-loops) diff every family on
//     the Session/View path, the index on replayed and rebuilt records
//     AND the K-sharded gadget-skeleton stitch against the reference.
//     Replay with EMC_FUZZ_SEED/EMC_FUZZ_ROUNDS;
//   launch pins — bulk batches cost exactly ONE answer kernel on the
//     device route, zero on the host route, BfsLevels pairs sharing a
//     source share one traversal, and the engine's build tours nothing;
//   failpoints — a fault anywhere in an epoch's lazy BCC build (its first
//     read) leaves the epoch's cell empty for the retry and older Views
//     untouched.
#include "bcc/bcc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <map>
#include <string>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "bridges/cc_spanning.hpp"
#include "bridges/dfs_bridges.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "engine/engine.hpp"
#include "gen/graphs.hpp"
#include "graph/graph.hpp"
#include "serve/serve.hpp"
#include "shard/shard.hpp"
#include "support/block_labels.hpp"
#include "support/fuzz_env.hpp"
#include "support/reference.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace emc::bcc {
namespace {

using engine::Engine;
using engine::Policy;
using engine::Session;
using engine::View;
using graph::Edge;
using graph::EdgeList;
using test_support::ReferenceBcc;

namespace failpoint = util::failpoint;

/// Direct artifact build (no engine): the unit-shape harness.
BccIndex build_index(const device::Context& ctx, const EdgeList& g) {
  const bridges::SpanningForest forest = bridges::cc_spanning_forest(ctx, g);
  return BccIndex::build(ctx, g, forest);
}

void expect_matches_reference(const BccIndex& index, const EdgeList& g,
                              const char* what) {
  const ReferenceBcc ref(g);
  EXPECT_EQ(test_support::partition_mismatch(
                test_support::bcc_edge_blocks(index, g), ref.edge_block),
            "")
      << what;
  ASSERT_EQ(index.num_blocks, ref.num_blocks) << what;
  std::size_t want_arts = 0;
  for (NodeId v = 0; v < g.num_nodes; ++v) {
    EXPECT_EQ(index.is_articulation[v] != 0, ref.is_articulation[v] != 0)
        << what << " articulation(" << v << ")";
    want_arts += ref.is_articulation[v];
  }
  EXPECT_EQ(index.num_articulations, want_arts) << what;
  for (NodeId u = 0; u < g.num_nodes; ++u) {
    for (NodeId v = 0; v < g.num_nodes; ++v) {
      EXPECT_EQ(index.same_bcc(u, v), ref.same_bcc(u, v))
          << what << " same_bcc(" << u << ", " << v << ")";
    }
  }
}

// ------------------------------------------------------- deterministic

TEST(BccIndex, PathEveryInternalVertexCuts) {
  const device::Context ctx = device::Context::sequential();
  const EdgeList g = gen::path_graph(5);
  const BccIndex index = build_index(ctx, g);
  EXPECT_EQ(index.num_blocks, 4u);  // every edge its own block
  EXPECT_EQ(index.num_articulations, 3u);
  EXPECT_FALSE(index.is_articulation[0]);
  EXPECT_TRUE(index.is_articulation[2]);
  EXPECT_TRUE(index.same_bcc(1, 2));
  EXPECT_FALSE(index.same_bcc(0, 2));
  expect_matches_reference(index, g, "path5");
}

TEST(BccIndex, CycleIsOneBlockWithNoCuts) {
  const device::Context ctx = device::Context::sequential();
  const EdgeList g = gen::cycle_graph(7);
  const BccIndex index = build_index(ctx, g);
  EXPECT_EQ(index.num_blocks, 1u);
  EXPECT_EQ(index.num_articulations, 0u);
  EXPECT_TRUE(index.same_bcc(0, 4));
  expect_matches_reference(index, g, "cycle7");
}

TEST(BccIndex, BowtiePinsTheSharedCutVertex) {
  const device::Context ctx = device::Context::sequential();
  EdgeList g;
  g.num_nodes = 5;  // triangles {0,1,2} and {2,3,4} sharing vertex 2
  g.edges = {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}};
  const BccIndex index = build_index(ctx, g);
  EXPECT_EQ(index.num_blocks, 2u);
  EXPECT_EQ(index.num_articulations, 1u);
  EXPECT_TRUE(index.is_articulation[2]);
  EXPECT_TRUE(index.same_bcc(0, 2));
  EXPECT_TRUE(index.same_bcc(2, 4));
  EXPECT_FALSE(index.same_bcc(1, 3));
  expect_matches_reference(index, g, "bowtie");
}

TEST(BccIndex, DisconnectedComponentsAndIsolatedNodes) {
  const device::Context ctx = device::Context::sequential();
  EdgeList g;
  g.num_nodes = 7;  // triangle {0,1,2}, lone edge {4,5}, isolated 3 and 6
  g.edges = {{0, 1}, {1, 2}, {0, 2}, {4, 5}};
  const BccIndex index = build_index(ctx, g);
  EXPECT_EQ(index.num_blocks, 2u);
  EXPECT_EQ(index.num_articulations, 0u);
  EXPECT_TRUE(index.same_bcc(4, 5));
  EXPECT_FALSE(index.same_bcc(0, 4));
  EXPECT_FALSE(index.same_bcc(3, 6));  // isolated nodes share no block
  EXPECT_TRUE(index.same_bcc(3, 3));   // but trivially with themselves
  expect_matches_reference(index, g, "disconnected");
}

TEST(BccIndex, MultigraphParallelEdgesGlueOneBlockAndSelfLoopsAreNoBlock) {
  const device::Context ctx = device::Context::sequential();
  EdgeList g;
  g.num_nodes = 3;
  g.edges = {{0, 1}, {0, 1}, {1, 2}, {1, 1}};
  const BccIndex index = build_index(ctx, g);
  EXPECT_EQ(index.num_blocks, 2u);  // {e0,e1} and {e2}; the loop in neither
  const auto edge_block = test_support::bcc_edge_blocks(index, g);
  EXPECT_EQ(edge_block[0], edge_block[1]);
  EXPECT_NE(edge_block[0], edge_block[2]);
  EXPECT_EQ(edge_block[3], kNoNode);
  EXPECT_EQ(index.num_articulations, 1u);
  EXPECT_TRUE(index.is_articulation[1]);
  expect_matches_reference(index, g, "multigraph");
}

TEST(BccIndex, EdgelessGraphHasNoBlocks) {
  const device::Context ctx = device::Context::sequential();
  EdgeList g;
  g.num_nodes = 4;
  const BccIndex index = build_index(ctx, g);
  EXPECT_EQ(index.num_blocks, 0u);
  EXPECT_EQ(index.num_articulations, 0u);
  EXPECT_FALSE(index.same_bcc(0, 3));
  expect_matches_reference(index, g, "edgeless");
}

// ---------------------------------------------- shapes at 1 and 4 workers

class BccShapes : public ::testing::TestWithParam<unsigned> {
 protected:
  device::Context ctx_{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(Workers, BccShapes, ::testing::Values(1u, 4u));

TEST_P(BccShapes, SingleEdgeIsOneBlock) {
  EdgeList g;
  g.num_nodes = 2;
  g.edges = {{0, 1}};
  const BccIndex index = build_index(ctx_, g);
  EXPECT_EQ(index.num_blocks, 1u);
  EXPECT_EQ(index.num_articulations, 0u);
  expect_matches_reference(index, g, "single-edge");
}

TEST_P(BccShapes, DumbbellBridgeEndpointsCut) {
  EdgeList g;
  g.num_nodes = 7;  // triangles {0,1,2} and {3,4,5} joined by 2-6-3
  g.edges = {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 6}, {6, 3}};
  const BccIndex index = build_index(ctx_, g);
  EXPECT_EQ(index.num_blocks, 4u);  // 2 triangles + 2 bridge blocks
  EXPECT_EQ(index.num_articulations, 3u);
  EXPECT_TRUE(index.is_articulation[2]);
  EXPECT_TRUE(index.is_articulation[3]);
  EXPECT_TRUE(index.is_articulation[6]);
  expect_matches_reference(index, g, "dumbbell");
}

TEST_P(BccShapes, StarBlocksArePendantEdges) {
  EdgeList g;
  g.num_nodes = 30;
  for (NodeId v = 1; v < 30; ++v) g.edges.push_back({0, v});
  const BccIndex index = build_index(ctx_, g);
  EXPECT_EQ(index.num_blocks, 29u);
  EXPECT_EQ(index.num_articulations, 1u);
  EXPECT_TRUE(index.is_articulation[0]);
  expect_matches_reference(index, g, "star");
}

TEST_P(BccShapes, RandomDensitySweep) {
  for (const double density : {1.05, 1.5, 3.0}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const EdgeList g = gen::er_graph(
          300, static_cast<std::size_t>(300 * density), seed * 13);
      expect_matches_reference(build_index(ctx_, g), g, "er-sweep");
    }
  }
}

TEST_P(BccShapes, RoadAndKronClasses) {
  const EdgeList road = gen::road_graph(20, 20, 0.7, 0.05, 2);
  expect_matches_reference(build_index(ctx_, road), road, "road");
  const EdgeList kron = gen::kron_graph(8, 3, 3);
  expect_matches_reference(build_index(ctx_, kron), kron, "kron");
}

TEST_P(BccShapes, PathClosedIntoACycleCollapsesToOneBlock) {
  // Every edge a bridge and every internal node a cut, until one insert
  // closes the cycle: one block, no cuts, one 2-ecc, no bridges.
  EdgeList g = gen::path_graph(64);
  EXPECT_EQ(build_index(ctx_, g).num_blocks, 63u);
  g.edges.push_back({63, 0});
  const BccIndex index = build_index(ctx_, g);
  EXPECT_EQ(index.num_blocks, 1u);
  EXPECT_EQ(index.num_articulations, 0u);
  const bridges::BridgeMask mask =
      bridges::find_bridges_dfs(graph::build_csr(ctx_, g));
  EXPECT_EQ(bridges::count_bridges(mask), 0u);
  const auto labels = test_support::oracle_block_labels(ctx_, g, mask);
  EXPECT_EQ(test_support::canonical_partition(labels),
            test_support::canonical_partition(
                test_support::two_ecc_labels(g, mask)));
  EXPECT_TRUE(std::all_of(labels.begin(), labels.end(),
                          [&](NodeId l) { return l == labels[0]; }));
  expect_matches_reference(index, g, "closed-path");
}

TEST_P(BccShapes, MultigraphAndItsCanonicalFormBothHaveThreeBlocks) {
  EdgeList multi;
  multi.num_nodes = 4;
  multi.edges = {{0, 1}, {1, 0}, {1, 2}, {1, 2}, {2, 3}};
  const EdgeList simple = graph::canonicalize(ctx_, multi);
  ASSERT_EQ(simple.edges.size(), 3u);
  // Multigraph: each parallel pair is a 2-cycle block, plus the pendant
  // 2-3. Simple form: a path of three pendant blocks.
  const BccIndex multi_index = build_index(ctx_, multi);
  const BccIndex simple_index = build_index(ctx_, simple);
  EXPECT_EQ(multi_index.num_blocks, 3u);
  EXPECT_EQ(simple_index.num_blocks, 3u);
  expect_matches_reference(multi_index, multi, "multi");
  expect_matches_reference(simple_index, simple, "simple");
}

TEST_P(BccShapes, BridgesAreExactlyTheSingletonBlocks) {
  const EdgeList g = graph::simplified(gen::er_graph(400, 450, 21));
  const BccIndex index = build_index(ctx_, g);
  const bridges::BridgeMask mask =
      bridges::find_bridges_dfs(graph::build_csr(ctx_, g));
  const auto edge_block = test_support::bcc_edge_blocks(index, g);
  std::vector<std::size_t> members(index.num_blocks, 0);
  for (const NodeId b : edge_block) ++members[b];
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    ASSERT_EQ(mask[e] == 1, members[edge_block[e]] == 1) << "edge " << e;
  }
}

// ------------------------------------------------------------------ fuzz

/// One graph from the gen suite, plus injected multigraph noise: parallel
/// copies of existing edges and self-loops, the corner inputs the issue
/// calls out. Round-robins every generator family.
EdgeList fuzz_graph(util::Rng& rng, int round, std::uint64_t seed) {
  EdgeList g;
  switch (round % 7) {
    case 0:
      g = gen::er_graph(static_cast<NodeId>(2 + rng.below(120)),
                        rng.below(300), seed + round);
      break;
    case 1:
      g = gen::road_graph(static_cast<NodeId>(2 + rng.below(10)),
                          static_cast<NodeId>(2 + rng.below(10)), 0.7, 0.05,
                          seed + round);
      break;
    case 2:
      g = gen::rmat_graph(3 + static_cast<int>(rng.below(4)), 2.0, 0.45, 0.2,
                          0.2, seed + round);
      break;
    case 3:
      g = gen::kron_graph(3 + static_cast<int>(rng.below(4)), 2.5,
                          seed + round);
      break;
    case 4:
      g = gen::social_graph(3 + static_cast<int>(rng.below(4)), 2.0,
                            seed + round);
      break;
    case 5:
      g = gen::cycle_graph(static_cast<NodeId>(3 + rng.below(60)));
      break;
    default:
      g = gen::path_graph(static_cast<NodeId>(2 + rng.below(60)));
      break;
  }
  if (rng.below(4) == 0 && !g.edges.empty()) {  // parallel copies
    for (std::size_t i = rng.below(4); i-- > 0;) {
      g.edges.push_back(g.edges[rng.below(g.edges.size())]);
    }
  }
  if (rng.below(4) == 0) {  // self-loops
    const auto v = static_cast<NodeId>(rng.below(g.num_nodes));
    g.edges.push_back({v, v});
  }
  if (rng.below(8) == 0) g.edges.clear();  // edgeless corner
  return g;
}

std::vector<std::pair<NodeId, NodeId>> fuzz_pairs(util::Rng& rng,
                                                  const EdgeList& g,
                                                  std::size_t count) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (std::size_t i = 0; i < count; ++i) {
    if (!g.edges.empty() && rng.below(3) == 0) {
      // Adjacent pairs: the same_bcc == true cases random pairs rarely hit.
      const Edge& e = g.edges[rng.below(g.edges.size())];
      pairs.push_back({e.u, e.v});
    } else {
      pairs.push_back({static_cast<NodeId>(rng.below(g.num_nodes)),
                       static_cast<NodeId>(rng.below(g.num_nodes))});
    }
  }
  if (count != 0) pairs.push_back({pairs[0].first, pairs[0].first});
  return pairs;
}

TEST(BccFuzz, DifferentialVsHopcroftTarjanAcrossGenSuite) {
  const auto fuzz = test_support::fuzz_run(/*seed=*/7741, /*rounds=*/120);
  SCOPED_TRACE(fuzz.trace);
  Engine engine({.device_workers = 2});
  const device::Context ref_ctx = device::Context::sequential();
  Policy device_route;
  device_route.min_device_batch = 1;

  util::Rng rng(fuzz.seed);
  for (int round = 0; round < fuzz.rounds; ++round) {
    const EdgeList g = fuzz_graph(rng, round, fuzz.seed);
    SCOPED_TRACE("round " + std::to_string(round) + " n=" +
                 std::to_string(g.num_nodes) + " m=" +
                 std::to_string(g.edges.size()));
    Session session = engine.session(g);
    const ReferenceBcc ref(g);
    ASSERT_NO_FATAL_FAILURE(
        expect_matches_reference(build_index(engine.device(), g), g, "index"));

    // Articulations: the whole-graph mask, exact.
    const std::vector<std::uint8_t> arts = session.run(engine::Articulations{});
    ASSERT_EQ(arts.size(), static_cast<std::size_t>(g.num_nodes));
    for (NodeId v = 0; v < g.num_nodes; ++v) {
      ASSERT_EQ(arts[v] != 0, ref.is_articulation[v] != 0)
          << "articulation(" << v << ")";
    }

    // SameBcc: host and device routes, both against the reference.
    const auto pairs = fuzz_pairs(rng, g, 60);
    const auto same_host = session.run(engine::SameBcc{pairs});
    const auto same_dev = session.run(engine::SameBcc{pairs}, device_route);
    for (std::size_t q = 0; q < pairs.size(); ++q) {
      const auto [u, v] = pairs[q];
      ASSERT_EQ(same_host[q] != 0, ref.same_bcc(u, v))
          << "same_bcc(" << u << ", " << v << ") host";
      ASSERT_EQ(same_dev[q], same_host[q])
          << "same_bcc(" << u << ", " << v << ") device vs host";
    }

    // BfsLevels: grouped-by-source levels against the sequential BFS.
    const graph::Csr csr = graph::build_csr(ref_ctx, g);
    std::vector<std::pair<NodeId, NodeId>> bfs_pairs;
    std::array<NodeId, 3> sources;
    for (auto& s : sources) s = static_cast<NodeId>(rng.below(g.num_nodes));
    for (int q = 0; q < 24; ++q) {
      bfs_pairs.push_back({sources[rng.below(sources.size())],
                           static_cast<NodeId>(rng.below(g.num_nodes))});
    }
    const auto levels_host = session.run(engine::BfsLevels{bfs_pairs});
    const auto levels_dev =
        session.run(engine::BfsLevels{bfs_pairs}, device_route);
    std::map<NodeId, std::vector<NodeId>> dist;
    for (const NodeId s : sources) {
      if (!dist.count(s)) dist[s] = test_support::bfs_levels(csr, s);
    }
    for (std::size_t q = 0; q < bfs_pairs.size(); ++q) {
      const auto [s, t] = bfs_pairs[q];
      ASSERT_EQ(levels_host[q], dist[s][t])
          << "bfs_level(" << s << " -> " << t << ")";
      ASSERT_EQ(levels_dev[q], levels_host[q])
          << "bfs_level(" << s << " -> " << t << ") device vs host";
    }

    // CcMembership: representative labels — compare the partition.
    std::vector<NodeId> nodes(static_cast<std::size_t>(g.num_nodes));
    for (NodeId v = 0; v < g.num_nodes; ++v) nodes[v] = v;
    const auto cc_got = session.run(engine::CcMembership{nodes});
    const auto cc_dev =
        session.run(engine::CcMembership{nodes}, device_route);
    EXPECT_EQ(test_support::partition_mismatch(cc_got,
                                               test_support::cc_labels(g)),
              "")
        << "cc_membership";
    ASSERT_EQ(cc_dev, cc_got);
  }
}

/// Field-by-field equality: the engine's index and a standalone build on
/// the same snapshot and forest run the same kernels on the same rooted
/// tree.
void expect_same_index(const BccIndex& got, const BccIndex& want) {
  EXPECT_EQ(got.vertex_block, want.vertex_block);
  EXPECT_EQ(got.head, want.head);
  EXPECT_EQ(got.is_articulation, want.is_articulation);
  EXPECT_EQ(got.num_blocks, want.num_blocks);
  EXPECT_EQ(got.num_articulations, want.num_articulations);
}

TEST(BccFuzz, ReplayedRecordsMatchReferenceAndStandaloneBuild) {
  const auto fuzz = test_support::fuzz_run(/*seed=*/7747, /*rounds=*/80);
  SCOPED_TRACE(fuzz.trace);
  Engine engine({.device_workers = 2});
  const device::Context& ctx = engine.device();
  constexpr NodeId kNodes = 36;
  constexpr NodeId kTrees = 4;
  util::Rng rng(fuzz.seed);

  // kTrees random recursive trees (every edge a bridge, every inner node an
  // articulation) plus a few grandparent chords: many small blocks, and
  // components for cross-linking inserts to join.
  std::vector<NodeId> parent(kNodes, kNoNode);
  std::vector<Edge> base;
  for (NodeId v = kTrees; v < kNodes; ++v) {
    parent[v] = v % kTrees + kTrees * static_cast<NodeId>(rng.below(v / kTrees));
    base.push_back({parent[v], v});
  }
  for (int c = 0; c < 3; ++c) {
    const auto v = static_cast<NodeId>(kTrees + rng.below(kNodes - kTrees));
    if (parent[parent[v]] != kNoNode) base.push_back({parent[parent[v]], v});
  }
  dynamic::DynamicGraph dg(ctx, EdgeList{kNodes, base});
  Session session = engine.session(dg);
  View prev = session.view();
  const auto ancestor = [&](NodeId v, std::uint64_t steps) {
    for (; steps > 0 && parent[v] != kNoNode; --steps) v = parent[v];
    return v;
  };

  std::size_t intra_replays = 0, cross_replays = 0, erase_rebuilds = 0;
  for (int round = 0; round < fuzz.rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::vector<NodeId> cc = test_support::cc_labels(prev.edge_span());
    std::vector<Edge> batch;
    bool erase = false;
    if (round % 8 == 7) {
      // An occasional erase: the next publish is a full rebuild.
      const auto edges = prev.edge_span().edges;
      for (int i = 0; i < 2; ++i) batch.push_back(edges[rng.below(edges.size())]);
      erase = true;
    } else if (round % 4 == 1) {
      // Cross-linking: one edge between two components, if any remain.
      for (int tries = 0; tries < 32 && batch.empty(); ++tries) {
        const auto u = static_cast<NodeId>(rng.below(kNodes));
        const auto v = static_cast<NodeId>(rng.below(kNodes));
        if (cc[u] != cc[v]) batch.push_back({u, v});
      }
    }
    if (batch.empty()) {
      // Intra-only: short chords up the original trees.
      const std::size_t size = 1 + rng.below(3);
      for (std::size_t i = 0; i < size; ++i) {
        const auto v = static_cast<NodeId>(rng.below(kNodes));
        batch.push_back({v, ancestor(v, 2 + rng.below(2))});
      }
    }
    const bool cross = std::any_of(batch.begin(), batch.end(), [&](Edge e) {
      return cc[e.u] != cc[e.v];
    });
    const std::uint64_t epoch_before = dg.epoch();
    const std::size_t replays_before = session.publish_replays();
    if (erase) {
      dg.erase_edges(ctx, batch);
    } else {
      dg.insert_edges(ctx, batch);
    }
    const View view = session.view();
    if (dg.epoch() != epoch_before) {
      const bool replayed = session.publish_replays() > replays_before;
      ASSERT_EQ(replayed, !erase);
      // An intra-only replay shares the forest and its LCA with the
      // previous epoch; a cross-linking one rebuilds the LCA.
      const bool shared = &view.artifact<lca::InlabelLca>() ==
                          &prev.artifact<lca::InlabelLca>();
      if (replayed) {
        EXPECT_EQ(shared, !cross);
      }
      (erase ? erase_rebuilds : cross ? cross_replays : intra_replays) += 1;
    }

    const std::shared_ptr<const BccIndex> index = view.bcc_index();
    ASSERT_NO_FATAL_FAILURE(
        expect_matches_reference(*index, view.edges(), "replayed"));
    expect_same_index(*index,
                      BccIndex::build(ctx, view.edge_span(), view.forest()));
    if (::testing::Test::HasFailure()) return;
    prev = view;
  }
  if (fuzz.rounds >= 16) {
    EXPECT_GT(intra_replays, 0u);
    EXPECT_GT(cross_replays, 0u);
    EXPECT_GT(erase_rebuilds, 0u);
  }
}

// ------------------------------------------------------------ launch pins

TEST(BccPins, ArtifactIsBuiltOncePerEpochAndRerunsAreFree) {
  Engine engine({.device_workers = 2});
  const EdgeList g = gen::road_graph(20, 20, 0.72, 0.04, 11);
  Session session = engine.session(g);

  const auto first = session.run(engine::Articulations{});
  ASSERT_GT(engine.stats().artifact_builds, 0u);

  // Same epoch: the mask re-serves from the cached index, the host-route
  // batch walks it — zero further kernel launches.
  const std::uint64_t before = engine.device_launches();
  const auto second = session.run(engine::Articulations{});
  const auto same = session.run(engine::SameBcc{{{0, 1}, {3, 7}}});
  EXPECT_EQ(engine.device_launches(), before);
  EXPECT_EQ(second, first);
  EXPECT_EQ(same.size(), 2u);
}

TEST(BccPins, ForcedDeviceBatchesCostExactlyOneKernel) {
  Engine engine({.device_workers = 2});
  const EdgeList g = gen::road_graph(20, 20, 0.72, 0.04, 12);
  Session session = engine.session(g);
  session.run(engine::Articulations{});  // artifacts in place

  Policy device_route;
  device_route.min_device_batch = 1;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::vector<NodeId> nodes;
  util::Rng rng(5);
  for (int i = 0; i < 64; ++i) {
    pairs.push_back({static_cast<NodeId>(rng.below(g.num_nodes)),
                     static_cast<NodeId>(rng.below(g.num_nodes))});
    nodes.push_back(static_cast<NodeId>(rng.below(g.num_nodes)));
  }
  const std::uint64_t before = engine.device_launches();
  session.run(engine::SameBcc{pairs}, device_route);
  EXPECT_EQ(engine.device_launches(), before + 1);
  session.run(engine::CcMembership{nodes}, device_route);
  EXPECT_EQ(engine.device_launches(), before + 2);
}

TEST(BccPins, BfsLevelsPairsSharingASourceShareOneTraversal) {
  Engine engine({.device_workers = 2});
  const EdgeList g = gen::road_graph(20, 20, 0.72, 0.04, 13);
  Session session = engine.session(g);
  session.run(engine::Articulations{});

  Policy device_route;
  device_route.min_device_batch = 1;
  const NodeId s = 7;
  session.run(engine::BfsLevels{{{s, 0}}}, device_route);  // warm the CSR
  const std::uint64_t before_one = engine.device_launches();
  session.run(engine::BfsLevels{{{s, 12}}}, device_route);
  const std::uint64_t one = engine.device_launches() - before_one;
  ASSERT_GT(one, 0u);

  std::vector<std::pair<NodeId, NodeId>> batch;
  for (NodeId t = 0; t < 16; ++t) batch.push_back({s, t});
  const std::uint64_t before_many = engine.device_launches();
  session.run(engine::BfsLevels{batch}, device_route);
  // The pin: 16 same-source pairs, exactly the one traversal's launches.
  EXPECT_EQ(engine.device_launches() - before_many, one);
}

TEST(BccPins, PolicyFloorForcesTheDeviceRoute) {
  Engine engine({.device_workers = 2});
  const EdgeList g = gen::road_graph(16, 16, 0.72, 0.04, 14);
  Session session = engine.session(g);
  session.run(engine::Articulations{});

  Policy device_route;
  device_route.min_device_batch = 1;
  const std::uint64_t before = engine.device_launches();
  // Default policy would host-route a 2-pair batch; the policy floor wins.
  session.run(engine::SameBcc{{{0, 1}, {2, 3}}}, device_route);
  EXPECT_EQ(engine.device_launches(), before + 1);

  const std::uint64_t after = engine.device_launches();
  session.run(engine::SameBcc{{{0, 1}, {2, 3}}});
  EXPECT_EQ(engine.device_launches(), after);  // host route again
}

TEST(BccPins, FirstReadAfterAViewSkipsTheForestTour) {
  Engine engine({.device_workers = 2});
  const EdgeList g = gen::road_graph(20, 20, 0.72, 0.04, 15);
  Session session = engine.session(g);
  const View view = session.view();  // fills the forest and its LCA

  std::uint64_t before = engine.device_launches();
  const auto arts = session.run(engine::Articulations{});
  const std::uint64_t engine_build = engine.device_launches() - before;

  // The standalone build on the same forest, and the rooting inside it.
  before = engine.device_launches();
  const BccIndex standalone = BccIndex::build(engine.device(), g, view.forest());
  const std::uint64_t standalone_build = engine.device_launches() - before;
  before = engine.device_launches();
  bridges::root_forest(engine.device(), g, view.forest());
  const std::uint64_t rooting = engine.device_launches() - before;
  ASSERT_GT(rooting, 0u);
  EXPECT_EQ(engine_build, standalone_build - rooting);
  EXPECT_EQ(arts, standalone.is_articulation);
}

TEST(BccPins, PublishLeavesTheBuildToTheFirstReader) {
  Engine engine({.device_workers = 2});
  dynamic::DynamicGraph dg(engine.device(), gen::cycle_graph(48));
  Session session = engine.session(dg);
  // Both publish paths — the full rebuild, then an insert-only replay —
  // leave the epoch's BCC cell empty: the first read builds, the second
  // reads the cell.
  for (int epoch = 0; epoch < 2; ++epoch) {
    SCOPED_TRACE(epoch);
    if (epoch == 1) {
      ASSERT_EQ(dg.insert_edges(engine.device(), {{0, 24}}), 1u);
    }
    const View view = session.view();
    EXPECT_EQ(session.publish_replays(), epoch == 0 ? 0u : 1u);
    const std::uint64_t before = engine.device_launches();
    const auto arts = view.run(engine::Articulations{});
    const std::uint64_t built = engine.device_launches();
    EXPECT_GT(built, before);
    EXPECT_EQ(view.run(engine::Articulations{}), arts);
    EXPECT_EQ(engine.device_launches(), built);
    EXPECT_EQ(arts.size(), 48u);
  }
}

// ------------------------------------------------------------- dispatcher

TEST(BccServe, AllFourFamiliesEndToEndThroughTheDispatcher) {
  Engine engine({.device_workers = 2});
  const device::Context ref_ctx = device::Context::sequential();
  const EdgeList g = graph::largest_component(
      graph::simplified(gen::road_graph(16, 16, 0.75, 0.05, 21)));
  Session session = engine.session(g);
  const ReferenceBcc ref(g);
  const graph::Csr csr = graph::build_csr(ref_ctx, g);

  serve::DispatcherOptions options;
  options.workers = 2;
  serve::Dispatcher dispatcher(session.view(), options);

  auto arts = dispatcher.submit(engine::Articulations{});
  auto same = dispatcher.submit(engine::SameBcc{{{0, 1}, {0, 5}, {3, 3}}});
  auto levels = dispatcher.submit(engine::BfsLevels{{{0, 1}, {0, 9}}});
  auto cc = dispatcher.submit(engine::CcMembership{{0, 1, 2, 3}});

  const auto arts_reply = arts.get();
  ASSERT_EQ(arts_reply.status, serve::Status::kOk);
  ASSERT_EQ(arts_reply.value.size(), static_cast<std::size_t>(g.num_nodes));
  for (NodeId v = 0; v < g.num_nodes; ++v) {
    EXPECT_EQ(arts_reply.value[v] != 0, ref.is_articulation[v] != 0);
  }
  const auto same_reply = same.get();
  ASSERT_TRUE(same_reply.ok());
  EXPECT_EQ(same_reply.value[0] != 0, ref.same_bcc(0, 1));
  EXPECT_EQ(same_reply.value[1] != 0, ref.same_bcc(0, 5));
  EXPECT_NE(same_reply.value[2], 0u);
  const auto levels_reply = levels.get();
  ASSERT_TRUE(levels_reply.ok());
  const std::vector<NodeId> dist = test_support::bfs_levels(csr, 0);
  EXPECT_EQ(levels_reply.value[0], dist[1]);
  EXPECT_EQ(levels_reply.value[1], dist[9]);
  const auto cc_reply = cc.get();
  ASSERT_TRUE(cc_reply.ok());
  ASSERT_EQ(cc_reply.value.size(), 4u);  // one component: labels all equal
  EXPECT_EQ(cc_reply.value[0], cc_reply.value[3]);

  dispatcher.stop();
  const serve::DispatcherStats stats = dispatcher.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.answered, 4u);
  EXPECT_EQ(stats.unsupported, 0u);
  EXPECT_EQ(stats.submitted,
            stats.answered + stats.shed + stats.rejected + stats.expired +
                stats.cancelled + stats.faulted + stats.unsupported);
}

TEST(BccServe, CoalescerDedupCachePinsRepeatedPairsInOneRound) {
  Engine engine({.device_workers = 2});
  const EdgeList g = graph::largest_component(
      graph::simplified(gen::road_graph(16, 16, 0.75, 0.05, 22)));
  Session session = engine.session(g);
  const ReferenceBcc ref(g);

  Policy device_route;
  device_route.min_device_batch = 1;
  serve::DispatcherOptions options;
  options.workers = 1;  // deterministic: one drainer, one round
  options.start_paused = true;
  serve::Dispatcher dispatcher(session.view(device_route), options);
  session.run(engine::Articulations{});  // artifact up front, off the pin

  // A Zipf-shaped round: 12x the hot pair, 4x a second pair, 1x the hot
  // pair reversed (order-sensitive: {b,a} is NOT a duplicate of {a,b}).
  const std::pair<NodeId, NodeId> hot{0, 1}, warm{2, 5};
  std::vector<std::pair<NodeId, NodeId>> submitted;
  std::vector<std::future<serve::Reply<std::vector<std::uint8_t>>>> futures;
  for (int i = 0; i < 12; ++i) submitted.push_back(hot);
  for (int i = 0; i < 4; ++i) submitted.push_back(warm);
  submitted.push_back({hot.second, hot.first});
  for (const auto& pair : submitted) {
    futures.push_back(dispatcher.submit(engine::SameBcc{{pair}}));
  }

  const std::uint64_t before = engine.device_launches();
  dispatcher.resume();
  for (std::size_t i = 0; i < submitted.size(); ++i) {
    const auto reply = futures[i].get();
    ASSERT_EQ(reply.status, serve::Status::kOk);
    ASSERT_EQ(reply.value.size(), 1u);
    const auto [u, v] = submitted[i];
    EXPECT_EQ(reply.value[0] != 0, ref.same_bcc(u, v)) << u << "," << v;
  }
  // The pins: 17 payload pairs, 3 distinct -> 14 cache hits, and still
  // exactly ONE bulk kernel for the whole round.
  EXPECT_EQ(engine.device_launches(), before + 1);
  dispatcher.stop();
  const serve::DispatcherStats stats = dispatcher.stats();
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.coalesced_requests, submitted.size());
  EXPECT_EQ(stats.coalesce_cache_hits, 14u);
  EXPECT_EQ(stats.answered, submitted.size());
}

// ---------------------------------------------------------------- sharded

/// Random simple graph (sharded stores have set semantics: duplicates and
/// self-loops are dropped at the façade, so the canonical edge set is the
/// deduped one — multigraph coverage lives in the unsharded fuzz above).
EdgeList random_simple(util::Rng& rng, NodeId n, std::size_t tries) {
  std::map<std::uint64_t, Edge> keyed;
  for (std::size_t i = 0; i < tries; ++i) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto v = static_cast<NodeId>(rng.below(n));
    if (u == v) continue;
    const auto lo = std::min(u, v), hi = std::max(u, v);
    keyed.insert({(static_cast<std::uint64_t>(lo) << 32) | hi, Edge{u, v}});
  }
  EdgeList g;
  g.num_nodes = n;
  for (const auto& [key, e] : keyed) g.edges.push_back(e);
  return g;
}

shard::ShardedOptions fast_options(std::size_t shards) {
  shard::ShardedOptions opts;
  opts.shards = shards;
  opts.shard_workers = 1;
  opts.ingest.admission = ingest::Admission::kBlock;
  opts.ingest.max_batch = 8;
  opts.ingest.linger = std::chrono::microseconds(0);
  opts.ingest.publish_every = 1;
  return opts;
}

void expect_sharded_matches(Engine& engine, const shard::ShardedView& view,
                            const EdgeList& expected) {
  const NodeId n = expected.num_nodes;
  Session session = engine.session(expected);
  const ReferenceBcc ref(expected);

  const auto got_arts = view.run(engine::Articulations{});
  const auto want_arts = session.run(engine::Articulations{});
  ASSERT_EQ(got_arts.size(), static_cast<std::size_t>(n));
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u; v < n; ++v) pairs.push_back({u, v});
  }
  const auto got_same = view.run(engine::SameBcc{pairs});
  const auto want_same = session.run(engine::SameBcc{{pairs}});
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(got_arts[v] != 0, ref.is_articulation[v] != 0)
        << "articulation(" << v << ") vs reference";
    ASSERT_EQ(got_arts[v], want_arts[v])
        << "articulation(" << v << ") vs unsharded session";
    ASSERT_EQ(view.is_articulation(v), got_arts[v] != 0);
  }
  for (std::size_t q = 0; q < pairs.size(); ++q) {
    const auto [u, v] = pairs[q];
    ASSERT_EQ(got_same[q] != 0, ref.same_bcc(u, v))
        << "same_bcc(" << u << ", " << v << ") vs reference";
    ASSERT_EQ(got_same[q], want_same[q])
        << "same_bcc(" << u << ", " << v << ") vs unsharded session";
    ASSERT_EQ(view.same_bcc(u, v), got_same[q] != 0);
  }

  std::vector<NodeId> nodes(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) nodes[v] = v;
  const auto got_cc = view.run(engine::CcMembership{nodes});
  EXPECT_EQ(test_support::partition_mismatch(
                got_cc, test_support::cc_labels(expected)),
            "")
      << "sharded cc_membership";
}

TEST(BccShard, CrossShardShapesStitchExactly) {
  Engine engine({.device_workers = 2});

  // Bowtie split across 2 shards (even/odd): cut vertex 2 is a boundary
  // endpoint AND a local articulation.
  {
    EdgeList g;
    g.num_nodes = 6;
    g.edges = {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}};
    shard::ShardedGraph sg(6, g, fast_options(2));
    sg.flush();
    expect_sharded_matches(engine, sg.view(), g);
  }
  // Cycle through 3 shards: every edge a boundary edge, one global block,
  // no articulations anywhere.
  {
    const EdgeList g = gen::cycle_graph(6);
    shard::ShardedGraph sg(6, g, fast_options(3));
    sg.flush();
    expect_sharded_matches(engine, sg.view(), g);
  }
  // Path through 2 shards: every internal vertex cuts, every vertex is a
  // boundary endpoint (so every one is preserved in the skeleton).
  {
    const EdgeList g = gen::path_graph(5);
    shard::ShardedGraph sg(5, g, fast_options(2));
    sg.flush();
    expect_sharded_matches(engine, sg.view(), g);
  }
  // The block-star killer: a local triangle {0,2,4} with two ears through
  // the other shard (0-1-3-4). The union is ONE biconnected block; a
  // stitch that contracted the local block to a star would wrongly call
  // its vertices articulations.
  {
    EdgeList g;
    g.num_nodes = 5;
    g.edges = {{0, 2}, {2, 4}, {0, 4}, {0, 1}, {1, 3}, {3, 4}};
    shard::ShardedGraph sg(5, g, fast_options(2));
    sg.flush();
    expect_sharded_matches(engine, sg.view(), g);
  }
  // Shards that own zero vertices (n=2, K=4) still stitch.
  {
    EdgeList g;
    g.num_nodes = 2;
    g.edges = {{0, 1}};
    shard::ShardedGraph sg(2, g, fast_options(4));
    sg.flush();
    expect_sharded_matches(engine, sg.view(), g);
  }
}

TEST(BccShard, DifferentialFuzzVsUnshardedAndReference) {
  const auto fuzz = test_support::fuzz_run(/*seed=*/6163, /*rounds=*/40);
  SCOPED_TRACE(fuzz.trace);
  Engine engine({.device_workers = 2});

  util::Rng rng(fuzz.seed);
  for (int round = 0; round < fuzz.rounds; ++round) {
    const auto n = static_cast<NodeId>(2 + rng.below(22));
    const std::size_t shards = 1 + rng.below(4);
    const EdgeList g = random_simple(rng, n, 2 + rng.below(40));
    SCOPED_TRACE("round " + std::to_string(round) + " n=" +
                 std::to_string(n) + " m=" + std::to_string(g.edges.size()) +
                 " k=" + std::to_string(shards));
    shard::ShardedGraph sg(n, g, fast_options(shards));
    sg.flush();
    expect_sharded_matches(engine, sg.view(), g);
  }
}

TEST(BccShard, DispatcherServesThreeFamiliesAndRefusesBfsHonestly) {
  EdgeList g;
  g.num_nodes = 6;
  g.edges = {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}};
  shard::ShardedGraph sg(6, g, fast_options(2));
  sg.flush();
  shard::ShardedDispatcher dispatcher(sg);

  auto arts = dispatcher.submit(engine::Articulations{});
  auto same = dispatcher.submit(engine::SameBcc{{{0, 1}, {1, 3}}});
  auto cc = dispatcher.submit(engine::CcMembership{{0, 3, 5}});
  auto bfs = dispatcher.submit(engine::BfsLevels{{{0, 4}}});

  const shard::ShardedView view = sg.view();
  const auto arts_reply = arts.get();
  ASSERT_EQ(arts_reply.status, serve::Status::kOk);
  EXPECT_EQ(arts_reply.value, view.run(engine::Articulations{}));
  const auto same_reply = same.get();
  ASSERT_TRUE(same_reply.ok());
  EXPECT_EQ(same_reply.value, view.run(engine::SameBcc{{{0, 1}, {1, 3}}}));
  const auto cc_reply = cc.get();
  ASSERT_TRUE(cc_reply.ok());
  EXPECT_EQ(cc_reply.value, view.run(engine::CcMembership{{{0, 3, 5}}}));
  // The honest refusal: exact cross-shard BFS is a recorded follow-up, so
  // the façade resolves immediately with kUnsupported — never kOk with a
  // wrong level, never a hang.
  const auto bfs_reply = bfs.get();
  EXPECT_EQ(bfs_reply.status, serve::Status::kUnsupported);
  EXPECT_TRUE(bfs_reply.value.empty());

  dispatcher.stop();
  const shard::ShardedStats stats = dispatcher.stats();
  EXPECT_EQ(stats.dispatch.submitted, 4u);
  EXPECT_EQ(stats.dispatch.answered, 3u);
  EXPECT_EQ(stats.dispatch.unsupported, 1u);
  EXPECT_EQ(stats.dispatch.submitted,
            stats.dispatch.answered + stats.dispatch.shed +
                stats.dispatch.rejected + stats.dispatch.expired +
                stats.dispatch.cancelled + stats.dispatch.faulted +
                stats.dispatch.unsupported);
}

// ------------------------------------------------------------- failpoints

/// Faults the first read of a fresh epoch's BCC index — the lazy build —
/// at every hit of `site` in turn, reading through Session::run or, with
/// `through_view`, through the epoch's View. Each N gets a fresh engine
/// and setup (failpoints suspended): publish epoch 0 into a held View,
/// insert one edge, publish epoch 1 (a replay). Arm the one-shot `site:N`
/// and read Articulations. A read that throws must leave epoch 1's cell
/// empty, so the retry builds, and the held View must still answer for
/// epoch 0. After disarming, the retry must match the sequential
/// reference. The held View's index is read only after the fault: a
/// prior build would warm the scratch arena past what epoch 1's build
/// needs, leaving arena.alloc nothing to fault.
void sweep_bcc_build_faults(const char* site, bool through_view) {
  failpoint::disable_all();
  // A dense random core on nodes 0..191 with the pendant path 191..255:
  // every inner path node is a cut. Epoch 1 adds {255, 0}, which closes
  // the path into a cycle through the core and removes those cuts.
  const EdgeList base = [] {
    EdgeList g = gen::er_graph(192, 2000, 11);
    g.num_nodes = 256;
    for (NodeId v = 191; v < 255; ++v) g.edges.push_back({v, v + 1});
    return g;
  }();
  EdgeList closed = base;
  closed.edges.push_back({255, 0});
  const ReferenceBcc ref0(base);
  const ReferenceBcc ref1(closed);
  ASSERT_NE(ref0.is_articulation, ref1.is_articulation);
  const auto expect_truth = [](const std::vector<std::uint8_t>& arts,
                               const ReferenceBcc& ref, const char* what) {
    ASSERT_EQ(arts.size(), ref.is_articulation.size()) << what;
    for (std::size_t v = 0; v < arts.size(); ++v) {
      ASSERT_EQ(arts[v] != 0, ref.is_articulation[v] != 0)
          << what << " articulation(" << v << ")";
    }
  };

  std::uint64_t hits = 0;  // `site` hits of the unfaulted build
  std::size_t faulted_reads = 0;
  for (std::uint64_t n = 0; n <= hits + 2; ++n) {
    SCOPED_TRACE(std::string(site) + ":" + std::to_string(n) +
                 (through_view ? " (View::run)" : " (Session::run)"));
    Engine engine({.device_workers = 2});
    dynamic::DynamicGraph dg(engine.device(), base);
    Session session = engine.session(dg);
    View v0;
    View v1;
    {
      failpoint::ScopedSuspend quiet;
      v0 = session.view();
      ASSERT_EQ(dg.insert_edges(engine.device(), {{255, 0}}), 1u);
      v1 = session.view();
      ASSERT_EQ(session.publish_replays(), 1u);
      // Return the arena's backing memory, so the build below allocates
      // afresh rather than reusing what the replay grew.
      engine.device().arena().release();
    }
    const auto read = [&] {
      return through_view ? v1.run(engine::Articulations{})
                          : session.run(engine::Articulations{});
    };
    // n == 0 calibrates: a spec that never fires still counts the hits.
    ASSERT_TRUE(failpoint::configure(
        site, n == 0 ? "1000000000" : std::to_string(n).c_str()));
    bool threw = false;
    try {
      read();
    } catch (const failpoint::InjectedFault&) {
      threw = true;
    } catch (const std::bad_alloc&) {
      threw = true;
    }
    const std::uint64_t site_hits = failpoint::hits(site);
    const std::uint64_t fired = failpoint::fired(site);
    failpoint::disable_all();
    if (n == 0) {
      hits = site_hits;
      ASSERT_GT(hits, 0u);
      ASSERT_FALSE(threw);
      continue;
    }
    EXPECT_EQ(fired, n <= hits ? 1u : 0u);
    // Every fault throws, except an allocation fault in the arena's
    // end-of-scope consolidation: that one is absorbed, after the build
    // has already succeeded.
    if (std::string(site) == failpoint::kDeviceLaunch) {
      EXPECT_EQ(threw, fired != 0);
    } else {
      EXPECT_TRUE(!threw || fired != 0);
    }
    faulted_reads += threw ? 1 : 0;

    // A faulted build left the cell empty, so the retry builds; after a
    // clean read it only reads the cell.
    const std::uint64_t before = engine.device_launches();
    const auto arts1 = read();
    EXPECT_EQ(engine.device_launches() > before, threw);
    expect_truth(arts1, ref1, "epoch 1 retry");
    // The held View still answers for its own epoch.
    expect_truth(v0.run(engine::Articulations{}), ref0, "epoch 0 view");
  }
  EXPECT_GT(faulted_reads, 0u);
}

TEST(BccFailpoints, FaultAtEveryLaunchOfTheLazyBuildIsRetryable) {
  sweep_bcc_build_faults(failpoint::kDeviceLaunch, /*through_view=*/false);
  sweep_bcc_build_faults(failpoint::kDeviceLaunch, /*through_view=*/true);
}

TEST(BccFailpoints, FaultAtEveryAllocationOfTheLazyBuildIsRetryable) {
  sweep_bcc_build_faults(failpoint::kArenaAlloc, /*through_view=*/false);
  sweep_bcc_build_faults(failpoint::kArenaAlloc, /*through_view=*/true);
}

TEST(BccFailpoints, AnswersStayCorrectUnderRandomizedFaults) {
  const auto fuzz = test_support::fuzz_run(/*seed=*/3307, /*rounds=*/24);
  SCOPED_TRACE(fuzz.trace);

  failpoint::disable_all();  // the setup runs unarmed
  Engine engine({.device_workers = 2});
  dynamic::DynamicGraph dg(engine.device(), gen::er_graph(96, 180, fuzz.seed));
  Session session = engine.session(dg);
  util::Rng rng(fuzz.seed * 17 + 3);

  // Re-arm from the environment explicitly (the CI path); otherwise
  // rotate every site ourselves.
  const char* env_spec = std::getenv("EMC_FAILPOINT");
  const bool env_armed =
      env_spec != nullptr && failpoint::configure_from_string(env_spec) > 0;
  constexpr std::array<std::pair<const char*, const char*>, 4> kRotation{{
      {failpoint::kSnapshot, "0.4"},
      {failpoint::kPublish, "0.4"},
      {failpoint::kDeviceLaunch, "0.05"},
      {failpoint::kArenaAlloc, "0.3"},
  }};

  for (int round = 0; round < fuzz.rounds; ++round) {
    if (!env_armed) {
      failpoint::disable_all();
      const auto& [site, spec] = kRotation[round % kRotation.size()];
      ASSERT_TRUE(failpoint::configure(site, spec));
    }
    {
      // The writer's own mutation must stay fault-free: it is the ground
      // truth, not the system under test.
      failpoint::ScopedSuspend suspend;
      std::vector<Edge> batch;
      for (int i = 0; i < 4; ++i) {
        batch.push_back({static_cast<NodeId>(rng.below(96)),
                         static_cast<NodeId>(rng.below(96))});
      }
      dg.insert_edges(engine.device(), batch);
    }
    try {
      session.refresh();
    } catch (const failpoint::InjectedFault&) {
    } catch (const std::bad_alloc&) {
    }
    {
      // Resumable: an unarmed retry publishes whatever the armed one left.
      failpoint::ScopedSuspend suspend;
      session.refresh();
    }
    // The publish left the index to its first reader, which runs armed.
    std::vector<std::uint8_t> arts;
    try {
      arts = session.run(engine::Articulations{});
    } catch (const failpoint::InjectedFault&) {
    } catch (const std::bad_alloc&) {
    }
    failpoint::ScopedSuspend suspend;
    if (arts.empty()) arts = session.run(engine::Articulations{});  // retry
    // Either way the epoch serves exactly its own truth.
    const ReferenceBcc ref(session.view().edges());
    const auto pair = std::pair<NodeId, NodeId>{
        static_cast<NodeId>(rng.below(96)), static_cast<NodeId>(rng.below(96))};
    const auto same = session.run(engine::SameBcc{{pair}});
    ASSERT_EQ(same[0] != 0, ref.same_bcc(pair.first, pair.second));
    for (NodeId v = 0; v < 96; ++v) {
      ASSERT_EQ(arts[v] != 0, ref.is_articulation[v] != 0);
    }
  }
  failpoint::disable_all();
}

}  // namespace
}  // namespace emc::bcc
