#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <set>
#include <utility>
#include <vector>

#include "bridges/dfs_bridges.hpp"
#include "bridges/two_ecc.hpp"
#include "device/context.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/oracle.hpp"
#include "engine/engine.hpp"
#include "gen/graphs.hpp"
#include "graph/graph.hpp"
#include "support/fuzz_env.hpp"
#include "support/reference.hpp"
#include "util/rng.hpp"

namespace emc::dynamic {
namespace {

using graph::Edge;
using graph::EdgeList;

std::set<std::pair<NodeId, NodeId>> edge_set(const EdgeList& g) {
  std::set<std::pair<NodeId, NodeId>> s;
  for (const Edge& e : g.edges) {
    s.insert({std::min(e.u, e.v), std::max(e.u, e.v)});
  }
  return s;
}

void expect_oracle_matches_reference(const device::Context& ctx,
                                     const DynamicGraph& dg,
                                     const ConnectivityOracle& oracle,
                                     util::Rng& rng, int num_queries,
                                     const char* label) {
  const EdgeList& snap = dg.snapshot(ctx);
  const test_support::ReferenceOracle ref(ctx, snap);
  ASSERT_EQ(oracle.num_bridges(), ref.num_bridges) << label;
  for (int q = 0; q < num_queries; ++q) {
    const auto u = static_cast<NodeId>(rng.below(dg.num_nodes()));
    const auto v = static_cast<NodeId>(rng.below(dg.num_nodes()));
    ASSERT_EQ(oracle.same_2ecc(u, v), ref.comp[u] == ref.comp[v])
        << label << ": same_2ecc(" << u << ", " << v << ")";
    ASSERT_EQ(oracle.bridges_on_path(u, v), ref.bridges_on_path(u, v))
        << label << ": bridges_on_path(" << u << ", " << v << ")";
    ASSERT_EQ(oracle.component_size(u), ref.comp_size[u])
        << label << ": component_size(" << u << ")";
  }
}

class DynamicParam : public ::testing::TestWithParam<unsigned> {
 protected:
  device::Context ctx_{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(Workers, DynamicParam, ::testing::Values(1u, 4u));

// ----------------------------------------------------------- DCSR storage

TEST_P(DynamicParam, InsertEraseBasics) {
  DynamicGraph dg(5);
  EXPECT_EQ(dg.num_edges(), 0u);
  EXPECT_EQ(dg.insert_edges(ctx_, {{0, 1}, {1, 2}, {2, 3}}), 3u);
  EXPECT_EQ(dg.epoch(), 1u);
  EXPECT_TRUE(dg.has_edge(0, 1));
  EXPECT_TRUE(dg.has_edge(2, 1));  // undirected
  EXPECT_FALSE(dg.has_edge(0, 3));
  EXPECT_EQ(dg.degree(1), 2);
  EXPECT_EQ(dg.erase_edges(ctx_, {{1, 2}}), 1u);
  EXPECT_FALSE(dg.has_edge(1, 2));
  EXPECT_EQ(dg.num_edges(), 2u);
  EXPECT_EQ(dg.epoch(), 2u);
}

TEST_P(DynamicParam, NoOpBatchesDoNotAdvanceEpoch) {
  DynamicGraph dg(4);
  dg.insert_edges(ctx_, {{0, 1}, {1, 2}});
  const std::uint64_t epoch = dg.epoch();
  // Empty batch.
  EXPECT_EQ(dg.insert_edges(ctx_, {}), 0u);
  // All duplicates (including reversed orientation and in-batch repeats).
  EXPECT_EQ(dg.insert_edges(ctx_, {{0, 1}, {1, 0}, {2, 1}, {0, 1}}), 0u);
  // Self-loops and out-of-range endpoints are dropped.
  EXPECT_EQ(dg.insert_edges(ctx_, {{2, 2}, {-1, 0}, {0, 9}}), 0u);
  // Erasing absent edges.
  EXPECT_EQ(dg.erase_edges(ctx_, {{0, 2}, {3, 1}}), 0u);
  EXPECT_EQ(dg.epoch(), epoch);
  EXPECT_EQ(dg.num_edges(), 2u);
}

TEST_P(DynamicParam, BatchDuplicatesCountOnce) {
  DynamicGraph dg(4);
  EXPECT_EQ(dg.insert_edges(ctx_, {{0, 1}, {1, 0}, {0, 1}, {2, 3}}), 2u);
  EXPECT_EQ(dg.num_edges(), 2u);
  EXPECT_EQ(dg.degree(0), 1);
}

TEST_P(DynamicParam, ConstructorCanonicalizesInitialEdges) {
  EdgeList raw;
  raw.num_nodes = 4;
  raw.edges = {{0, 1}, {1, 0}, {0, 0}, {1, 2}, {1, 2}, {2, 3}};
  const DynamicGraph dg(ctx_, raw);
  EXPECT_EQ(dg.num_edges(), 3u);
  EXPECT_TRUE(dg.has_edge(0, 1));
  EXPECT_FALSE(dg.has_edge(0, 0));
  const EdgeList& snap = dg.snapshot(ctx_);
  EXPECT_TRUE(snap.valid());
  EXPECT_EQ(edge_set(snap),
            (std::set<std::pair<NodeId, NodeId>>{{0, 1}, {1, 2}, {2, 3}}));
}

TEST_P(DynamicParam, SnapshotIsCachedPerEpoch) {
  DynamicGraph dg(6);
  dg.insert_edges(ctx_, {{0, 1}, {1, 2}});
  const EdgeList* first = &dg.snapshot(ctx_);
  EXPECT_EQ(first, &dg.snapshot(ctx_));  // zero-copy within an epoch
  dg.insert_edges(ctx_, {{0, 1}});       // no-op: cache stays warm
  EXPECT_EQ(first, &dg.snapshot(ctx_));
  dg.insert_edges(ctx_, {{2, 3}});
  EXPECT_EQ(dg.snapshot(ctx_).edges.size(), 3u);
}

TEST_P(DynamicParam, SnapshotCsrAlignsWithSnapshotEdgeOrder) {
  DynamicGraph dg(5);
  dg.insert_edges(ctx_, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}});
  const EdgeList& snap = dg.snapshot(ctx_);
  const graph::Csr csr = graph::build_csr(ctx_, snap);
  ASSERT_EQ(csr.num_edges(), snap.edges.size());
  for (NodeId v = 0; v < dg.num_nodes(); ++v) {
    for (EdgeId i = csr.row_offsets[v]; i < csr.row_offsets[v + 1]; ++i) {
      const Edge e = snap.edges[csr.edge_ids[i]];
      EXPECT_TRUE((e.u == v && e.v == csr.neighbors[i]) ||
                  (e.v == v && e.u == csr.neighbors[i]));
    }
  }
}

TEST_P(DynamicParam, CsrOfAppendedSnapshotsStaysExact) {
  DynamicGraph dg(ctx_, gen::cycle_graph(32));
  (void)dg.snapshot(ctx_);  // epoch-0 snapshot: full segment export

  // Back-to-back insert-only epochs append the delta to the cached edge
  // snapshot; a Csr built from it is a valid adjacency with edge ids
  // aligned to snapshot order.
  dg.insert_edges(ctx_, {{0, 5}, {1, 9}});
  (void)dg.snapshot(ctx_);
  dg.insert_edges(ctx_, {{2, 11}});
  const EdgeList& snap = dg.snapshot(ctx_);
  EXPECT_EQ(dg.num_snapshot_appends(), 2u);
  const graph::Csr csr = graph::build_csr(ctx_, snap);
  EXPECT_TRUE(graph::csr_matches(snap, csr));
  for (NodeId v = 0; v < dg.num_nodes(); ++v) {
    for (EdgeId i = csr.row_offsets[v]; i < csr.row_offsets[v + 1]; ++i) {
      const Edge e = snap.edges[csr.edge_ids[i]];
      EXPECT_TRUE((e.u == v && e.v == csr.neighbors[i]) ||
                  (e.v == v && e.u == csr.neighbors[i]));
    }
  }

  // An erase re-exports the segments; the next insert-only epoch appends
  // again on the fresh base, and both Csrs stay exact.
  dg.erase_edges(ctx_, {{0, 1}});
  EXPECT_TRUE(graph::csr_matches(dg.snapshot(ctx_),
                                 graph::build_csr(ctx_, dg.snapshot(ctx_))));
  dg.insert_edges(ctx_, {{3, 13}});
  EXPECT_TRUE(graph::csr_matches(dg.snapshot(ctx_),
                                 graph::build_csr(ctx_, dg.snapshot(ctx_))));
  EXPECT_EQ(dg.num_snapshot_appends(), 3u);
}

TEST_P(DynamicParam, CompactionPreservesEdgesAndAmortizes) {
  DynamicGraph dg(50);
  std::set<std::pair<NodeId, NodeId>> ref;
  util::Rng rng(7);
  for (int round = 0; round < 30; ++round) {
    std::vector<Edge> batch;
    for (int i = 0; i < 40; ++i) {
      const auto u = static_cast<NodeId>(rng.below(50));
      const auto v = static_cast<NodeId>(rng.below(50));
      batch.push_back({u, v});
      if (u != v) ref.insert({std::min(u, v), std::max(u, v)});
    }
    dg.insert_edges(ctx_, batch);
  }
  EXPECT_GT(dg.num_compactions(), 0u);  // slack was exhausted along the way
  EXPECT_EQ(edge_set(dg.snapshot(ctx_)), ref);
  EXPECT_EQ(dg.num_edges(), ref.size());
  // Capacity tracks occupancy (slack is a constant factor, not unbounded).
  EXPECT_LE(dg.slot_capacity(), 2 * 2 * ref.size() + 4 * 50);
}

TEST_P(DynamicParam, LastDeltaTracksAppliedBatches) {
  DynamicGraph dg(6);
  EXPECT_EQ(dg.last_delta().from_epoch, UpdateDelta::kNoDelta);

  dg.insert_edges(ctx_, {{1, 0}, {1, 2}, {0, 1}, {2, 2}});
  const UpdateDelta& delta = dg.last_delta();
  EXPECT_EQ(delta.from_epoch, 0u);
  EXPECT_TRUE(delta.insert_only());
  // Canonical (u < v), deduplicated, invalid entries dropped.
  EXPECT_EQ(delta.inserted,
            (std::vector<Edge>{{0, 1}, {1, 2}}));

  // No-op batches leave the delta untouched.
  dg.insert_edges(ctx_, {{0, 1}});
  dg.erase_edges(ctx_, {{3, 4}});
  EXPECT_EQ(dg.last_delta().from_epoch, 0u);
  EXPECT_EQ(dg.last_delta().inserted.size(), 2u);

  // An effective erase replaces it and flips the side.
  dg.erase_edges(ctx_, {{2, 1}, {4, 5}});
  EXPECT_EQ(dg.last_delta().from_epoch, 1u);
  EXPECT_FALSE(dg.last_delta().insert_only());
  EXPECT_EQ(dg.last_delta().erased, (std::vector<Edge>{{1, 2}}));
  EXPECT_TRUE(dg.last_delta().inserted.empty());
}

TEST_P(DynamicParam, SeededConstructorHasNoDelta) {
  const DynamicGraph dg(ctx_, gen::cycle_graph(5));
  // The initial edges are epoch 0 itself, not a delta on top of it.
  EXPECT_EQ(dg.last_delta().from_epoch, UpdateDelta::kNoDelta);
  EXPECT_EQ(dg.epoch(), 0u);
}

// ------------------------------------------------------------- the oracle
//
// The 2-ecc index is driven the way every caller drives it: through a
// Session on the graph, whose TwoEcc request brings it to the graph's epoch.

/// Runs a TwoEcc request; true iff it advanced the session's 2-ecc index
/// (a build or a replay ran), false if the index was already current.
bool advance(engine::Session& session) {
  const auto steps = [&] {
    const ConnectivityOracle& oracle = session.two_ecc_index();
    return oracle.rebuilds() + oracle.incremental_refreshes();
  };
  const std::size_t before = steps();
  session.run(engine::TwoEcc{});
  return steps() > before;
}

TEST_P(DynamicParam, OracleTracksBridgeAcrossUpdates) {
  // Two triangles joined by a bridge.
  DynamicGraph dg(6);
  dg.insert_edges(ctx_,
                  {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}});
  engine::Engine engine({.device_workers = GetParam()});
  engine::Session session = engine.session(dg);
  const ConnectivityOracle& oracle = session.two_ecc_index();
  EXPECT_TRUE(advance(session));
  EXPECT_EQ(oracle.num_bridges(), 1u);
  EXPECT_TRUE(oracle.same_2ecc(0, 2));
  EXPECT_FALSE(oracle.same_2ecc(0, 3));
  EXPECT_EQ(oracle.bridges_on_path(0, 5), 1);
  EXPECT_EQ(oracle.bridges_on_path(0, 1), 0);
  EXPECT_EQ(oracle.component_size(0), 3);

  // The graph loses all bridges after an insert closing a second path.
  dg.insert_edges(ctx_, {{1, 4}});
  EXPECT_TRUE(advance(session));
  EXPECT_EQ(oracle.num_bridges(), 0u);
  EXPECT_TRUE(oracle.same_2ecc(0, 5));
  EXPECT_EQ(oracle.bridges_on_path(0, 5), 0);
  EXPECT_EQ(oracle.component_size(0), 6);
  EXPECT_EQ(oracle.num_blocks(), 1u);
}

TEST_P(DynamicParam, OracleOnDisconnectedGraphGainingConnectingEdge) {
  DynamicGraph dg(7);
  dg.insert_edges(ctx_, {{0, 1}, {1, 2}, {2, 0},    // triangle
                         {3, 4}, {4, 5}, {5, 3}});  // triangle, node 6 alone
  engine::Engine engine({.device_workers = GetParam()});
  engine::Session session = engine.session(dg);
  const ConnectivityOracle& oracle = session.two_ecc_index();
  advance(session);
  EXPECT_EQ(oracle.num_bridges(), 0u);
  EXPECT_EQ(oracle.bridges_on_path(0, 3), kNoNode);  // different components
  EXPECT_EQ(oracle.bridges_on_path(0, 6), kNoNode);
  EXPECT_EQ(oracle.component_size(6), 1);

  dg.insert_edges(ctx_, {{2, 3}});  // the connecting edge
  advance(session);
  EXPECT_EQ(oracle.num_bridges(), 1u);
  EXPECT_EQ(oracle.bridges_on_path(0, 3), 1);
  EXPECT_EQ(oracle.bridges_on_path(0, 6), kNoNode);  // 6 is still isolated
}

TEST_P(DynamicParam, ConstructorIgnoresOutOfRangeEndpoints) {
  graph::EdgeList raw;
  raw.num_nodes = 3;
  raw.edges = {{0, 1}, {0, 7}, {-2, 1}, {1, 2}};
  const DynamicGraph dg(ctx_, raw);
  EXPECT_EQ(dg.num_edges(), 2u);
  EXPECT_TRUE(dg.has_edge(0, 1));
  EXPECT_TRUE(dg.has_edge(1, 2));
}

// Adversarial inputs the dynamic path produces, cross-checked against the
// standalone two_edge_components entry point.
TEST_P(DynamicParam, TwoEccOnDynamicSnapshots) {
  DynamicGraph dg(6);
  engine::Engine engine({.device_workers = GetParam()});
  engine::Session session = engine.session(dg);
  const ConnectivityOracle& oracle = session.two_ecc_index();

  // Disconnected snapshot (two paths): every node is its own 2ecc.
  dg.insert_edges(ctx_, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  advance(session);
  const EdgeList& snap = dg.snapshot(ctx_);
  const auto mask =
      bridges::find_bridges_dfs(graph::build_csr(ctx_, dg.snapshot(ctx_)));
  const auto labels = bridges::two_edge_components(ctx_, snap, mask);
  for (NodeId u = 0; u < 6; ++u) {
    for (NodeId v = 0; v < 6; ++v) {
      EXPECT_EQ(labels[u] == labels[v], oracle.same_2ecc(u, v));
    }
  }
  EXPECT_EQ(oracle.num_blocks(), 6u);

  // Cycle-closing inserts kill every bridge.
  dg.insert_edges(ctx_, {{2, 3}, {5, 0}});
  advance(session);
  EXPECT_EQ(oracle.num_bridges(), 0u);
  EXPECT_EQ(oracle.num_blocks(), 1u);
}

// ------------------------------------------------ launch-count guarantees

TEST(DynamicLaunches, QueryBatchesAreSingleKernels) {
  engine::Engine engine({.device_workers = 2});
  DynamicGraph dg(engine.device(), gen::road_graph(20, 20, 0.7, 0.05, 3));
  engine::Session session = engine.session(dg);
  engine::Policy device_route;
  device_route.min_device_batch = 1;
  util::Rng rng(11);
  std::vector<std::pair<NodeId, NodeId>> queries(4096);
  for (auto& [u, v] : queries) {
    u = static_cast<NodeId>(rng.below(dg.num_nodes()));
    v = static_cast<NodeId>(rng.below(dg.num_nodes()));
  }
  std::vector<NodeId> singles(4096);
  for (auto& v : singles) v = static_cast<NodeId>(rng.below(dg.num_nodes()));
  session.run(engine::Same2Ecc{queries});  // 2-ecc index in place

  // Each forced device batch is ONE answer kernel — no per-query launches.
  std::uint64_t before = engine.device_launches();
  session.run(engine::Same2Ecc{queries}, device_route);
  EXPECT_EQ(engine.device_launches() - before, 1u);

  before = engine.device_launches();
  session.run(engine::BridgesOnPath{queries}, device_route);
  EXPECT_EQ(engine.device_launches() - before, 1u);

  before = engine.device_launches();
  session.run(engine::ComponentSize{singles}, device_route);
  EXPECT_EQ(engine.device_launches() - before, 1u);
}

TEST(DynamicLaunches, UpdateBatchLaunchesIndependentOfBatchSize) {
  const device::Context ctx = device::Context::device();
  auto launches_for = [&](std::size_t batch_size) {
    DynamicGraph dg(2000);
    util::Rng rng(batch_size);
    std::vector<Edge> batch(batch_size);
    for (auto& e : batch) {
      e.u = static_cast<NodeId>(rng.below(2000));
      e.v = static_cast<NodeId>(rng.below(2000));
    }
    const std::uint64_t before = ctx.launch_count();
    dg.insert_edges(ctx, batch);
    return ctx.launch_count() - before;
  };
  // Sort pass counts adapt to key bits, not batch size; everything else is
  // a fixed kernel sequence. A 64x larger batch must not launch more.
  EXPECT_LE(launches_for(1 << 16), launches_for(1 << 10) + 2);
}

// ------------------------------------------------------------------- fuzz

TEST(DynamicFuzz, OracleMatchesFromScratchRecompute) {
  const device::Context ctx(2);
  constexpr NodeId kNodes = 48;
  const std::uint64_t seed = test_support::fuzz_seed(2026);
  const int rounds = test_support::fuzz_rounds(120);
  util::Rng rng(seed);
  test_support::BatchScript script;

  DynamicGraph dg(kNodes);
  engine::Engine engine({.device_workers = 2});
  engine::Session session = engine.session(dg);
  const ConnectivityOracle& oracle = session.two_ecc_index();
  std::set<std::pair<NodeId, NodeId>> ref_edges;
  std::uint64_t last_epoch = ~std::uint64_t{0};
  std::size_t epochs = 0;  // distinct epochs the index was asked at

  for (int round = 0; round < rounds; ++round) {
    std::vector<Edge> batch;
    const std::size_t size = 1 + rng.below(24);
    const bool erase = round % 3 == 2 && !ref_edges.empty();
    if (erase) {
      // Mix of existing edges and absent ones (which must be ignored).
      std::vector<std::pair<NodeId, NodeId>> pool(ref_edges.begin(),
                                                  ref_edges.end());
      for (std::size_t i = 0; i < size; ++i) {
        if (rng.below(2) == 0) {
          const auto& [u, v] = pool[rng.below(pool.size())];
          batch.push_back({u, v});
        } else {
          batch.push_back({static_cast<NodeId>(rng.below(kNodes)),
                           static_cast<NodeId>(rng.below(kNodes))});
        }
      }
      for (const Edge& e : batch) {
        ref_edges.erase({std::min(e.u, e.v), std::max(e.u, e.v)});
      }
      script.add(round, "erase", batch);
      dg.erase_edges(ctx, batch);
    } else {
      for (std::size_t i = 0; i < size; ++i) {
        const auto u = static_cast<NodeId>(rng.below(kNodes));
        const auto v = static_cast<NodeId>(rng.below(kNodes));
        batch.push_back({u, v});
        if (u != v) ref_edges.insert({std::min(u, v), std::max(u, v)});
      }
      script.add(round, "insert", batch);
      dg.insert_edges(ctx, batch);
    }
    // The round's asserts live in an immediately-invoked lambda so a fatal
    // failure returns HERE (not out of the test), letting the replay print
    // below fire for every mismatch.
    [&] {
      ASSERT_EQ(dg.num_edges(), ref_edges.size()) << "round " << round;
      ASSERT_EQ(edge_set(dg.snapshot(ctx)), ref_edges) << "round " << round;
      // The index advances exactly once per epoch it is asked at.
      advance(session);
      if (dg.epoch() != last_epoch) ++epochs;
      last_epoch = dg.epoch();
      ASSERT_EQ(oracle.rebuilds() + oracle.incremental_refreshes(), epochs);
      expect_oracle_matches_reference(
          ctx, dg, oracle, rng, 24, ("round " + std::to_string(round)).c_str());
    }();
    if (::testing::Test::HasFailure()) {
      std::cerr << script.replay(seed, rounds);
      return;
    }
  }
}

}  // namespace
}  // namespace emc::dynamic
