// Incremental 2-ecc index maintenance under insertions.
//
// The contract: for an insert-only, size-bounded delta, the 2-ecc index a
// Session replays (ConnectivityOracle::insert under the Session's one
// replay rule) must be INDISTINGUISHABLE from a full build of the same
// snapshot — verified here three ways: differential fuzz against a
// from-scratch session and the shared sequential reference
// (tests/support/reference.hpp), launch-count pins showing the incremental
// path is a fixed kernel sequence cheaper than the build, and unit tests
// of the explicit fallback rule. Each test drives a Session on the graph;
// a TwoEcc request brings its index to the graph's epoch. The index named
// by Session::two_ecc_index() belongs to one epoch record, so the tests
// fetch it again after every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bridges/dfs_bridges.hpp"
#include "device/context.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/oracle.hpp"
#include "engine/engine.hpp"
#include "gen/graphs.hpp"
#include "graph/graph.hpp"
#include "lca/inlabel.hpp"
#include "support/fuzz_env.hpp"
#include "support/reference.hpp"
#include "util/rng.hpp"

namespace emc::dynamic {
namespace {

using graph::Edge;
using graph::EdgeList;
using engine::Engine;
using engine::Session;
using engine::TwoEcc;
using test_support::canonical_partition;

/// Diffs `session`'s 2-ecc index against a scratch Session's (the full
/// pipeline) AND the sequential reference on the same snapshot: structure
/// counts plus a query sample.
void expect_equivalent_to_full_rebuild(Engine& engine, const DynamicGraph& dg,
                                       const Session& session, util::Rng& rng,
                                       int num_queries) {
  const device::Context& ctx = engine.device();
  const ConnectivityOracle& oracle = session.two_ecc_index();
  Session scratch = engine.session(dg);
  scratch.run(TwoEcc{});
  const ConnectivityOracle& fresh = scratch.two_ecc_index();
  ASSERT_EQ(oracle.num_bridges(), fresh.num_bridges());
  ASSERT_EQ(oracle.num_blocks(), fresh.num_blocks());
  const test_support::ReferenceOracle ref(ctx, dg.snapshot());
  ASSERT_EQ(oracle.num_bridges(), ref.num_bridges);
  for (int q = 0; q < num_queries; ++q) {
    const auto u = static_cast<NodeId>(rng.below(dg.num_nodes()));
    const auto v = static_cast<NodeId>(rng.below(dg.num_nodes()));
    ASSERT_EQ(oracle.same_2ecc(u, v), fresh.same_2ecc(u, v))
        << "same_2ecc(" << u << ", " << v << ")";
    ASSERT_EQ(oracle.same_2ecc(u, v), ref.comp[u] == ref.comp[v])
        << "same_2ecc(" << u << ", " << v << ") vs reference";
    ASSERT_EQ(oracle.bridges_on_path(u, v), fresh.bridges_on_path(u, v))
        << "bridges_on_path(" << u << ", " << v << ")";
    ASSERT_EQ(oracle.bridges_on_path(u, v), ref.bridges_on_path(u, v))
        << "bridges_on_path(" << u << ", " << v << ") vs reference";
    ASSERT_EQ(oracle.component_size(u), fresh.component_size(u))
        << "component_size(" << u << ")";
  }
}

/// Runs a TwoEcc request; true iff it moved the session to a new record
/// (a replay or a rebuild), false if the index was already current.
bool advance(Session& session) {
  const auto steps = [&] {
    return session.publish_replays() + session.publish_rebuilds();
  };
  const std::size_t before = steps();
  session.run(TwoEcc{});
  return steps() > before;
}

// --------------------------------------------------- the fallback rule

TEST(IncrementalRule, SizeRuleIsExplicit) {
  using O = ConnectivityOracle;
  // An empty delta disqualifies.
  EXPECT_FALSE(O::incremental_applies(0, 1000));
  // The floor keeps small graphs incremental...
  EXPECT_TRUE(O::incremental_applies(1, 0));
  EXPECT_TRUE(O::incremental_applies(O::kIncrementalFloor, 0));
  EXPECT_FALSE(O::incremental_applies(O::kIncrementalFloor + 1, 0));
  // ...and the ratio governs past it: inserted <= edges / kIncrementalRatio.
  EXPECT_TRUE(O::incremental_applies(250, 1000));
  EXPECT_FALSE(O::incremental_applies(251, 1000));
}

TEST(IncrementalRule, InsertOnlyIntraComponentDeltaGoesIncremental) {
  const device::Context ctx(2);
  Engine engine({.device_workers = 2});
  // Two triangles joined by a bridge; closing a second path kills it.
  DynamicGraph dg(6);
  dg.insert_edges(ctx,
                  {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}});
  Session session = engine.session(dg);
  EXPECT_TRUE(advance(session));
  EXPECT_EQ(session.publish_rebuilds(), 1u);
  dg.insert_edges(ctx, {{1, 4}});
  EXPECT_TRUE(advance(session));
  EXPECT_EQ(session.publish_rebuilds(), 1u);  // no full pipeline this time
  EXPECT_EQ(session.publish_replays(), 1u);
  EXPECT_FALSE(advance(session));  // current: a repeat request runs nothing
  EXPECT_EQ(session.two_ecc_index().num_bridges(), 0u);
  EXPECT_EQ(session.two_ecc_index().num_blocks(), 1u);
  util::Rng rng(3);
  expect_equivalent_to_full_rebuild(engine, dg, session, rng, 36);
}

TEST(IncrementalRule, EraseBatchFallsBackToRebuild) {
  const device::Context ctx(2);
  Engine engine({.device_workers = 2});
  DynamicGraph dg(ctx, gen::cycle_graph(8));
  Session session = engine.session(dg);
  session.run(TwoEcc{});
  dg.erase_edges(ctx, {{0, 1}});
  EXPECT_TRUE(advance(session));
  EXPECT_EQ(session.publish_rebuilds(), 2u);
  EXPECT_EQ(session.publish_replays(), 0u);
  // The cycle became a path.
  EXPECT_EQ(session.two_ecc_index().num_bridges(), 7u);
}

TEST(IncrementalRule, CrossComponentInsertTreeLinks) {
  const device::Context ctx(2);
  Engine engine({.device_workers = 2});
  DynamicGraph dg(7);
  dg.insert_edges(ctx, {{0, 1}, {1, 2}, {2, 0},    // triangle
                        {3, 4}, {4, 5}, {5, 3}});  // triangle, 6 isolated
  Session session = engine.session(dg);
  session.run(TwoEcc{});
  // {2, 3} joins two components: it is a new bridge linking two forest
  // trees, replayed by splicing the link into the forest and its tour — no
  // full pipeline.
  dg.insert_edges(ctx, {{2, 3}});
  EXPECT_TRUE(advance(session));
  EXPECT_EQ(session.publish_rebuilds(), 1u);
  EXPECT_EQ(session.publish_replays(), 1u);
  EXPECT_EQ(session.two_ecc_index().num_bridges(), 1u);
  EXPECT_FALSE(session.two_ecc_index().same_2ecc(0, 3));
  EXPECT_EQ(session.two_ecc_index().bridges_on_path(0, 4), 1);
  // 6 is still isolated.
  EXPECT_EQ(session.two_ecc_index().bridges_on_path(0, 6), kNoNode);
  util::Rng rng(21);
  expect_equivalent_to_full_rebuild(engine, dg, session, rng, 36);

  // Linking the isolated node, together with an intra-component chord in
  // the same batch, exercises both replay paths in one refresh.
  dg.insert_edges(ctx, {{6, 0}, {1, 4}});
  EXPECT_TRUE(advance(session));
  EXPECT_EQ(session.publish_rebuilds(), 1u);
  EXPECT_EQ(session.publish_replays(), 2u);
  // {1,4} collapsed the old bridge.
  EXPECT_EQ(session.two_ecc_index().num_bridges(), 1u);
  EXPECT_TRUE(session.two_ecc_index().same_2ecc(0, 5));
  EXPECT_EQ(session.two_ecc_index().bridges_on_path(2, 6), 1);
  util::Rng rng2(22);
  expect_equivalent_to_full_rebuild(engine, dg, session, rng2, 36);
}

TEST(IncrementalRule, CycleClosingCrossBatchFallsBackToRebuild) {
  const device::Context ctx(2);
  Engine engine({.device_workers = 2});
  DynamicGraph dg(6);
  dg.insert_edges(ctx, {{0, 1}, {1, 2}, {2, 0},    // triangle
                        {3, 4}, {4, 5}, {5, 3}});  // triangle
  Session session = engine.session(dg);
  session.run(TwoEcc{});
  // Two edges between the SAME pair of components in one batch: the second
  // closes a cycle through the first, which no replay path can express
  // (it is neither a bridge nor intra-component on the indexed snapshot).
  dg.insert_edges(ctx, {{0, 3}, {1, 4}});
  EXPECT_TRUE(advance(session));
  EXPECT_EQ(session.publish_rebuilds(), 2u);
  EXPECT_EQ(session.publish_replays(), 0u);
  EXPECT_EQ(session.two_ecc_index().num_bridges(), 0u);
  EXPECT_TRUE(session.two_ecc_index().same_2ecc(0, 5));
  util::Rng rng(23);
  expect_equivalent_to_full_rebuild(engine, dg, session, rng, 24);
}

TEST(IncrementalRule, MultipleBatchesBehindReplayAsOneSuffix) {
  const device::Context ctx(2);
  Engine engine({.device_workers = 2});
  DynamicGraph dg(ctx, gen::cycle_graph(16));
  Session session = engine.session(dg);
  session.run(TwoEcc{});
  // Two effective batches with no refresh between: the edge log holds both,
  // so the index replays their concatenation in one step.
  dg.insert_edges(ctx, {{0, 2}});
  dg.insert_edges(ctx, {{0, 4}});
  EXPECT_TRUE(advance(session));
  EXPECT_EQ(session.publish_rebuilds(), 1u);
  EXPECT_EQ(session.publish_replays(), 1u);
  util::Rng rng(5);
  expect_equivalent_to_full_rebuild(engine, dg, session, rng, 24);

  // A gap that contains an erase has no log suffix: the index rebuilds.
  dg.insert_edges(ctx, {{0, 6}});
  dg.erase_edges(ctx, {{0, 2}});
  dg.insert_edges(ctx, {{0, 8}});
  EXPECT_TRUE(advance(session));
  EXPECT_EQ(session.publish_rebuilds(), 2u);
  EXPECT_EQ(session.publish_replays(), 1u);
  expect_equivalent_to_full_rebuild(engine, dg, session, rng, 24);
}

TEST(IncrementalRule, OversizedDeltaFallsBackToRebuild) {
  const device::Context ctx(2);
  Engine engine({.device_workers = 2});
  // Path on 200 nodes: m = 199, so the cutoff is max(64, 199/4) = 64.
  DynamicGraph dg(ctx, gen::path_graph(200));
  Session session = engine.session(dg);
  session.run(TwoEcc{});
  std::vector<Edge> batch;
  for (NodeId v = 0; v < 65; ++v) batch.push_back({v, static_cast<NodeId>(v + 100)});
  ASSERT_EQ(dg.insert_edges(ctx, batch), 65u);
  EXPECT_TRUE(advance(session));
  EXPECT_EQ(session.publish_rebuilds(), 2u);
  EXPECT_EQ(session.publish_replays(), 0u);
  util::Rng rng(6);
  expect_equivalent_to_full_rebuild(engine, dg, session, rng, 24);
}

TEST(IncrementalRule, LongCoveredPathReplays) {
  const device::Context ctx(2);
  Engine engine({.device_workers = 2});
  // Path graph: every edge a bridge, every node its own block, so an
  // inserted edge covers a tree path as long as its span. The delta size
  // (1) passes the size rule, and the interval test prices no path length,
  // so even a 999-bridge cover replays.
  DynamicGraph dg(ctx, gen::path_graph(1000));
  Session session = engine.session(dg);
  const engine::View path = session.view();  // held at the path epoch
  ASSERT_EQ(session.two_ecc_index().num_blocks(), 1000u);
  dg.insert_edges(ctx, {{0, 999}});
  EXPECT_TRUE(advance(session));
  EXPECT_EQ(session.publish_rebuilds(), 1u);
  EXPECT_EQ(session.publish_replays(), 1u);
  // The path closed into a cycle.
  EXPECT_EQ(session.two_ecc_index().num_bridges(), 0u);
  // A chord inside the merged block demotes nothing.
  dg.insert_edges(ctx, {{200, 205}});
  EXPECT_TRUE(advance(session));
  EXPECT_EQ(session.publish_rebuilds(), 1u);
  EXPECT_EQ(session.publish_replays(), 2u);
  util::Rng rng(9);
  expect_equivalent_to_full_rebuild(engine, dg, session, rng, 24);
  // The View held at the path epoch still answers for the path.
  EXPECT_EQ(path.run(engine::TwoEcc{}).num_bridges, 999u);
  EXPECT_EQ(path.run(engine::BridgesOnPath{{{0, 999}}})[0], 999);
}

TEST(IncrementalRule, BridgesRequestFirstAtANewEpochStillReplays) {
  const device::Context ctx(2);
  Engine engine({.device_workers = 2});
  // Two triangles joined by a bridge; {1, 4} closes a second path.
  DynamicGraph dg(6);
  dg.insert_edges(ctx,
                  {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}});
  Session session = engine.session(dg);
  session.run(TwoEcc{});
  dg.insert_edges(ctx, {{1, 4}});
  // The epoch fence replays on the Bridges request, the first one to reach
  // the new epoch; the TwoEcc request after it then finds the index current.
  EXPECT_EQ(bridges::count_bridges(session.run(engine::Bridges{})), 0u);
  EXPECT_EQ(session.publish_replays(), 1u);
  EXPECT_EQ(session.publish_rebuilds(), 1u);
  EXPECT_FALSE(advance(session));
  EXPECT_EQ(session.two_ecc_index().num_bridges(), 0u);
  util::Rng rng(4);
  expect_equivalent_to_full_rebuild(engine, dg, session, rng, 36);
}

TEST(IncrementalRule, WithinBlockInsertIsStructurallyInert) {
  const device::Context ctx(2);
  Engine engine({.device_workers = 2});
  // K4 plus a pendant: adding another chord inside the K4 block changes no
  // structure, but must still go through the incremental path and keep the
  // index exact.
  DynamicGraph dg(5);
  dg.insert_edges(ctx, {{0, 1}, {1, 2}, {2, 0}, {0, 3}, {1, 3}, {3, 4}});
  Session session = engine.session(dg);
  session.run(TwoEcc{});
  const std::size_t bridges_before = session.two_ecc_index().num_bridges();
  dg.insert_edges(ctx, {{2, 3}});  // inside the 2ecc {0,1,2,3}
  EXPECT_TRUE(advance(session));
  EXPECT_EQ(session.publish_replays(), 1u);
  EXPECT_EQ(session.two_ecc_index().num_bridges(), bridges_before);
  util::Rng rng(7);
  expect_equivalent_to_full_rebuild(engine, dg, session, rng, 25);
}

// ------------------------------------------------ launch-count guarantees

TEST(IncrementalLaunches, FixedKernelSequenceCheaperThanRebuild) {
  Engine engine;  // the default device context
  const device::Context& ctx = engine.device();
  // Road-like base: bridgy appendages over a 2-edge-connected core, all in
  // one giant component (reliability 1 keeps the grid connected).
  DynamicGraph dg(ctx, gen::road_graph(40, 40, 1.0, 0.05, 3));
  Session session = engine.session(dg);
  session.run(TwoEcc{});
  const auto cc = test_support::cc_labels(dg.snapshot());

  // Batches of intra-component edges, sizes 8 and 56: the incremental
  // refresh must take the same number of launches for both (the kernel
  // sequence is fixed; only per-kernel work scales with the delta).
  util::Rng rng(11);
  auto intra_batch = [&](std::size_t size) {
    std::vector<Edge> batch;
    while (batch.size() < size) {
      const auto u = static_cast<NodeId>(rng.below(dg.num_nodes()));
      const auto v = static_cast<NodeId>(rng.below(dg.num_nodes()));
      if (u != v && cc[u] == cc[v] && !dg.has_edge(u, v)) batch.push_back({u, v});
    }
    return batch;
  };
  auto refresh_launches = [&](const std::vector<Edge>& batch) {
    EXPECT_GT(dg.insert_edges(ctx, batch), 0u) << "batch was a no-op";
    const std::uint64_t before = ctx.launch_count();
    EXPECT_TRUE(advance(session));
    return ctx.launch_count() - before;
  };

  const std::uint64_t small = refresh_launches(intra_batch(8));
  const std::uint64_t large = refresh_launches(intra_batch(56));
  EXPECT_EQ(session.publish_replays(), 2u);
  EXPECT_EQ(small, large) << "incremental launch count must not scale with "
                             "the delta size";

  // And it must undercut the full pipeline on the same graph.
  Session scratch = engine.session(dg);
  const std::uint64_t before = ctx.launch_count();
  scratch.run(TwoEcc{});
  const std::uint64_t rebuild = ctx.launch_count() - before;
  EXPECT_LT(large, rebuild);
}

// ------------------------------------------------ the bridge-tree walk

TEST(IncrementalWalk, NonDemotingBatchRunsNoKernelAndSharesTheLabels) {
  Engine engine({.device_workers = 2});
  const device::Context& ctx = engine.device();
  // One cycle is one block: its chords demote nothing.
  DynamicGraph dg(ctx, gen::cycle_graph(64));
  Session session = engine.session(dg);
  session.refresh();
  const std::vector<NodeId>* labels = &session.two_ecc_index().block_labels();
  dg.insert_edges(ctx, {{0, 32}, {5, 40}});
  const std::uint64_t before = engine.device_launches();
  session.refresh();
  EXPECT_EQ(engine.device_launches(), before);
  EXPECT_EQ(session.publish_replays(), 1u);
  EXPECT_EQ(&session.two_ecc_index().block_labels(), labels);
  EXPECT_EQ(session.two_ecc_index().num_blocks(), 1u);
  EXPECT_EQ(session.two_ecc_index().num_bridges(), 0u);
}

TEST(IncrementalWalk, ReplayedMaskIsDerivedOnFirstReadAndMatchesDfs) {
  Engine engine({.device_workers = 2});
  const device::Context& ctx = engine.device();
  // Kron: hub-heavy, many pendant bridges and tiny components.
  DynamicGraph dg(ctx, gen::kron_graph(10, 8.0, 5));
  Session session = engine.session(dg);
  session.refresh();
  const auto cc = test_support::cc_labels(dg.snapshot());
  util::Rng rng(13);
  const std::size_t builds = engine.stats().artifact_builds;
  const std::size_t bridges_before = session.two_ecc_index().num_bridges();
  for (int round = 0; round < 6; ++round) {
    std::vector<Edge> batch;
    while (batch.size() < 24) {
      const auto u = static_cast<NodeId>(rng.below(dg.num_nodes()));
      const auto v = static_cast<NodeId>(rng.below(dg.num_nodes()));
      if (u != v && cc[u] == cc[v] && !dg.has_edge(u, v)) {
        batch.push_back({u, v});
      }
    }
    dg.insert_edges(ctx, batch);
    session.refresh();
  }
  ASSERT_EQ(session.publish_replays(), 6u);
  ASSERT_LT(session.two_ecc_index().num_bridges(), bridges_before);
  // No publish built an artifact: the mask cell stayed empty.
  EXPECT_EQ(engine.stats().artifact_builds, builds);

  // The first Bridges request derives the mask, in one pass.
  const std::uint64_t before = engine.device_launches();
  const bridges::BridgeMask& mask = session.run(engine::Bridges{});
  EXPECT_EQ(engine.device_launches(), before + 1);
  EXPECT_EQ(engine.stats().artifact_builds, builds + 1);
  EXPECT_EQ(mask, bridges::find_bridges_dfs(graph::build_csr(
                      ctx, session.view().edge_span())));
  EXPECT_EQ(bridges::count_bridges(mask),
            session.two_ecc_index().num_bridges());
  // Later readers, a View's included, share the derived mask.
  EXPECT_EQ(&session.view().artifact<bridges::BridgeMask>(), &mask);
  EXPECT_EQ(engine.stats().artifact_builds, builds + 1);
}

// ------------------------------------------------------------------- fuzz

TEST(IncrementalFuzz, InsertOnlyBatchesMatchFullRebuild) {
  const device::Context ctx(2);
  Engine engine({.device_workers = 2});
  constexpr NodeId kNodes = 64;
  const std::uint64_t seed = test_support::fuzz_seed(777);
  const int rounds = test_support::fuzz_rounds(200);
  util::Rng rng(seed);
  test_support::BatchScript script;

  // Connected base so every insertion is intra-component and the
  // incremental path carries (almost) every round.
  DynamicGraph dg(ctx, gen::cycle_graph(kNodes));
  Session session = engine.session(dg);
  session.run(TwoEcc{});

  int effective_rounds = 0;
  for (int round = 0; round < rounds; ++round) {
    std::vector<Edge> batch;
    const std::size_t size = 1 + rng.below(12);
    for (std::size_t i = 0; i < size; ++i) {
      batch.push_back({static_cast<NodeId>(rng.below(kNodes)),
                       static_cast<NodeId>(rng.below(kNodes))});
    }
    script.add(round, "insert", batch);
    const std::uint64_t epoch_before = dg.epoch();
    if (dg.insert_edges(ctx, batch) > 0) ++effective_rounds;
    // IIFE so a fatal failure lands here and the replay print still fires.
    [&] {
      // The index advances iff the round changed the graph.
      ASSERT_EQ(advance(session), dg.epoch() != epoch_before);
      expect_equivalent_to_full_rebuild(engine, dg, session, rng, 16);
    }();
    if (::testing::Test::HasFailure()) {
      std::cerr << script.replay(seed, rounds);
      return;
    }
  }
  // The point of the suite: the incremental path must actually have served
  // every effective round (connected base + small insert-only batches).
  EXPECT_EQ(session.publish_rebuilds(), 1u);
  EXPECT_EQ(session.publish_replays(),
            static_cast<std::size_t>(effective_rounds));
}

TEST(IncrementalFuzz, IntraStretchOnABridgeTreeMatchesFullRebuild) {
  const device::Context ctx(2);
  Engine engine({.device_workers = 2});
  constexpr NodeId kNodes = 64;
  const std::uint64_t seed = test_support::fuzz_seed(4242);
  const int rounds = test_support::fuzz_rounds(200);
  util::Rng rng(seed);
  test_support::BatchScript script;

  // A random recursive tree (every edge a bridge) plus a few grandparent
  // chords: many deep, bushy blocks, so the replays demote real bridges
  // and merge blocks epoch after epoch from one carried forest (the cycle
  // base above has a single block and never merges).
  std::vector<NodeId> parent(kNodes, kNoNode);
  std::vector<Edge> base;
  for (NodeId v = 1; v < kNodes; ++v) {
    parent[v] = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(v)));
    base.push_back({parent[v], v});
  }
  for (int c = 0; c < 4; ++c) {
    const auto v = static_cast<NodeId>(1 + rng.below(kNodes - 1));
    if (parent[parent[v]] != kNoNode) base.push_back({parent[parent[v]], v});
  }
  DynamicGraph dg(ctx, EdgeList{kNodes, base});
  Session session = engine.session(dg);
  session.run(TwoEcc{});
  ASSERT_GT(session.two_ecc_index().num_bridges(), 32u);

  const auto ancestor = [&](NodeId v, std::uint64_t steps) {
    for (; steps > 0 && parent[v] != kNoNode; --steps) v = parent[v];
    return v;
  };
  for (int round = 0; round < rounds; ++round) {
    // Short chords (each covers <= 3 tree edges), or one arbitrary edge
    // (covers <= 63): every batch passes the size rule, so every effective
    // round must replay.
    std::vector<Edge> batch;
    if (rng.below(4) == 0) {
      batch.push_back({static_cast<NodeId>(rng.below(kNodes)),
                       static_cast<NodeId>(rng.below(kNodes))});
    } else {
      const std::size_t size = 1 + rng.below(3);
      for (std::size_t i = 0; i < size; ++i) {
        const auto v = static_cast<NodeId>(rng.below(kNodes));
        batch.push_back({v, ancestor(v, 2 + rng.below(2))});
      }
    }
    script.add(round, "insert", batch);
    const std::uint64_t epoch_before = dg.epoch();
    dg.insert_edges(ctx, batch);
    // IIFE so a fatal failure lands here and the replay print still fires.
    [&] {
      // The index advances iff the round changed the graph.
      ASSERT_EQ(advance(session), dg.epoch() != epoch_before);
      expect_equivalent_to_full_rebuild(engine, dg, session, rng, 16);
    }();
    if (::testing::Test::HasFailure()) {
      std::cerr << script.replay(seed, rounds);
      return;
    }
  }
  EXPECT_EQ(session.publish_rebuilds(), 1u);
}

TEST(IncrementalFuzz, PendantChordsOnALongCycleMatchFullRebuild) {
  const device::Context ctx(2);
  Engine engine({.device_workers = 2});
  // A long cycle with short pendant paths, so the replay's interval weights
  // take both forms (oracle.cpp's PreorderWeights; its costs at n ~ 9.2k
  // break even near 900 items): one or two chords over the ~1000 pendant
  // bridges, and the blocks they merge, read the sorted points; a round of
  // 1600-2200 chords, and the ~900 bridges it demotes, the prefix array.
  constexpr NodeId kCycle = 8192;
  const std::uint64_t seed = test_support::fuzz_seed(2718);
  const int rounds = test_support::fuzz_rounds(120);
  util::Rng rng(seed);
  test_support::BatchScript script;

  std::vector<Edge> base;
  for (NodeId v = 0; v < kCycle; ++v) {
    base.push_back({v, static_cast<NodeId>((v + 1) % kCycle)});
  }
  std::vector<NodeId> parent(kCycle, kNoNode);  // toward the cycle
  for (int path = 0; path < 200; ++path) {
    auto at = static_cast<NodeId>(rng.below(kCycle));
    for (std::uint64_t i = 1 + rng.below(9); i > 0; --i) {
      const auto v = static_cast<NodeId>(parent.size());
      base.push_back({at, v});
      parent.push_back(at);
      at = v;
    }
  }
  const auto nodes = static_cast<NodeId>(parent.size());
  DynamicGraph dg(ctx, EdgeList{nodes, base});
  Session session = engine.session(dg);
  session.run(TwoEcc{});

  // A new chord from a pendant node 2-4 steps up its path, or to any node:
  // it demotes the bridges between its ends. Every 16th round erases the
  // chords (a rebuild), so the pendant bridges come back.
  const auto chord = [&] {
    while (true) {
      const auto v = static_cast<NodeId>(kCycle + rng.below(nodes - kCycle));
      NodeId w = v;
      if (rng.below(4) == 0) {
        w = static_cast<NodeId>(rng.below(nodes));
      } else {
        for (auto steps = 2 + rng.below(3); steps > 0 && parent[w] != kNoNode;
             --steps) {
          w = parent[w];
        }
      }
      if (w != v && !dg.has_edge(v, w)) return Edge{v, w};
    }
  };
  std::vector<Edge> chords;
  std::size_t rebuilds = 1;
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t epoch_before = dg.epoch();
    if (round % 16 == 15) {
      script.add(round, "erase", chords);
      dg.erase_edges(ctx, chords);
      chords.clear();
      if (dg.epoch() != epoch_before) ++rebuilds;
    } else {
      std::vector<Edge> batch;
      const std::uint64_t size =
          round % 16 == 7 ? 1600 + rng.below(601) : 1 + rng.below(2);
      for (std::uint64_t i = 0; i < size; ++i) batch.push_back(chord());
      script.add(round, "insert", batch);
      dg.insert_edges(ctx, batch);
      chords.insert(chords.end(), batch.begin(), batch.end());
    }
    // IIFE so a fatal failure lands here and the replay print still fires.
    [&] {
      // The index advances iff the round changed the graph.
      ASSERT_EQ(advance(session), dg.epoch() != epoch_before);
      expect_equivalent_to_full_rebuild(engine, dg, session, rng, 16);
    }();
    if (::testing::Test::HasFailure()) {
      std::cerr << script.replay(seed, rounds);
      return;
    }
  }
  // Only the erases rebuild; every insert round replays.
  EXPECT_EQ(session.publish_rebuilds(), rebuilds);
}

TEST(IncrementalFuzz, MixedBatchesMatchFullRebuild) {
  const device::Context ctx(2);
  Engine engine({.device_workers = 2});
  constexpr NodeId kNodes = 60;
  const std::uint64_t seed = test_support::fuzz_seed(31337);
  const int rounds = test_support::fuzz_rounds(200);
  util::Rng rng(seed);
  test_support::BatchScript script;

  // Disconnected base (two cycles + isolated tail nodes): inserts are a mix
  // of intra-component (incremental) and cross-component (rebuild) edges,
  // and every few rounds an erase batch forces the rebuild path.
  DynamicGraph dg(kNodes);
  std::vector<Edge> base;
  for (NodeId v = 0; v < 24; ++v)
    base.push_back({v, static_cast<NodeId>((v + 1) % 24)});
  for (NodeId v = 24; v < 48; ++v)
    base.push_back({v, static_cast<NodeId>(v == 47 ? 24 : v + 1)});
  dg.insert_edges(ctx, base);
  Session session = engine.session(dg);
  session.run(TwoEcc{});

  std::vector<Edge> inserted_pool(base);
  for (int round = 0; round < rounds; ++round) {
    std::vector<Edge> batch;
    const std::size_t size = 1 + rng.below(10);
    const std::uint64_t epoch_before = dg.epoch();
    if (round % 3 == 2) {
      for (std::size_t i = 0; i < size; ++i) {
        batch.push_back(inserted_pool[rng.below(inserted_pool.size())]);
      }
      script.add(round, "erase", batch);
      dg.erase_edges(ctx, batch);
    } else {
      for (std::size_t i = 0; i < size; ++i) {
        const Edge e = {static_cast<NodeId>(rng.below(kNodes)),
                        static_cast<NodeId>(rng.below(kNodes))};
        batch.push_back(e);
        if (e.u != e.v) inserted_pool.push_back(e);
      }
      script.add(round, "insert", batch);
      dg.insert_edges(ctx, batch);
    }
    [&] {
      // The index advances iff the round changed the graph.
      ASSERT_EQ(advance(session), dg.epoch() != epoch_before);
      expect_equivalent_to_full_rebuild(engine, dg, session, rng, 16);
    }();
    if (::testing::Test::HasFailure()) {
      std::cerr << script.replay(seed, rounds);
      return;
    }
  }
  // Both paths must have been exercised by the mix — a coverage claim that
  // only holds statistically, so skip it when a small EMC_FUZZ_ROUNDS
  // override (a replay session) leaves too few rounds to guarantee it.
  if (rounds >= 30) {
    EXPECT_GT(session.publish_replays(), 0u);
    EXPECT_GT(session.publish_rebuilds(), 1u);
  }
}

TEST(IncrementalFuzz, EveryForcedBackendOnReplayedRecordsMatchesDfs) {
  const auto fuzz = test_support::fuzz_run(/*seed=*/2417, /*rounds=*/60);
  SCOPED_TRACE(fuzz.trace);
  Engine engine({.device_workers = 2});
  const device::Context& ctx = engine.device();
  constexpr NodeId kNodes = 48;
  constexpr NodeId kTrees = 6;
  util::Rng rng(fuzz.seed);

  // kTrees random recursive trees (every edge a bridge) plus a few
  // grandparent chords, fed in as a multigraph (parallel copies and
  // self-loops, which the store drops): many bridges, and components for
  // cross-linking inserts to join.
  std::vector<NodeId> parent(kNodes, kNoNode);
  std::vector<Edge> base;
  for (NodeId v = kTrees; v < kNodes; ++v) {
    parent[v] =
        v % kTrees + kTrees * static_cast<NodeId>(rng.below(v / kTrees));
    base.push_back({parent[v], v});
    if (rng.below(4) == 0) base.push_back({v, parent[v]});
    if (rng.below(8) == 0) base.push_back({v, v});
  }
  for (int c = 0; c < 4; ++c) {
    const auto v = static_cast<NodeId>(kTrees + rng.below(kNodes - kTrees));
    if (parent[parent[v]] != kNoNode) base.push_back({parent[parent[v]], v});
  }
  DynamicGraph dg(ctx, EdgeList{kNodes, base});
  Session session = engine.session(dg);
  engine::View prev = session.view();
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
      // An erase: the next publish is a full rebuild.
      const auto edges = prev.edge_span().edges;
      for (int i = 0; i < 2; ++i) {
        batch.push_back(edges[rng.below(edges.size())]);
      }
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
    // Each publish forces the next backend, so replays derive from masks
    // every backend produced.
    const engine::Backend published =
        engine::kFixedBackends[static_cast<std::size_t>(round) %
                               engine::kNumBackends];
    const engine::View view = session.view(engine::Policy::fixed(published));
    ASSERT_EQ(view.mask_backend(), published);
    if (dg.epoch() != epoch_before) {
      const bool replayed = session.publish_replays() > replays_before;
      ASSERT_EQ(replayed, !erase);
      // An intra-only replay shares the forest LCA (the tree TV and the
      // hybrid read) with the previous epoch; a cross-linking one rebuilds.
      const bool shared = &view.artifact<lca::InlabelLca>() ==
                          &prev.artifact<lca::InlabelLca>();
      if (replayed) {
        EXPECT_EQ(shared, !cross);
      }
      (erase ? erase_rebuilds : cross ? cross_replays : intra_replays) += 1;
    }

    const graph::EdgeSpan snap = view.edge_span();
    const bridges::BridgeMask want =
        bridges::find_bridges_dfs(graph::build_csr(ctx, snap));
    ASSERT_EQ(view.run(engine::Bridges{}), want) << "published mask";
    for (const engine::Backend backend : engine::kFixedBackends) {
      ASSERT_EQ(session.run(engine::Bridges{}, engine::Policy::fixed(backend)),
                want)
          << "forced " << engine::to_string(backend);
      ASSERT_EQ(session.mask_backend(), backend);
    }
    const engine::TwoEccView tecc = view.run(TwoEcc{});
    EXPECT_EQ(canonical_partition(*tecc.labels),
              canonical_partition(test_support::two_ecc_labels(snap, want)));
    EXPECT_EQ(tecc.num_bridges, bridges::count_bridges(want));
    if (::testing::Test::HasFailure()) return;
    prev = view;
  }
  if (fuzz.rounds >= 16) {
    EXPECT_GT(intra_replays, 0u);
    EXPECT_GT(cross_replays, 0u);
    EXPECT_GT(erase_rebuilds, 0u);
  }
}

}  // namespace
}  // namespace emc::dynamic
