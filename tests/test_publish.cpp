// Incremental epoch publish: Session::refresh()/view() must produce a new
// epoch's published artifact set (edge snapshot, spanning forest, bridge
// mask, forest LCA, 2-ecc oracle) by replaying an insert-only delta onto
// the previous epoch's artifacts — indistinguishable from the full rebuild
// pipeline run from scratch at the same epoch. The Csr is not published: a
// View builds it on first read.
//
// Five pillars:
//   replay pins — insert-only intra/cross batches, and gaps of several
//     such batches between publishes, take the replay path
//     (publish_replays advances, publish_rebuilds stays flat) and the
//     resulting View agrees artifact-for-artifact with a scratch Session;
//   fallback pins — deletions (also inside a gap), oversized batches and
//     gaps, and cycle-closing cross pairs take the full pipeline,
//     correctly;
//   copy-on-write — a View pinned at the previous epoch is immutable under
//     replay: the mask is patched on a copy, and an intra-only replay
//     SHARES the untouched forest with the published View (pointer pin);
//   lazy Csr — no publish builds the Csr; the first reader of an epoch
//     does, once, over that epoch's edges;
//   differential fuzz — mixed insert/erase rounds publish every epoch and
//     diff against a from-scratch Session and the sequential reference;
//   fault sweep — one replayed publish faulted at every kernel launch and
//     scratch allocation in turn must still land, on retry, exactly where
//     a scratch Session does.
#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <new>
#include <set>
#include <utility>
#include <vector>

#include "device/context.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "engine/engine.hpp"
#include "gen/graphs.hpp"
#include "graph/graph.hpp"
#include "support/fuzz_env.hpp"
#include "support/reference.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace emc::engine {
namespace {

using graph::Edge;
using graph::EdgeList;
using test_support::ReferenceOracle;

using CanonicalEdgeSet = std::set<std::pair<NodeId, NodeId>>;

/// The view's bridges as canonical endpoint pairs. An erase shifts edge
/// positions, and a reference may order its edges differently, so masks
/// are only comparable as SETS of edges, never positionally.
CanonicalEdgeSet bridge_set(const View& view) {
  const bridges::BridgeMask& mask = view.run(Bridges{});
  const graph::EdgeSpan g = view.edge_span();
  CanonicalEdgeSet out;
  for (std::size_t e = 0; e < mask.size(); ++e) {
    if (mask[e] != 0) {
      out.insert({std::min(g.edges[e].u, g.edges[e].v),
                  std::max(g.edges[e].u, g.edges[e].v)});
    }
  }
  return out;
}

/// Full artifact-level diff of a (possibly replayed) view against a view
/// built by an independent pipeline at the same epoch, plus a query sample.
void expect_views_agree(const View& got, const View& want, util::Rng& rng,
                        int num_queries) {
  ASSERT_EQ(got.epoch(), want.epoch());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  ASSERT_EQ(got.num_components(), want.num_components());
  // The (lazily built) Csr must be a valid adjacency of the snapshot.
  EXPECT_TRUE(graph::csr_matches(got.edges(), got.csr()));
  EXPECT_EQ(bridge_set(got), bridge_set(want));
  const TwoEccView blocks_got = got.run(TwoEcc{});
  const TwoEccView blocks_want = want.run(TwoEcc{});
  ASSERT_EQ(blocks_got.num_blocks, blocks_want.num_blocks);
  ASSERT_EQ(blocks_got.num_bridges, blocks_want.num_bridges);
  ASSERT_EQ(test_support::partition_mismatch(*blocks_got.labels,
                                             *blocks_want.labels),
            "")
      << "2ecc";
  ASSERT_EQ(got.forest().num_components, want.forest().num_components);
  ASSERT_EQ(test_support::partition_mismatch(got.forest().component,
                                             want.forest().component),
            "")
      << "forest cc";
  std::vector<std::pair<NodeId, NodeId>> pairs;
  ComponentSize sizes;
  for (int q = 0; q < num_queries; ++q) {
    pairs.push_back({static_cast<NodeId>(rng.below(got.num_nodes())),
                     static_cast<NodeId>(rng.below(got.num_nodes()))});
    sizes.nodes.push_back(pairs.back().first);
  }
  EXPECT_EQ(got.run(Same2Ecc{pairs}), want.run(Same2Ecc{pairs}));
  EXPECT_EQ(got.run(BridgesOnPath{pairs}), want.run(BridgesOnPath{pairs}));
  EXPECT_EQ(got.run(sizes), want.run(sizes));
  // The forest LCA is rooting-specific (replay keeps the old rooting, a
  // rebuild re-roots), but reachability is not: a pair meets a real
  // ancestor iff it shares a component — on BOTH views.
  const auto lca_got = got.run(LcaBatch{pairs});
  const auto lca_want = want.run(LcaBatch{pairs});
  for (std::size_t q = 0; q < pairs.size(); ++q) {
    EXPECT_EQ(lca_got[q] == kNoNode, lca_want[q] == kNoNode)
        << "lca split " << pairs[q].first << "," << pairs[q].second;
  }
}

/// A from-scratch Session at the graph's current epoch: its empty cache
/// guarantees the full rebuild pipeline, the independent baseline every
/// replayed publish is diffed against.
View scratch_view(Engine& engine, const dynamic::DynamicGraph& dg) {
  Session scratch = engine.session(dg);
  scratch.refresh();
  return scratch.view();
}

// ------------------------------------------------------------ replay pins

TEST(PublishReplay, IntraChordReplayDemotesTheOldBridge) {
  Engine engine({.device_workers = 2});
  // Two triangles joined by a bridge; closing a second path kills it.
  dynamic::DynamicGraph dg(6);
  dg.insert_edges(engine.device(),
                  {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}});
  Session session = engine.session(dg);
  session.refresh();
  EXPECT_EQ(session.publish_rebuilds(), 1u);
  EXPECT_EQ(session.publish_replays(), 0u);
  ASSERT_EQ(bridge_set(session.view()).size(), 1u);

  dg.insert_edges(engine.device(), {{1, 4}});
  session.refresh();
  EXPECT_EQ(session.publish_rebuilds(), 1u);  // no full pipeline this time
  EXPECT_EQ(session.publish_replays(), 1u);
  const View replayed = session.view();
  EXPECT_EQ(bridge_set(replayed).size(), 0u);  // the old bridge is demoted
  util::Rng rng(3);
  expect_views_agree(replayed, scratch_view(engine, dg), rng, 36);
}

TEST(PublishReplay, CrossComponentInsertPatchesForestAndLca) {
  Engine engine({.device_workers = 2});
  dynamic::DynamicGraph dg(7);
  dg.insert_edges(engine.device(), {{0, 1}, {1, 2}, {2, 0},    // triangle
                                    {3, 4}, {4, 5}, {5, 3}});  // triangle
  Session session = engine.session(dg);
  session.refresh();
  ASSERT_EQ(session.view().num_components(), 3u);  // node 6 isolated

  // {2, 3} joins two components: the replay links the forests, appends the
  // new tree edge, and marks it a bridge — no full pipeline.
  dg.insert_edges(engine.device(), {{2, 3}});
  session.refresh();
  EXPECT_EQ(session.publish_replays(), 1u);
  EXPECT_EQ(session.publish_rebuilds(), 1u);
  View v = session.view();
  EXPECT_EQ(v.num_components(), 2u);
  EXPECT_EQ(bridge_set(v), (CanonicalEdgeSet{{2, 3}}));
  EXPECT_NE(v.run(LcaBatch{{{0, 4}}})[0], kNoNode);  // now connected
  EXPECT_EQ(v.run(LcaBatch{{{0, 6}}})[0], kNoNode);  // 6 still isolated
  util::Rng rng(21);
  expect_views_agree(v, scratch_view(engine, dg), rng, 36);

  // A cross link and an intra chord in ONE batch exercise both patch paths
  // in one replay: {6,0} is the new (only) bridge, {1,4} demotes {2,3}.
  dg.insert_edges(engine.device(), {{6, 0}, {1, 4}});
  session.refresh();
  EXPECT_EQ(session.publish_replays(), 2u);
  EXPECT_EQ(session.publish_rebuilds(), 1u);
  v = session.view();
  EXPECT_EQ(v.num_components(), 1u);
  EXPECT_EQ(bridge_set(v), (CanonicalEdgeSet{{0, 6}}));
  util::Rng rng2(22);
  expect_views_agree(v, scratch_view(engine, dg), rng2, 36);
}

// ---------------------------------------------------------- fallback pins

TEST(PublishReplay, InsertOnlyGapReplaysAsOneSuffix) {
  Engine engine({.device_workers = 2});
  dynamic::DynamicGraph dg(engine.device(), gen::cycle_graph(16));
  Session session = engine.session(dg);
  session.refresh();
  util::Rng rng(5);

  // Two effective batches with no refresh between: the edge log holds both
  // after the published epoch, so one replay covers the whole gap.
  dg.insert_edges(engine.device(), {{0, 2}});
  dg.insert_edges(engine.device(), {{0, 4}});
  session.refresh();
  EXPECT_EQ(session.publish_replays(), 1u);
  EXPECT_EQ(session.publish_rebuilds(), 1u);
  expect_views_agree(session.view(), scratch_view(engine, dg), rng, 16);

  // A three-batch gap mixing intra chords and cross links on a graph with
  // isolated nodes: the forest patch appends links from every batch. (An
  // edge between two components an earlier batch of the gap linked closes
  // a cycle no replay expresses — the cycle-closing pin below.)
  dynamic::DynamicGraph split(10);
  split.insert_edges(engine.device(), {{0, 1}, {1, 2}, {2, 3}, {3, 0},    // C4
                                       {4, 5}, {5, 6}, {6, 7}, {7, 4}});  // C4
  Session split_session = engine.session(split);
  split_session.refresh();
  split.insert_edges(engine.device(), {{3, 4}});          // cross link
  split.insert_edges(engine.device(), {{0, 2}, {0, 8}});  // intra + cross
  split.insert_edges(engine.device(), {{8, 9}});          // cross link
  split_session.refresh();
  EXPECT_EQ(split_session.publish_replays(), 1u);
  EXPECT_EQ(split_session.publish_rebuilds(), 1u);
  const View v = split_session.view();
  EXPECT_EQ(v.num_components(), 1u);
  EXPECT_EQ(bridge_set(v), (CanonicalEdgeSet{{3, 4}, {0, 8}, {8, 9}}));
  expect_views_agree(v, scratch_view(engine, split), rng, 24);
}

TEST(PublishReplay, EraseAndOversizedGapsTakeTheFullPipeline) {
  Engine engine({.device_workers = 2});
  dynamic::DynamicGraph dg(engine.device(), gen::cycle_graph(16));
  Session session = engine.session(dg);
  session.refresh();
  util::Rng rng(5);

  // Any erase disqualifies the replay.
  dg.erase_edges(engine.device(), {{0, 1}});
  session.refresh();
  EXPECT_EQ(session.publish_rebuilds(), 2u);
  EXPECT_EQ(session.publish_replays(), 0u);
  expect_views_agree(session.view(), scratch_view(engine, dg), rng, 16);

  // So does an erase anywhere inside a gap of insert batches.
  dg.insert_edges(engine.device(), {{0, 2}});
  dg.erase_edges(engine.device(), {{4, 5}});
  dg.insert_edges(engine.device(), {{0, 4}});
  session.refresh();
  EXPECT_EQ(session.publish_rebuilds(), 3u);
  EXPECT_EQ(session.publish_replays(), 0u);
  expect_views_agree(session.view(), scratch_view(engine, dg), rng, 16);

  // A delta past the size rule (max(64, m/4) here) falls back.
  std::vector<Edge> big;
  for (NodeId v = 0; v < 65; ++v) {
    big.push_back({v, static_cast<NodeId>(v + 100)});
  }
  dynamic::DynamicGraph wide(engine.device(), gen::path_graph(200));
  Session wide_session = engine.session(wide);
  wide_session.refresh();
  ASSERT_EQ(wide.insert_edges(engine.device(), big), big.size());
  wide_session.refresh();
  EXPECT_EQ(wide_session.publish_rebuilds(), 2u);
  EXPECT_EQ(wide_session.publish_replays(), 0u);
  expect_views_agree(wide_session.view(), scratch_view(engine, wide), rng, 16);

  // The rule prices the whole gap: two batches that each pass it alone
  // (40 <= 64) but total 80 fall back too.
  const std::vector<Edge> first(big.begin(), big.begin() + 40);
  std::vector<Edge> second;
  for (NodeId v = 0; v < 40; ++v) {
    second.push_back({v, static_cast<NodeId>(v + 150)});
  }
  dynamic::DynamicGraph gap(engine.device(), gen::path_graph(200));
  Session gap_session = engine.session(gap);
  gap_session.refresh();
  ASSERT_EQ(gap.insert_edges(engine.device(), first), first.size());
  ASSERT_EQ(gap.insert_edges(engine.device(), second), second.size());
  gap_session.refresh();
  EXPECT_EQ(gap_session.publish_rebuilds(), 2u);
  EXPECT_EQ(gap_session.publish_replays(), 0u);
  expect_views_agree(gap_session.view(), scratch_view(engine, gap), rng, 16);
}

TEST(PublishReplay, CycleClosingCrossBatchTakesTheFullPipeline) {
  Engine engine({.device_workers = 2});
  dynamic::DynamicGraph dg(6);
  dg.insert_edges(engine.device(), {{0, 1}, {1, 2}, {2, 0},    // triangle
                                    {3, 4}, {4, 5}, {5, 3}});  // triangle
  Session session = engine.session(dg);
  session.refresh();
  // Two edges between the SAME pair of components in one batch: the second
  // closes a cycle through the first, which no forest patch can express.
  dg.insert_edges(engine.device(), {{0, 3}, {1, 4}});
  session.refresh();
  EXPECT_EQ(session.publish_rebuilds(), 2u);
  EXPECT_EQ(session.publish_replays(), 0u);
  const View v = session.view();
  EXPECT_EQ(v.num_components(), 1u);
  EXPECT_EQ(bridge_set(v).size(), 0u);
  util::Rng rng(23);
  expect_views_agree(v, scratch_view(engine, dg), rng, 24);
}

// ----------------------------------------------------------- copy-on-write

TEST(PublishReplay, HeldViewsStayFrozenAndIntraReplaySharesTheForest) {
  Engine engine({.device_workers = 2});
  dynamic::DynamicGraph dg(6);
  dg.insert_edges(engine.device(),
                  {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}});
  Session session = engine.session(dg);
  session.refresh();
  const View v0 = session.view();
  const std::size_t m0 = v0.num_edges();
  ASSERT_EQ(bridge_set(v0), (CanonicalEdgeSet{{2, 3}}));

  // Intra replay under a pinned view: the mask is patched on a COPY, and
  // the untouched forest is SHARED with the pinned epoch — the same
  // object, not a clone (the structural pin of the copy-on-write design).
  dg.insert_edges(engine.device(), {{1, 4}});
  session.refresh();
  ASSERT_EQ(session.publish_replays(), 1u);
  const View v1 = session.view();
  EXPECT_EQ(v0.num_edges(), m0);
  EXPECT_EQ(bridge_set(v0), (CanonicalEdgeSet{{2, 3}}));  // frozen verdicts
  EXPECT_EQ(bridge_set(v1).size(), 0u);
  EXPECT_EQ(&v0.forest(), &v1.forest());
  util::Rng rng(7);
  expect_views_agree(v1, scratch_view(engine, dg), rng, 24);

  // A cross replay must NOT share: the forest gains a link, so the pinned
  // view keeps its own copy while the new epoch sees the merge.
  dynamic::DynamicGraph two(7);
  two.insert_edges(engine.device(),
                   {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  Session twos = engine.session(two);
  twos.refresh();
  const View w0 = twos.view();
  two.insert_edges(engine.device(), {{2, 3}});
  twos.refresh();
  ASSERT_EQ(twos.publish_replays(), 1u);
  const View w1 = twos.view();
  EXPECT_NE(&w0.forest(), &w1.forest());
  EXPECT_EQ(w0.forest().num_components, 3u);
  EXPECT_EQ(w1.forest().num_components, 2u);
  EXPECT_EQ(w0.run(LcaBatch{{{0, 4}}})[0], kNoNode);
  EXPECT_NE(w1.run(LcaBatch{{{0, 4}}})[0], kNoNode);
}

// --------------------------------------------------------------- lazy Csr

TEST(PublishLazyCsr, ReplayBuildsNoCsrAndOldViewsTraverseTheirOwnEdges) {
  Engine engine({.device_workers = 2});
  const device::Context ref_ctx = device::Context::sequential();
  dynamic::DynamicGraph dg(engine.device(), gen::cycle_graph(40));
  Session session = engine.session(dg);
  session.refresh();
  const View v0 = session.view();

  // Two insert-only epochs, each published by replay: no publish builds an
  // artifact — the Csr in particular waits for a reader.
  const std::size_t builds0 = engine.stats().artifact_builds;
  dg.insert_edges(engine.device(), {{0, 20}});
  session.refresh();
  const View v1 = session.view();
  dg.insert_edges(engine.device(), {{5, 30}, {10, 35}});
  session.refresh();
  const View v2 = session.view();
  ASSERT_EQ(session.publish_replays(), 2u);
  EXPECT_EQ(engine.stats().artifact_builds, builds0);

  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId t = 0; t < 40; ++t) {
    pairs.push_back({0, t});
    pairs.push_back({7, t});
  }
  // The first reader of a replayed epoch's Csr builds it, once: a second
  // read, and the session's own read of the SAME epoch, hit the shared
  // cell. (Epoch 0's rebuild publish already built its Csr for the cost
  // model's diameter hint.)
  const auto levels1 = v1.run(BfsLevels{pairs});
  EXPECT_EQ(engine.stats().artifact_builds, builds0 + 1);
  EXPECT_EQ(v1.run(BfsLevels{pairs}), levels1);
  const auto levels2 = v2.run(BfsLevels{pairs});
  EXPECT_EQ(engine.stats().artifact_builds, builds0 + 2);
  EXPECT_EQ(session.run(BfsLevels{pairs}), levels2);
  EXPECT_EQ(engine.stats().artifact_builds, builds0 + 2);

  // Every View answers over ITS epoch's edges — v0, held two epochs back,
  // included — never over the graph's current ones.
  for (const View* view : {&v0, &v1, &v2}) {
    const graph::Csr ref_csr = graph::build_csr(ref_ctx, view->edges());
    const auto from0 = test_support::bfs_levels(ref_csr, 0);
    const auto from7 = test_support::bfs_levels(ref_csr, 7);
    const auto got = view->run(BfsLevels{pairs});
    for (std::size_t q = 0; q < pairs.size(); ++q) {
      const auto [s, t] = pairs[q];
      EXPECT_EQ(got[q], (s == 0 ? from0 : from7)[t])
          << "epoch " << view->epoch() << " bfs " << s << "->" << t;
    }
  }
  // The chords shortened the cycle's paths, so the epochs really differ.
  EXPECT_NE(v0.run(BfsLevels{pairs}), levels2);
}

// ------------------------------------------------ launch-count guarantees

TEST(PublishLaunches, ReplayedPublishIsDeltaSizedNotGraphSized) {
  Engine engine({.device_workers = 2});
  // Road-like base, one giant component (reliability 1 keeps it connected).
  dynamic::DynamicGraph dg(engine.device(),
                           gen::road_graph(40, 40, 1.0, 0.05, 3));
  Session session = engine.session(dg);
  session.refresh();
  const auto cc = test_support::cc_labels(dg.snapshot());

  util::Rng rng(11);
  auto intra_batch = [&](std::size_t size) {
    std::vector<Edge> batch;
    while (batch.size() < size) {
      const auto u = static_cast<NodeId>(rng.below(dg.num_nodes()));
      const auto v = static_cast<NodeId>(rng.below(dg.num_nodes()));
      if (u != v && cc[u] == cc[v] && !dg.has_edge(u, v)) {
        batch.push_back({u, v});
      }
    }
    return batch;
  };
  auto publish_launches = [&](const std::vector<Edge>& batch) {
    EXPECT_GT(dg.insert_edges(engine.device(), batch), 0u);
    const std::uint64_t before = engine.device_launches();
    session.refresh();
    return engine.device_launches() - before;
  };

  // Replayed publishes run a FIXED kernel sequence: the launch count must
  // not scale with the delta (only per-kernel work does)...
  const std::uint64_t small = publish_launches(intra_batch(8));
  const std::uint64_t large = publish_launches(intra_batch(56));
  EXPECT_EQ(session.publish_replays(), 2u);
  EXPECT_EQ(small, large)
      << "replayed publish launch count must not scale with the delta";

  // ...and must undercut the full pipeline at the same epoch.
  Session scratch = engine.session(dg);
  const std::uint64_t before = engine.device_launches();
  scratch.refresh();
  const std::uint64_t full = engine.device_launches() - before;
  EXPECT_LT(large, full);
}

// ------------------------------------------------------------------- fuzz

TEST(PublishFuzz, EveryEpochMatchesAScratchSessionAndTheReference) {
  Engine engine({.device_workers = 2});
  const device::Context ref_ctx = device::Context::sequential();
  constexpr NodeId kNodes = 60;
  const std::uint64_t seed = test_support::fuzz_seed(90210);
  const int rounds = test_support::fuzz_rounds(120);
  util::Rng rng(seed);
  test_support::BatchScript script;

  // Disconnected base (two cycles + isolated tail nodes): rounds mix
  // intra-component inserts (replay), cross-component links (replay or
  // rebuild, batch-dependent) and erases (always rebuild). Random rounds
  // skip the publish, so publishes cover gaps of 1-4 batches.
  dynamic::DynamicGraph dg(kNodes);
  std::vector<Edge> base;
  for (NodeId v = 0; v < 24; ++v) {
    base.push_back({v, static_cast<NodeId>((v + 1) % 24)});
  }
  for (NodeId v = 24; v < 48; ++v) {
    base.push_back({v, static_cast<NodeId>(v == 47 ? 24 : v + 1)});
  }
  dg.insert_edges(engine.device(), base);
  Session session = engine.session(dg);
  session.refresh();

  std::vector<Edge> inserted_pool(base);
  std::size_t gap = 0;          // batches applied since the last publish
  std::size_t gap_replays = 0;  // replayed publishes covering >= 2 batches
  for (int round = 0; round < rounds; ++round) {
    std::vector<Edge> batch;
    const std::size_t size = 1 + rng.below(10);
    if (round % 4 == 3) {
      for (std::size_t i = 0; i < size; ++i) {
        batch.push_back(inserted_pool[rng.below(inserted_pool.size())]);
      }
      script.add(round, "erase", batch);
      dg.erase_edges(engine.device(), batch);
    } else {
      for (std::size_t i = 0; i < size; ++i) {
        const Edge e = {static_cast<NodeId>(rng.below(kNodes)),
                        static_cast<NodeId>(rng.below(kNodes))};
        batch.push_back(e);
        if (e.u != e.v) inserted_pool.push_back(e);
      }
      script.add(round, "insert", batch);
      dg.insert_edges(engine.device(), batch);
    }
    if (++gap < 4 && rng.below(2) == 0) continue;  // publish later
    // IIFE so a fatal failure lands here and the replay print still fires.
    [&] {
      const std::uint64_t replays = session.publish_replays();
      session.refresh();
      if (gap >= 2 && session.publish_replays() > replays) ++gap_replays;
      gap = 0;
      const View got = session.view();
      ASSERT_EQ(got.epoch(), dg.epoch());
      expect_views_agree(got, scratch_view(engine, dg), rng, 12);
      // Ground truth: the sequential reference of the SAME snapshot.
      const ReferenceOracle ref(ref_ctx, dg.snapshot());
      EXPECT_EQ(bridge_set(got).size(), ref.num_bridges);
      std::vector<std::pair<NodeId, NodeId>> pairs;
      for (int q = 0; q < 8; ++q) {
        pairs.push_back({static_cast<NodeId>(rng.below(kNodes)),
                         static_cast<NodeId>(rng.below(kNodes))});
      }
      const auto same = got.run(Same2Ecc{pairs});
      for (std::size_t q = 0; q < pairs.size(); ++q) {
        const auto [u, v] = pairs[q];
        EXPECT_EQ(same[q] != 0, ref.comp[u] == ref.comp[v])
            << "same2ecc " << u << "," << v;
      }
    }();
    if (::testing::Test::HasFailure()) {
      std::cerr << script.replay(seed, rounds);
      return;
    }
  }
  // Both publish paths must have carried real rounds — a coverage claim
  // that only holds statistically, so skip it under a small replay-session
  // EMC_FUZZ_ROUNDS override.
  if (rounds >= 30) {
    EXPECT_GT(session.publish_replays(), 0u);
    EXPECT_GT(gap_replays, 0u);
    EXPECT_GT(session.publish_rebuilds(), 1u);
  }
}

// ------------------------------------------------------------ fault sweep

/// Faults one replayed publish at every hit of `site` in turn. Each N gets
/// a fresh setup (failpoints suspended): publish epoch 0 — held in a View
/// when `hold_view`, so the replay patches copies — then apply a mixed
/// intra + cross insert batch. Arm the one-shot `site:N`, publish (it may
/// throw), disarm, publish again. Wherever the fault struck — the forest
/// link, the forest LCA, the mask patch or the 2-ecc index step — the retry
/// must serve the new epoch exactly as a scratch Session and the sequential
/// reference do, must itself replay (a failed replay installs nothing, so
/// nothing forces a rebuild), and must leave a held View frozen at epoch 0.
void sweep_replay_faults(const char* site, bool hold_view) {
  namespace failpoint = util::failpoint;
  failpoint::disable_all();
  // Triangles {0,1,2} and {3,4,5} joined by the bridge {2,3}, a pendant
  // path 5-6-7, an isolated node 8 and a one-edge component {9,10}.
  const EdgeList base{11, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3},
                           {2, 3}, {5, 6}, {6, 7}, {9, 10}}};
  // {1,4} closes a cycle through {2,3}; {7,8} and {6,9} link components.
  const std::vector<Edge> batch = {{1, 4}, {7, 8}, {6, 9}};

  Engine engine({.device_workers = 2});
  // Every iteration builds the same graph, so one scratch Session (full
  // pipeline) and one reference serve as the expected epoch for all.
  dynamic::DynamicGraph final_graph(engine.device(), base);
  final_graph.insert_edges(engine.device(), batch);
  const View want = scratch_view(engine, final_graph);
  const ReferenceOracle ref(engine.device(),
                            final_graph.snapshot());
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId u = 0; u < base.num_nodes; ++u) {
    for (NodeId v = 0; v < base.num_nodes; ++v) pairs.push_back({u, v});
  }

  std::uint64_t launches = 0;  // device launches of the unfaulted replay
  for (std::uint64_t n = 0; n <= launches + 2; ++n) {
    SCOPED_TRACE(std::string(site) + ":" + std::to_string(n) +
                 (hold_view ? " (held view)" : " (no view)"));
    dynamic::DynamicGraph dg(engine.device(), base);
    Session session = engine.session(dg);
    View held;
    CanonicalEdgeSet held_bridges;
    {
      failpoint::ScopedSuspend quiet;
      session.refresh();
      if (hold_view) {
        held = session.view();
        held_bridges = bridge_set(held);
      }
      ASSERT_EQ(dg.insert_edges(engine.device(), batch), batch.size());
    }
    if (n == 0) {
      // The unfaulted replay sets the sweep's range.
      const std::uint64_t before = engine.device_launches();
      session.refresh();
      launches = engine.device_launches() - before;
      ASSERT_EQ(session.publish_replays(), 1u);
      ASSERT_GT(launches, 0u);
    } else {
      ASSERT_TRUE(failpoint::configure(site, std::to_string(n).c_str()));
      try {
        session.refresh();
      } catch (const failpoint::InjectedFault&) {
      } catch (const std::bad_alloc&) {
      }
      const std::uint64_t fired = failpoint::fired(site);
      failpoint::disable_all();
      // Every launch of the replay is a device.launch hit.
      if (std::string(site) == failpoint::kDeviceLaunch) {
        EXPECT_EQ(fired, n <= launches ? 1u : 0u);
      }
      session.refresh();
    }

    // The ledger balances: the initial rebuild plus exactly one publish of
    // the faulted epoch, and that one replayed.
    EXPECT_EQ(session.publish_replays() + session.publish_rebuilds(), 2u);
    EXPECT_EQ(session.publish_replays(), 1u);
    EXPECT_EQ(session.publish_rebuilds(), 1u);
    const View got = session.view();
    ASSERT_EQ(got.epoch(), dg.epoch());
    util::Rng rng(n);
    expect_views_agree(got, want, rng, 24);
    EXPECT_EQ(bridge_set(got).size(), ref.num_bridges);
    const auto same = got.run(Same2Ecc{pairs});
    const auto on_path = got.run(BridgesOnPath{pairs});
    for (std::size_t q = 0; q < pairs.size(); ++q) {
      const auto [u, v] = pairs[q];
      EXPECT_EQ(same[q] != 0, ref.comp[u] == ref.comp[v])
          << "same2ecc " << u << "," << v;
      EXPECT_EQ(on_path[q], ref.bridges_on_path(u, v))
          << "bridges_on_path " << u << "," << v;
    }
    if (hold_view) {
      EXPECT_EQ(held.epoch(), 0u);
      EXPECT_EQ(bridge_set(held), held_bridges);
    }
  }
}

TEST(PublishFaults, ReplayRetriesCleanlyAfterAFaultAtEveryLaunch) {
  sweep_replay_faults(util::failpoint::kDeviceLaunch, /*hold_view=*/true);
  sweep_replay_faults(util::failpoint::kDeviceLaunch, /*hold_view=*/false);
}

TEST(PublishFaults, ReplayRetriesCleanlyAfterAFaultAtEveryAllocation) {
  sweep_replay_faults(util::failpoint::kArenaAlloc, /*hold_view=*/true);
  sweep_replay_faults(util::failpoint::kArenaAlloc, /*hold_view=*/false);
}

}  // namespace
}  // namespace emc::engine
