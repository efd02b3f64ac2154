// emc::shard — K-shard partitioned graphs behind the routing façade.
//
// The core claim under test is the STITCH: per-shard 2-ecc block trees plus
// the boundary set compose into exact global connectivity answers. The
// differential fuzz drives a multi-producer update stream through a
// ShardedGraph and compares every answer family (Same2Ecc, ComponentSize,
// BridgesOnPath, bridge/block/component counts) against an UNSHARDED
// engine::Session over the same canonical edge set AND the sequential
// ReferenceOracle, at every epoch vector it quiesces. Deterministic corner
// cases pin the cross-shard shapes that make stitching subtle: a boundary
// edge that IS a bridge, boundary edges closing a cycle across three
// shards, parallel summary edges demoting each other, and shards that own
// zero vertices. ShardFailpoints pins the per-shard isolation story:
// publish faults on one shard leave the other shards serving fresh epochs.
#include "shard/shard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_set>
#include <vector>

#include "engine/engine.hpp"
#include "graph/graph.hpp"
#include "support/fuzz_env.hpp"
#include "support/reference.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace emc::shard {
namespace {

using namespace std::chrono_literals;

ingest::Update make_update(NodeId u, NodeId v, ingest::UpdateKind kind,
                           std::uint32_t producer = 0) {
  return {graph::Edge{u, v}, kind, producer, 0};
}

/// Small, fast fleet: 1 device worker per shard, publish every batch, no
/// linger — every flush() leaves each shard's serving view at its applied
/// epoch, so the epoch vector is deterministic per quiesce point.
ShardedOptions fast_options(std::size_t shards) {
  ShardedOptions opts;
  opts.shards = shards;
  opts.shard_workers = 1;
  opts.ingest.admission = ingest::Admission::kBlock;
  opts.ingest.max_batch = 8;
  opts.ingest.linger = std::chrono::microseconds(0);
  opts.ingest.publish_every = 1;
  return opts;
}

graph::EdgeList edges_from_keys(NodeId n,
                                const std::unordered_set<std::uint64_t>& keys) {
  graph::EdgeList g;
  g.num_nodes = n;
  std::vector<std::uint64_t> sorted(keys.begin(), keys.end());
  std::sort(sorted.begin(), sorted.end());
  for (const std::uint64_t key : sorted) {
    g.edges.push_back({static_cast<NodeId>(key >> 32),
                       static_cast<NodeId>(key & 0xffffffffu)});
  }
  return g;
}

/// Differential check of one pinned ShardedView against an unsharded
/// Session on the same edge set and the sequential reference.
void expect_matches(engine::Engine& engine, const ShardedView& view,
                    const graph::EdgeList& expected) {
  const NodeId n = expected.num_nodes;
  engine::Session session = engine.session(expected);
  const test_support::ReferenceOracle ref(engine.device(), expected);

  const engine::TwoEccView blocks = session.run(engine::TwoEcc{});
  ASSERT_EQ(view.num_edges(), expected.num_edges());
  ASSERT_EQ(view.num_bridges(), blocks.num_bridges);
  ASSERT_EQ(view.num_blocks(), blocks.num_blocks);
  ASSERT_EQ(view.num_components(), session.num_components());

  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u; v < n; ++v) pairs.push_back({u, v});
  }
  const std::vector<std::uint8_t> got_same =
      view.run(engine::Same2Ecc{pairs});
  const std::vector<std::uint8_t> want_same =
      session.run(engine::Same2Ecc{{pairs}});
  const std::vector<NodeId> got_bop = view.run(engine::BridgesOnPath{pairs});
  const std::vector<NodeId> want_bop =
      session.run(engine::BridgesOnPath{{pairs}});
  for (std::size_t q = 0; q < pairs.size(); ++q) {
    const auto [u, v] = pairs[q];
    ASSERT_EQ(got_same[q] != 0, ref.comp[u] == ref.comp[v])
        << "same_2ecc(" << u << ", " << v << ") vs reference";
    ASSERT_EQ(got_same[q], want_same[q])
        << "same_2ecc(" << u << ", " << v << ") vs unsharded session";
    ASSERT_EQ(got_bop[q], want_bop[q])
        << "bridges_on_path(" << u << ", " << v << ") vs unsharded session";
    ASSERT_EQ(got_bop[q], ref.bridges_on_path(u, v))
        << "bridges_on_path(" << u << ", " << v << ") vs reference";
    // Scalar (host-route) forms agree with the batch answers.
    ASSERT_EQ(view.same_2ecc(u, v), got_same[q] != 0);
  }

  std::vector<NodeId> nodes(n);
  for (NodeId v = 0; v < n; ++v) nodes[v] = v;
  const std::vector<NodeId> got_size =
      view.run(engine::ComponentSize{nodes});
  const std::vector<NodeId> want_size =
      session.run(engine::ComponentSize{{nodes}});
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(got_size[v], ref.comp_size[v]) << "component_size(" << v << ")";
    ASSERT_EQ(got_size[v], want_size[v]) << "component_size(" << v << ")";
  }
}

// ------------------------------------------------------------- routing

TEST(ShardRouter, PartitionRuleRoundTripsAndCoversAllNodes) {
  const Router router(/*num_nodes=*/11, /*shards=*/3);
  std::size_t covered = 0;
  for (std::size_t s = 0; s < 3; ++s) covered += router.local_nodes(s);
  EXPECT_EQ(covered, 11u);
  for (NodeId v = 0; v < 11; ++v) {
    const std::size_t s = router.shard_of(v);
    const NodeId local = router.local_of(v);
    EXPECT_LT(local, router.local_nodes(s));
    EXPECT_EQ(router.global_of(s, local), v);
  }
  EXPECT_TRUE(router.is_boundary(0, 1));
  EXPECT_FALSE(router.is_boundary(0, 3));  // 0 % 3 == 3 % 3
}

TEST(ShardRouter, BoundarySetIsVersionedPerEffectiveChange) {
  Router router(8, 2);
  EXPECT_EQ(router.boundary_version(), 0u);
  EXPECT_TRUE(router.insert_boundary(0, 1));
  EXPECT_FALSE(router.insert_boundary(1, 0));  // canonical dup: no-op
  EXPECT_EQ(router.boundary_version(), 1u);
  EXPECT_FALSE(router.erase_boundary(2, 3));  // absent: no-op
  EXPECT_TRUE(router.erase_boundary(0, 1));
  EXPECT_EQ(router.boundary_version(), 2u);
  EXPECT_EQ(router.boundary_edges(), 0u);

  router.insert_boundary(2, 1);
  router.insert_boundary(0, 1);
  const auto [snap, version] = router.boundary_snapshot();
  EXPECT_EQ(version, 4u);
  ASSERT_EQ(snap->size(), 2u);  // canonical key order
  EXPECT_EQ((*snap)[0], (graph::Edge{0, 1}));
  EXPECT_EQ((*snap)[1], (graph::Edge{1, 2}));
  // Unchanged set: repeated snapshots share the same immutable vector.
  EXPECT_EQ(router.boundary_snapshot().first.get(), snap.get());
}

// ----------------------------------------------------- cross-shard shapes

TEST(ShardCorners, BoundaryEdgeIsABridge) {
  // K=2 over the path 2 - 0 - 1 - 3: (0,2) intra shard 0, (1,3) intra
  // shard 1, (0,1) boundary — every edge is a bridge, and the boundary
  // edge is the only connection between the shard halves.
  ShardedGraph sg(4, fast_options(2));
  sg.insert({{0, 2}, {1, 3}, {0, 1}});
  sg.flush();
  const ShardedView view = sg.view();
  EXPECT_EQ(view.num_bridges(), 3u);
  EXPECT_EQ(view.num_components(), 1u);
  EXPECT_EQ(view.num_blocks(), 4u);
  EXPECT_FALSE(view.same_2ecc(2, 3));
  EXPECT_EQ(view.bridges_on_path(2, 3), 3u);
  EXPECT_EQ(view.component_size(0), 1u);

  engine::Engine engine({.device_workers = 1});
  graph::EdgeList expected;
  expected.num_nodes = 4;
  expected.edges = {{0, 1}, {0, 2}, {1, 3}};
  expect_matches(engine, view, expected);
}

TEST(ShardCorners, BoundaryEdgeClosesACycleAcrossThreeShards) {
  // K=3, n=9: an intra-shard path in each shard (0-3-6, 1-4-7, 2-5-8),
  // boundary edges 6-1, 7-2 chain the shards, and the final boundary edge
  // 8-0 closes one global cycle through all three shards: every edge's
  // verdict flips from bridge to non-bridge at that single insert.
  ShardedGraph sg(9, fast_options(3));
  sg.insert({{0, 3}, {3, 6}, {1, 4}, {4, 7}, {2, 5}, {5, 8}});
  sg.insert({{6, 1}, {7, 2}});
  sg.flush();
  ShardedView view = sg.view();
  EXPECT_EQ(view.num_bridges(), 8u);
  EXPECT_EQ(view.num_components(), 1u);
  EXPECT_FALSE(view.same_2ecc(0, 8));

  sg.insert({{8, 0}});  // boundary edge closes the cycle
  sg.flush();
  view = sg.view();
  EXPECT_EQ(view.num_bridges(), 0u);
  EXPECT_EQ(view.num_blocks(), 1u);
  EXPECT_TRUE(view.same_2ecc(0, 8));
  EXPECT_EQ(view.bridges_on_path(3, 7), 0u);
  EXPECT_EQ(view.component_size(4), 9u);

  engine::Engine engine({.device_workers = 1});
  graph::EdgeList expected;
  expected.num_nodes = 9;
  expected.edges = {{0, 3}, {3, 6}, {1, 4}, {4, 7}, {2, 5},
                    {5, 8}, {1, 6}, {2, 7}, {0, 8}};
  expect_matches(engine, view, expected);
}

TEST(ShardCorners, ParallelBoundaryEdgesDemoteEachOther) {
  // Shard 0 triangle {0,2,4}, shard 1 triangle {1,3,5}: one block each.
  // A single boundary edge 0-1 is a bridge between the blocks; adding a
  // SECOND boundary edge 2-3 lands on the same summary block pair — the
  // two summary edges are parallel and demote each other, merging
  // everything into one global 2-ecc block.
  ShardedGraph sg(6, fast_options(2));
  sg.insert({{0, 2}, {2, 4}, {0, 4}, {1, 3}, {3, 5}, {1, 5}});
  sg.insert({{0, 1}});
  sg.flush();
  ShardedView view = sg.view();
  EXPECT_EQ(view.num_bridges(), 1u);
  EXPECT_FALSE(view.same_2ecc(0, 1));

  sg.insert({{2, 3}});
  sg.flush();
  view = sg.view();
  EXPECT_EQ(view.num_bridges(), 0u);
  EXPECT_EQ(view.num_blocks(), 1u);
  EXPECT_TRUE(view.same_2ecc(4, 5));
  EXPECT_EQ(view.component_size(0), 6u);

  engine::Engine engine({.device_workers = 1});
  graph::EdgeList expected;
  expected.num_nodes = 6;
  expected.edges = {{0, 2}, {2, 4}, {0, 4}, {1, 3},
                    {3, 5}, {1, 5}, {0, 1}, {2, 3}};
  expect_matches(engine, view, expected);
}

TEST(ShardCorners, ShardsWithZeroVerticesAreLegal) {
  // n=2 < K=4: shards 2 and 3 own no vertices; the only possible edge is
  // the boundary edge 0-1.
  ShardedGraph sg(2, fast_options(4));
  EXPECT_EQ(sg.router().local_nodes(2), 0u);
  EXPECT_EQ(sg.router().local_nodes(3), 0u);
  sg.insert({{0, 1}});
  sg.flush();
  const ShardedView view = sg.view();
  EXPECT_EQ(view.num_components(), 1u);
  EXPECT_EQ(view.num_bridges(), 1u);
  EXPECT_FALSE(view.same_2ecc(0, 1));
  EXPECT_EQ(view.component_size(0), 1u);
  EXPECT_EQ(view.bridges_on_path(0, 1), 1u);

  engine::Engine engine({.device_workers = 1});
  graph::EdgeList expected;
  expected.num_nodes = 2;
  expected.edges = {{0, 1}};
  expect_matches(engine, view, expected);
}

TEST(ShardCorners, SeededConstructionPartitionsTheInitialGraph) {
  graph::EdgeList initial;
  initial.num_nodes = 8;
  initial.edges = {{0, 2}, {2, 4}, {0, 4}, {1, 3}, {0, 1}, {0, 1}, {5, 5}};
  ShardedGraph sg(8, initial, fast_options(2));
  const ShardedStats stats = sg.stats();
  EXPECT_EQ(stats.boundary_edges, 1u);   // (0,1) deduped
  EXPECT_EQ(stats.boundary_noops, 1u);   // the duplicate
  EXPECT_EQ(stats.invalid_dropped, 1u);  // the self-loop
  const ShardedView view = sg.view();
  EXPECT_EQ(view.num_edges(), 5u);

  engine::Engine engine({.device_workers = 1});
  graph::EdgeList expected;
  expected.num_nodes = 8;
  expected.edges = {{0, 2}, {2, 4}, {0, 4}, {1, 3}, {0, 1}};
  expect_matches(engine, view, expected);
}

// ------------------------------------------------ epoch-vector consistency

TEST(ShardView, StitchIsCachedPerEpochVector) {
  ShardedGraph sg(8, fast_options(2));
  sg.insert({{0, 2}, {1, 3}});
  sg.flush();
  const ShardedView a = sg.view();
  const ShardedView b = sg.view();
  EXPECT_EQ(a.version(), b.version());
  EXPECT_TRUE(a.epochs() == b.epochs());
  ShardedStats stats = sg.stats();
  EXPECT_EQ(stats.stitch_builds, 1u);
  EXPECT_EQ(stats.stitch_hits, 1u);

  // A boundary-only change advances the vector (no shard epoch moves).
  sg.insert({{2, 3}});
  sg.flush();
  const ShardedView c = sg.view();
  EXPECT_GT(c.version(), b.version());
  EXPECT_EQ(c.epochs().boundary_version,
            b.epochs().boundary_version + 1);
  EXPECT_EQ(c.epochs().shard_epochs, b.epochs().shard_epochs);

  // Pinned views keep answering at their vector: the old view still sees
  // two components, the new one sees the boundary connection.
  EXPECT_EQ(b.num_components(), 6u);
  EXPECT_EQ(c.num_components(), 5u);
  stats = sg.stats();
  EXPECT_EQ(stats.stitch_builds, 2u);
}

TEST(ShardView, IntraShardChangeMovesOnlyThatShardsEpoch) {
  ShardedGraph sg(8, fast_options(2));
  sg.insert({{0, 2}, {1, 3}});
  sg.flush();
  const EpochVector before = sg.current_epochs();
  sg.insert({{2, 4}});  // intra shard 0 only
  sg.flush();
  const EpochVector after = sg.current_epochs();
  EXPECT_GT(after.shard_epochs[0], before.shard_epochs[0]);
  EXPECT_EQ(after.shard_epochs[1], before.shard_epochs[1]);
  EXPECT_EQ(after.boundary_version, before.boundary_version);
}

// ---------------------------------------------------------------- façade

TEST(ShardDispatcher, AnswersMatchTheViewAndStopCancels) {
  ShardedGraph sg(6, fast_options(3));
  sg.insert({{0, 3}, {1, 4}, {0, 1}, {3, 4}});
  sg.flush();
  ShardedDispatcher dispatcher(sg);

  auto same = dispatcher.submit(
      engine::Same2Ecc{{{0, 1}, {0, 3}, {2, 5}, {0, 0}}});
  auto sizes = dispatcher.submit(engine::ComponentSize{{0, 1, 2}});
  auto summary = dispatcher.submit(engine::TwoEcc{});
  auto bridges = dispatcher.submit(engine::Bridges{});
  auto bop = dispatcher.submit(engine::BridgesOnPath{{{0, 4}, {0, 2}}});

  const ShardedView view = sg.view();
  const auto same_reply = same.get();
  ASSERT_EQ(same_reply.status, serve::Status::kOk);
  EXPECT_EQ(same_reply.value,
            view.run(engine::Same2Ecc{{{0, 1}, {0, 3}, {2, 5}, {0, 0}}}));
  EXPECT_EQ(same_reply.epoch, view.version());
  const auto size_reply = sizes.get();
  ASSERT_TRUE(size_reply.ok());
  EXPECT_EQ(size_reply.value,
            view.run(engine::ComponentSize{{{0, 1, 2}}}));
  const auto summary_reply = summary.get();
  ASSERT_TRUE(summary_reply.ok());
  EXPECT_EQ(summary_reply.value.num_blocks, view.num_blocks());
  EXPECT_EQ(summary_reply.value.num_bridges, view.num_bridges());
  const auto bridges_reply = bridges.get();
  ASSERT_TRUE(bridges_reply.ok());
  EXPECT_EQ(bridges_reply.value, view.num_bridges());
  const auto bop_reply = bop.get();
  ASSERT_TRUE(bop_reply.ok());
  EXPECT_EQ(bop_reply.value,
            view.run(engine::BridgesOnPath{{{0, 4}, {0, 2}}}));

  dispatcher.stop();
  auto late = dispatcher.submit(engine::Bridges{});
  EXPECT_EQ(late.get().status, serve::Status::kCancelled);

  const ShardedStats stats = dispatcher.stats();
  EXPECT_EQ(stats.dispatch.submitted, 6u);
  EXPECT_EQ(stats.dispatch.answered, 5u);
  EXPECT_EQ(stats.dispatch.cancelled, 1u);
}

TEST(ShardStats, LedgerBalancesAcrossShardsAndFacade) {
  ShardedGraph sg(12, fast_options(3));
  ShardedDispatcher dispatcher(sg);

  util::Rng rng(97);
  std::size_t accepted = 0;
  std::vector<std::future<serve::Reply<std::vector<std::uint8_t>>>> futures;
  for (int burst = 0; burst < 20; ++burst) {
    std::vector<ingest::Update> ups;
    for (int i = 0; i < 6; ++i) {
      const auto u = static_cast<NodeId>(rng.below(12));
      const auto v = static_cast<NodeId>(rng.below(12));
      ups.push_back(make_update(u, v,
                                rng.below(4) == 0
                                    ? ingest::UpdateKind::kErase
                                    : ingest::UpdateKind::kInsert));
    }
    accepted += sg.submit(ups);
    futures.push_back(
        dispatcher.submit(engine::Same2Ecc{{{static_cast<NodeId>(
                                                 rng.below(12)),
                                             static_cast<NodeId>(
                                                 rng.below(12))}}}));
  }
  sg.flush();
  for (auto& future : futures) {
    ASSERT_EQ(future.get().status, serve::Status::kOk);
  }
  dispatcher.stop();

  const ShardedStats stats = dispatcher.stats();
  // The façade + per-shard dispatcher ledger balances.
  EXPECT_EQ(stats.dispatch.submitted,
            stats.dispatch.answered + stats.dispatch.shed +
                stats.dispatch.rejected + stats.dispatch.expired +
                stats.dispatch.cancelled + stats.dispatch.faulted);
  // The aggregated ingest ledger balances, and it is exactly the sum of
  // the per-shard ledgers.
  EXPECT_EQ(stats.ingest.submitted,
            stats.ingest.accepted + stats.ingest.rejected +
                stats.ingest.cancelled);
  EXPECT_EQ(stats.ingest.accepted, stats.ingest.applied + stats.ingest.shed);
  EXPECT_EQ(stats.ingest.lag, 0u);
  std::size_t per_shard_submitted = 0;
  for (const auto& shard : stats.per_shard_ingest) {
    per_shard_submitted += shard.submitted;
  }
  EXPECT_EQ(stats.ingest.submitted, per_shard_submitted);
  // Every routed update is accounted once: intra-shard accepted + boundary
  // applied/no-op == accepted at the façade.
  EXPECT_EQ(stats.ingest.accepted + stats.boundary_applied +
                stats.boundary_noops + stats.invalid_dropped,
            accepted + stats.invalid_dropped);
  EXPECT_EQ(stats.shards, 3u);
  ASSERT_EQ(stats.shard_staleness.size(), 3u);
  for (const std::uint64_t staleness : stats.shard_staleness) {
    EXPECT_EQ(staleness, 0u) << "flush() must leave every shard fresh";
  }
  EXPECT_EQ(stats.max_staleness, 0u);
}

// ------------------------------------------------------------------ fuzz

TEST(ShardFuzz, MultiProducerDifferentialVsUnshardedAndReference) {
  const auto fuzz = test_support::fuzz_run(/*seed=*/8817, /*rounds=*/200);
  SCOPED_TRACE(fuzz.trace);
  engine::Engine engine({.device_workers = 2});

  util::Rng rng(fuzz.seed);
  for (int round = 0; round < fuzz.rounds; ++round) {
    const auto n = static_cast<NodeId>(2 + rng.below(28));
    const std::size_t shards = 1 + rng.below(4);
    const int producers = 2 + static_cast<int>(rng.below(2));
    const int phases = 2;

    ShardedOptions opts = fast_options(shards);
    opts.ingest.max_batch = 1 + rng.below(8);
    ShardedGraph sg(n, opts);

    // Disjoint per-producer edge pools (edge_key % producers == p): the
    // streams race through the rings, but each edge has ONE owner, so the
    // final set is the union of per-producer sequential replays. The pools
    // are enumerated up front — at tiny n a producer's pool can be EMPTY
    // (n=2 has one possible edge), and rejection sampling would spin.
    std::vector<std::vector<graph::Edge>> pool(
        static_cast<std::size_t>(producers));
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        pool[graph::edge_key(u, v) %
             static_cast<std::uint64_t>(producers)]
            .push_back({u, v});
      }
    }
    std::vector<std::unordered_set<std::uint64_t>> owned(
        static_cast<std::size_t>(producers));

    for (int phase = 0; phase < phases; ++phase) {
      // Script each producer's ops up front (deterministic), then submit
      // them from racing threads.
      std::vector<std::vector<ingest::Update>> script(
          static_cast<std::size_t>(producers));
      for (int p = 0; p < producers; ++p) {
        if (pool[p].empty()) continue;
        const int ops = 1 + static_cast<int>(rng.below(3));
        for (int op = 0; op < ops; ++op) {
          const bool erase_op =
              !owned[p].empty() && rng.below(3) == 0;
          const int batch = 1 + static_cast<int>(rng.below(6));
          for (int i = 0; i < batch; ++i) {
            const graph::Edge e = pool[p][rng.below(pool[p].size())];
            const std::uint64_t key = graph::edge_key(e.u, e.v);
            script[p].push_back(make_update(
                e.u, e.v,
                erase_op ? ingest::UpdateKind::kErase
                         : ingest::UpdateKind::kInsert,
                static_cast<std::uint32_t>(p)));
            if (erase_op) {
              owned[p].erase(key);
            } else {
              owned[p].insert(key);
            }
          }
        }
      }

      std::vector<std::thread> threads;
      threads.reserve(static_cast<std::size_t>(producers));
      for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&sg, &script, p] {
          // One update at a time: maximal interleaving through the rings.
          for (const ingest::Update& up : script[p]) {
            sg.submit({up});
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
      sg.flush();

      std::unordered_set<std::uint64_t> all;
      for (const auto& pool : owned) all.insert(pool.begin(), pool.end());
      const graph::EdgeList expected = edges_from_keys(n, all);
      expect_matches(engine, sg.view(), expected);
      if (::testing::Test::HasFailure()) {
        FAIL() << fuzz.trace << "\nround " << round << " phase " << phase
               << ": n=" << n << " shards=" << shards
               << " producers=" << producers;
      }
    }
  }
}

// ------------------------------------------------------------ failpoints

TEST(ShardFailpoints, EveryFutureResolvesAndNoUpdateIsLostUnderFaults) {
  namespace failpoint = util::failpoint;
  const auto fuzz = test_support::fuzz_run(/*seed=*/5115, /*rounds=*/12);
  SCOPED_TRACE(fuzz.trace);

  // Re-arm from the environment explicitly (CI pins engine.publish and the
  // snapshot+publish combo); self-arm engine.publish otherwise. Apply-path
  // sites stay unarmed for the same reason as IngestFailpoints: the writer
  // mutation is ground truth, not the system under test.
  const char* env_spec = std::getenv("EMC_FAILPOINT");
  const bool env_armed =
      env_spec != nullptr && failpoint::configure_from_string(env_spec) > 0;
  if (!env_armed) {
    failpoint::disable_all();
    ASSERT_TRUE(failpoint::configure(failpoint::kPublish, "0.3"));
  }
  const std::size_t fired_before = failpoint::total_fired();

  engine::Engine check_engine({.device_workers = 1});
  constexpr NodeId kNodes = 24;
  ShardedOptions opts = fast_options(3);

  auto sg = [&] {
    failpoint::ScopedSuspend suspend;  // construction is setup, not SUT
    return std::make_unique<ShardedGraph>(kNodes, opts);
  }();
  ShardedDispatcher dispatcher(*sg);

  util::Rng rng(fuzz.seed * 17 + 3);
  std::unordered_set<std::uint64_t> expected_keys;
  std::vector<std::future<serve::Reply<std::vector<std::uint8_t>>>> futures;
  std::size_t accepted = 0;
  for (int round = 0; round < fuzz.rounds; ++round) {
    std::vector<ingest::Update> burst;
    for (int i = 0; i < 8; ++i) {
      NodeId u = 0;
      NodeId v = 0;
      do {
        u = static_cast<NodeId>(rng.below(kNodes));
        v = static_cast<NodeId>(rng.below(kNodes));
      } while (u == v);
      const bool erase_op = rng.below(4) == 0;
      burst.push_back(make_update(
          u, v,
          erase_op ? ingest::UpdateKind::kErase
                   : ingest::UpdateKind::kInsert));
      if (erase_op) {
        expected_keys.erase(graph::edge_key(u, v));
      } else {
        expected_keys.insert(graph::edge_key(u, v));
      }
    }
    accepted += sg->submit(burst);
    futures.push_back(dispatcher.submit(engine::Same2Ecc{
        {{static_cast<NodeId>(rng.below(kNodes)),
          static_cast<NodeId>(rng.below(kNodes))}}}));
  }

  // Quiesce with faults still live, then disable and flush: the final
  // publishes must land on every shard.
  sg->drain();
  failpoint::disable_all();
  sg->flush();

  std::size_t ok = 0;
  for (auto& future : futures) {
    const auto reply = future.get();  // never abandoned
    if (reply.status == serve::Status::kOk) ++ok;
  }
  EXPECT_GT(ok, 0u) << "the façade should keep answering between faults";

  const ShardedStats stats = dispatcher.stats();
  EXPECT_EQ(stats.ingest.lag, 0u) << "faults must never drop updates";
  EXPECT_EQ(stats.max_staleness, 0u);
  EXPECT_EQ(stats.dispatch.submitted,
            stats.dispatch.answered + stats.dispatch.shed +
                stats.dispatch.rejected + stats.dispatch.expired +
                stats.dispatch.cancelled + stats.dispatch.faulted);
  if (!env_armed) {
    EXPECT_GT(failpoint::total_fired(), fired_before);
  }

  const graph::EdgeList expected = edges_from_keys(kNodes, expected_keys);
  expect_matches(check_engine, sg->view(), expected);
  dispatcher.stop();
}

TEST(ShardFailpoints, PublishFaultsOnOneShardLeaveOthersFresh) {
  namespace failpoint = util::failpoint;
  // Deterministic isolation: this test owns the failpoint configuration
  // (the env spec, if any, is cleared — probabilistic arming would fail
  // shard 1's publishes too and erase the contrast under test).
  failpoint::disable_all();

  ShardedOptions opts = fast_options(2);
  ShardedGraph sg(8, opts);
  // Phase 1 (fault-free): both shards publish real traffic.
  sg.insert({{0, 2}, {2, 4}, {1, 3}, {3, 5}});
  sg.flush();
  const EpochVector baseline = sg.current_epochs();
  ASSERT_EQ(sg.stats().max_staleness, 0u);

  // Phase 2: every publish now fails, but only shard 0 receives updates —
  // so only shard 0's pipeline ever attempts (and fails) a publish.
  ASSERT_TRUE(failpoint::configure(failpoint::kPublish, "1+"));
  sg.insert({{4, 6}, {0, 6}});
  sg.drain();
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (sg.stats().per_shard_ingest[0].publish_failures == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ShardedStats stats = sg.stats();
  ASSERT_GT(stats.per_shard_ingest[0].publish_failures, 0u);
  // Shard 0 is stale (applied epochs it cannot publish); shard 1 is
  // untouched: same serving epoch as the fault-free baseline, staleness 0,
  // no publish ever attempted, let alone failed. Bounded staleness stays
  // PER SHARD.
  EXPECT_GT(stats.shard_staleness[0], 0u);
  EXPECT_EQ(stats.shard_staleness[1], 0u);
  EXPECT_EQ(stats.shard_epochs[1], baseline.shard_epochs[1]);
  EXPECT_EQ(stats.per_shard_ingest[1].publish_failures, 0u);

  // The façade still answers, at the stale shard-0 epoch: the phase-2
  // edges are applied but not published, so the view must not see them.
  const ShardedView stale_view = sg.view();
  EXPECT_EQ(stale_view.num_edges(), 4u);
  EXPECT_TRUE(stale_view.epochs().shard_epochs == baseline.shard_epochs);

  // Recovery: disarm, flush — the retried publish lands, staleness clears.
  failpoint::disable_all();
  sg.flush();
  stats = sg.stats();
  EXPECT_EQ(stats.max_staleness, 0u);
  EXPECT_EQ(sg.view().num_edges(), 6u);
}

}  // namespace
}  // namespace emc::shard
