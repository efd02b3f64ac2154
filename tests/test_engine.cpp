// The engine façade: every backend choice must agree on every graph, and
// the artifact cache must make repeated request batches free.
//
// Three pillars:
//   differential — for each graph of the gen suite (connected, disconnected,
//     multigraph-ish, edgeless), every FORCED backend and the auto policy
//     produce the DFS reference's bridge mask, and the TwoEcc labels are
//     partition-equal to the sequential union-find reference;
//   cache-reuse pins — a second identical request batch on an unchanged
//     epoch performs ZERO rebuild kernel launches (and exactly one launch
//     when a device query batch is forced — the bulk answer kernel itself);
//   policy — auto picks one of the two tour backends, TV or the hybrid, the
//     way they rank when measured (the hybrid where marking walks are
//     short, TV where they are long), and batch-size routing follows
//     Figure 6. DFS and CK run only when forced, as the paper's baselines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "bridges/dfs_bridges.hpp"
#include "core/tree.hpp"
#include "core/euler_tour.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "engine/engine.hpp"
#include "gen/graphs.hpp"
#include "gen/trees.hpp"
#include "graph/graph.hpp"
#include "lca/inlabel.hpp"
#include "support/reference.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace emc::engine {
namespace {

using graph::Edge;
using graph::EdgeList;

std::vector<std::pair<const char*, EdgeList>> differential_suite() {
  std::vector<std::pair<const char*, EdgeList>> suite;
  suite.emplace_back("kron", graph::largest_component(
                                 graph::simplified(gen::kron_graph(9, 5, 1))));
  suite.emplace_back("social", graph::largest_component(graph::simplified(
                                   gen::social_graph(9, 4, 2))));
  suite.emplace_back("road", graph::largest_component(graph::simplified(
                                 gen::road_graph(30, 30, 0.7, 0.05, 3))));
  // Raw generated graphs are disconnected multigraphs — exactly the inputs
  // the free functions could NOT take directly.
  suite.emplace_back("er-raw", gen::er_graph(600, 700, 4));
  suite.emplace_back("road-raw", gen::road_graph(24, 24, 0.55, 0.03, 5));
  EdgeList tiny;  // two triangles + a bridge + an isolated node
  tiny.num_nodes = 8;
  tiny.edges = {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}};
  suite.emplace_back("tiny", tiny);
  EdgeList edgeless;
  edgeless.num_nodes = 5;
  suite.emplace_back("edgeless", edgeless);
  return suite;
}

TEST(EngineDifferential, EveryBackendAgreesAcrossTheGenSuite) {
  Engine engine({.device_workers = 3, .multicore_workers = 2});
  for (const auto& [name, g] : differential_suite()) {
    Session session = engine.session(g);
    const auto reference =
        bridges::find_bridges_dfs(graph::build_csr(engine.device(), g));
    for (const Backend backend : kFixedBackends) {
      const bridges::BridgeMask& mask =
          session.run(Bridges{}, Policy::fixed(backend));
      ASSERT_EQ(mask, reference) << name << " via " << to_string(backend);
      ASSERT_EQ(session.mask_backend(), backend) << name;
    }
    const bridges::BridgeMask& auto_mask = session.run(Bridges{});
    ASSERT_EQ(auto_mask, reference) << name << " via auto";

    const TwoEccView view = session.run(TwoEcc{});
    ASSERT_EQ(view.num_bridges, bridges::count_bridges(reference)) << name;
    ASSERT_EQ(test_support::partition_mismatch(
                  *view.labels, test_support::two_ecc_labels(g, reference)),
              "")
        << name;
  }
}

TEST(EngineDifferential, QueryBatchesMatchTheReferenceBothRoutes) {
  Engine engine({.device_workers = 2});
  const EdgeList g = gen::er_graph(400, 520, 7);  // disconnected, parallel
  Session session = engine.session(g);
  const test_support::ReferenceOracle ref(engine.device(), g);

  util::Rng rng(11);
  Same2Ecc same;
  BridgesOnPath paths;
  ComponentSize sizes;
  for (int q = 0; q < 300; ++q) {
    const auto u = static_cast<NodeId>(rng.below(400));
    const auto v = static_cast<NodeId>(rng.below(400));
    same.pairs.push_back({u, v});
    paths.pairs.push_back({u, v});
    sizes.nodes.push_back(u);
  }
  // Host route (auto on a small batch) and forced device route must agree
  // with each other and the reference.
  Policy device_route;
  device_route.min_device_batch = 1;
  const auto same_host = session.run(same);
  const auto same_device = session.run(same, device_route);
  const auto path_host = session.run(paths);
  const auto path_device = session.run(paths, device_route);
  const auto size_host = session.run(sizes);
  const auto size_device = session.run(sizes, device_route);
  EXPECT_EQ(same_host, same_device);
  EXPECT_EQ(path_host, path_device);
  EXPECT_EQ(size_host, size_device);
  for (std::size_t q = 0; q < same.pairs.size(); ++q) {
    const auto [u, v] = same.pairs[q];
    ASSERT_EQ(same_host[q] != 0, ref.comp[u] == ref.comp[v]) << u << "," << v;
    ASSERT_EQ(path_host[q], ref.bridges_on_path(u, v)) << u << "," << v;
    ASSERT_EQ(size_host[q], ref.comp_size[u]) << u;
  }
}

TEST(EngineCache, SecondIdenticalRequestBatchLaunchesNothing) {
  Engine engine;
  const EdgeList g = graph::largest_component(
      graph::simplified(gen::road_graph(40, 40, 0.72, 0.04, 9)));
  Session session = engine.session(g);

  // Mixed first batch builds every artifact (mask via TV so all launches
  // land on the countable device context).
  const Policy tv = Policy::fixed(Backend::kTv);
  Same2Ecc queries{{{0, 1}, {2, 3}, {4, 5}}};
  session.run(Bridges{}, tv);
  session.run(TwoEcc{}, tv);
  const auto first = session.run(queries, tv);
  ASSERT_GT(engine.stats().artifact_builds, 0u);

  // The pin: identical batch, unchanged epoch -> zero kernel launches.
  const std::uint64_t before = engine.device_launches();
  const auto& mask = session.run(Bridges{}, tv);
  const TwoEccView view = session.run(TwoEcc{}, tv);
  const auto second = session.run(queries, tv);
  EXPECT_EQ(engine.device_launches(), before);
  EXPECT_EQ(second, first);
  EXPECT_EQ(mask.size(), g.num_edges());
  EXPECT_GT(view.num_blocks, 0u);

  // Forcing the device query route must cost exactly ONE launch per batch
  // (the bulk answer kernel) and still zero rebuild launches.
  Policy device_route = tv;
  device_route.min_device_batch = 1;
  const std::uint64_t before_device = engine.device_launches();
  const auto third = session.run(queries, device_route);
  EXPECT_EQ(engine.device_launches(), before_device + 1);
  EXPECT_EQ(third, first);
}

TEST(EngineCache, AutoReusesAnyMaskButForcingRecomputes) {
  Engine engine;
  const EdgeList g = graph::largest_component(
      graph::simplified(gen::er_graph(500, 900, 13)));
  Session session = engine.session(g);
  session.run(Bridges{}, Policy::fixed(Backend::kDfs));
  const auto runs_before = engine.stats().backend_runs;
  session.run(Bridges{});  // auto: any cached mask is the right answer
  EXPECT_EQ(engine.stats().backend_runs, runs_before);
  session.run(Bridges{}, Policy::fixed(Backend::kHybrid));  // forcing runs
  EXPECT_EQ(engine.stats().backend_runs[backend_index(Backend::kHybrid)],
            runs_before[backend_index(Backend::kHybrid)] + 1);
}

TEST(EngineCache, ATourPickBuildsNoCsr) {
  // Auto picks TV or the hybrid on every input: a dense shallow kron, the
  // calibration pin's small road and an edgeless graph. The publish decides
  // from the forest LCA's tree and runs the mask on it, so nothing in
  // view() reads a Csr, and no DFS or CK run is counted.
  Engine engine({.device_workers = 4, .multicore_workers = 2});
  EdgeList edgeless;
  edgeless.num_nodes = 5;
  const std::vector<std::pair<const char*, EdgeList>> inputs = {
      {"kron", graph::largest_component(
                   graph::simplified(gen::kron_graph(14, 16.0, 5)))},
      {"road-48", graph::largest_component(graph::simplified(
                      gen::road_graph(48, 48, 0.72, 0.04, 7)))},
      {"edgeless", edgeless}};
  const auto is_tour = [](Backend backend) {
    return backend == Backend::kTv || backend == Backend::kHybrid;
  };
  for (const auto& [name, g] : inputs) {
    SCOPED_TRACE(name);
    const auto runs_before = engine.stats().backend_runs;
    Session session = engine.session(g);
    const Plan plan = session.plan(Bridges{});
    EXPECT_TRUE(is_tour(plan.chosen))
        << "plan picked " << to_string(plan.chosen);
    const View view = session.view();
    ASSERT_TRUE(is_tour(view.mask_backend()))
        << "auto picked " << to_string(view.mask_backend());
    EXPECT_EQ(session.mask_backend(), view.mask_backend());
    const std::size_t builds = engine.stats().artifact_builds;
    const graph::Csr& csr = session.csr();  // the epoch's first Csr
    EXPECT_EQ(engine.stats().artifact_builds, builds + 1);
    EXPECT_EQ(view.run(Bridges{}), bridges::find_bridges_dfs(csr));
    const auto runs_after = engine.stats().backend_runs;
    for (const Backend baseline :
         {Backend::kDfs, Backend::kCkMulticore, Backend::kCk}) {
      EXPECT_EQ(runs_after[backend_index(baseline)],
                runs_before[backend_index(baseline)])
          << to_string(baseline);
    }
  }
}

TEST(EngineDynamic, EpochChangesInvalidateAndReplayIncrementally) {
  Engine engine({.device_workers = 2});
  dynamic::DynamicGraph dg(engine.device(), gen::cycle_graph(64));
  Session session = engine.session(dg);

  Same2Ecc ring{{{0, 32}, {1, 2}}};
  const auto before = session.run(ring);
  EXPECT_TRUE(before[0] != 0);  // a cycle is one 2ecc block

  // An effective insert advances the epoch; the session must re-answer
  // against the new snapshot (via the epoch fence's replay, not a rebuild —
  // the new record derives from the previous one).
  dg.insert_edges(engine.device(), {{0, 2}});
  EXPECT_EQ(session.epoch(), dg.epoch());
  const auto after = session.run(ring);
  EXPECT_TRUE(after[0] != 0);
  EXPECT_EQ(session.publish_rebuilds(), 1u);
  EXPECT_EQ(session.publish_replays(), 1u);

  // A no-op batch does not advance the epoch: everything stays cached.
  dg.insert_edges(engine.device(), {{0, 1}});
  const std::uint64_t launches = engine.device_launches();
  session.run(ring);
  EXPECT_EQ(engine.device_launches(), launches);

  // Differential check against the reference after a mixed update.
  dg.erase_edges(engine.device(), {{5, 6}, {20, 21}});
  const test_support::ReferenceOracle ref(engine.device(),
                                          dg.snapshot());
  BridgesOnPath probes;
  util::Rng rng(3);
  for (int q = 0; q < 120; ++q) {
    probes.pairs.push_back({static_cast<NodeId>(rng.below(64)),
                            static_cast<NodeId>(rng.below(64))});
  }
  const auto got = session.run(probes);
  for (std::size_t q = 0; q < probes.pairs.size(); ++q) {
    const auto [u, v] = probes.pairs[q];
    ASSERT_EQ(got[q], ref.bridges_on_path(u, v)) << u << "," << v;
  }
}

TEST(EngineDynamic, BridgesRequestSharesItsMaskWithTheTwoEccIndex) {
  Engine engine({.device_workers = 2});
  dynamic::DynamicGraph dg(engine.device(),
                           gen::road_graph(16, 16, 0.8, 0.05, 17));
  Session session = engine.session(dg);
  // Force a large erase so the oracle MUST take the full-rebuild path (past
  // incremental_applies, so no erase splice); the session's cached mask
  // (computed by DFS here) is handed down, so no TV backend run happens at
  // all.
  session.run(Bridges{}, Policy::fixed(Backend::kDfs));
  session.run(TwoEcc{});
  const auto snapshot = dg.snapshot().span().edges;
  std::vector<Edge> erase(snapshot.begin(),
                          snapshot.begin() + snapshot.size() / 2);
  dg.erase_edges(engine.device(), erase);
  const auto runs_before = engine.stats().backend_runs;
  session.run(Bridges{}, Policy::fixed(Backend::kDfs));
  EXPECT_EQ(session.last_publish().path, PublishPath::kRebuild);
  const TwoEccView view = session.run(TwoEcc{});
  auto runs_after = engine.stats().backend_runs;
  EXPECT_EQ(runs_after[backend_index(Backend::kTv)],
            runs_before[backend_index(Backend::kTv)]);  // no internal TV
  EXPECT_EQ(runs_after[backend_index(Backend::kDfs)],
            runs_before[backend_index(Backend::kDfs)] + 1);
  // And the labels are right.
  const test_support::ReferenceOracle ref(engine.device(),
                                          dg.snapshot());
  ASSERT_EQ(test_support::partition_mismatch(*view.labels, ref.comp), "");
}

TEST(EngineLca, ForestLcaMatchesADirectIndexOnTrees) {
  Engine engine({.device_workers = 2});
  core::ParentTree tree = gen::random_tree(3000, NodeId{40}, 19);
  gen::scramble_ids(tree, 20);
  const EdgeList edges = core::tree_edges(tree);
  Session session = engine.session(edges);

  // The engine roots each component at its representative — the component's
  // MIN node id (cc_spanning hooks strictly towards smaller labels) — so a
  // connected tree is rooted at node 0; build the direct reference on the
  // same rooting.
  std::vector<NodeId> parent, level;
  const NodeId root = 0;
  core::root_tree(engine.device(), edges, root, parent, level);
  const core::ParentTree rooted{root, std::move(parent)};
  const auto direct = lca::InlabelLca::build_sequential(rooted);

  LcaBatch batch{gen::random_queries(3000, 2000, 21)};
  const auto got = session.run(batch);
  for (std::size_t q = 0; q < batch.pairs.size(); ++q) {
    ASSERT_EQ(got[q], direct.query(batch.pairs[q].first, batch.pairs[q].second))
        << "query " << q;
  }

  // Cross-component pairs answer kNoNode (two disjoint paths).
  EdgeList two;
  two.num_nodes = 6;
  two.edges = {{0, 1}, {1, 2}, {3, 4}, {4, 5}};
  Session split = engine.session(two);
  const auto answers = split.run(LcaBatch{{{0, 2}, {0, 4}, {3, 5}}});
  EXPECT_NE(answers[0], kNoNode);
  EXPECT_EQ(answers[1], kNoNode);
  EXPECT_NE(answers[2], kNoNode);
}

TEST(EnginePolicy, CommittedModelPicksFromTheRootedForest) {
  // The bench_e2e shapes and engine: kron_graph(20, 8) (m ~ 7.7n after
  // canonicalization, mean marking walk 2.6 per edge) and a 1024 x 1024
  // road grid (m ~ 1.8n, walk ~ 65), 4 device workers, 50us launches. The
  // measured marginal ranking is hybrid < TV on kron (79-81 against 82-102
  // ms) and TV < hybrid on road (19-23 against 450-476 ms); the committed
  // model must keep it.
  const CostModel model;
  PlanInputs kron;
  kron.n = 1 << 20;
  kron.m = static_cast<std::size_t>(kron.n) * 77 / 10;
  kron.walk = 2.6;
  kron.device_workers = 4;
  kron.launch_overhead = 50e-6;
  const Backend kron_pick = Policy{}.choose(kron);
  EXPECT_TRUE(kron_pick == Backend::kTv || kron_pick == Backend::kHybrid)
      << to_string(kron_pick);
  EXPECT_LT(model.seconds(Backend::kHybrid, kron),
            model.seconds(Backend::kTv, kron));

  PlanInputs road = kron;
  road.m = static_cast<std::size_t>(road.n) * 18 / 10;
  road.walk = 65.0;
  EXPECT_EQ(Policy{}.choose(road), Backend::kTv);
  EXPECT_LT(model.seconds(Backend::kTv, road),
            model.seconds(Backend::kHybrid, road));

  // bench_engine's road-ribbon: taller than the grid (height 7485), but its
  // walks stay short (5 per edge), and there the hybrid beats TV (16-18
  // against 20-24 ns per edge). The height alone would hide it.
  PlanInputs ribbon = kron;
  ribbon.n = 97276;
  ribbon.m = 141509;
  ribbon.walk = 5.1;
  EXPECT_EQ(Policy{}.choose(ribbon), Backend::kHybrid);
}

TEST(EnginePolicy, BatchRoutingFollowsTheLaunchOverhead) {
  Policy policy;
  PlanInputs one_worker;
  one_worker.device_workers = 1;
  one_worker.launch_overhead = 50e-6;
  // One worker: the kernel does the same serial work PLUS the launch.
  EXPECT_FALSE(policy.use_device_batch(1, one_worker));
  EXPECT_FALSE(policy.use_device_batch(1 << 20, one_worker));

  PlanInputs wide = one_worker;
  wide.device_workers = 1024;
  EXPECT_FALSE(policy.use_device_batch(64, wide));       // Figure 6 left edge
  EXPECT_TRUE(policy.use_device_batch(1 << 20, wide));   // bulk regime

  policy.min_device_batch = 10;  // explicit override beats the model
  EXPECT_TRUE(policy.use_device_batch(10, one_worker));
  EXPECT_FALSE(policy.use_device_batch(9, wide));
}

TEST(EnginePolicy, CalibrationFitsThisMachineAndAutoStaysCompetitive) {
  Engine engine({.device_workers = 2});
  Policy calibrated;
  calibrated.calibrate(engine);
  const CostModel& fit = calibrated.model;

  // Work constants stay positive and finite; structural terms (launch
  // counts, walk dependence) are priors, not fit targets.
  for (const double c : {fit.tv_node_ns, fit.tv_edge_ns, fit.hybrid_node_ns,
                         fit.hybrid_edge_ns, fit.pool_sync_ns,
                         fit.query_host_ns, fit.query_device_ns}) {
    ASSERT_TRUE(std::isfinite(c));
    ASSERT_GT(c, 0.0);
  }
  const CostModel hand;
  EXPECT_EQ(fit.tv_launches, hand.tv_launches);
  EXPECT_EQ(fit.hybrid_launches, hand.hybrid_launches);

  // The mini bench_engine on a small road instance under the simulated
  // 50us launch latency: calibrated auto picks one of the two tour
  // backends, and the one it picks is, up to timing noise (15%), the
  // faster of the two measured here. On a 4-vCPU VM that was the hybrid in
  // an optimized build (0.37 against TV's 0.67 ms: 5 launches plus walks of
  // 6 tree edges per edge, against TV's 11 launches) and TV in a Debug
  // TSan build (3.3-4.0 against 4.1-6.0 ms), in 5 of 5 runs each. DFS
  // with its Csr measured 0.33-0.35 ms there, a gap no end-to-end metric
  // sees, and auto does not price it. Each run starts from an epoch
  // holding its forest LCA and no Csr, as every publish's does: the model
  // prices the mask on top of it. The backends take turns, best of five,
  // so a burst of load hits them alike.
  const EdgeList g = graph::largest_component(
      graph::simplified(gen::road_graph(48, 48, 0.72, 0.04, 7)));
  Session session = engine.session(g);
  const Plan plan = session.plan(Bridges{}, calibrated);
  ASSERT_TRUE(plan.chosen == Backend::kTv || plan.chosen == Backend::kHybrid)
      << "calibrated auto picked " << to_string(plan.chosen);

  const auto run_once = [&](const Policy& policy) {
    session.drop_artifacts();
    session.run(LcaBatch{});
    util::Timer timer;
    session.run(Bridges{}, policy);
    return timer.seconds();
  };
  std::array<double, kNumBackends> fixed_seconds;
  fixed_seconds.fill(1e300);
  for (int run = 0; run < 5; ++run) {
    for (const Backend backend : kFixedBackends) {
      double& best = fixed_seconds[backend_index(backend)];
      best = std::min(best, run_once(Policy::fixed(backend)));
    }
  }
  const double tv_seconds = fixed_seconds[backend_index(Backend::kTv)];
  const double hybrid_seconds = fixed_seconds[backend_index(Backend::kHybrid)];
  EXPECT_LE(fixed_seconds[backend_index(plan.chosen)],
            std::min(tv_seconds, hybrid_seconds) * 1.15)
      << "calibrated auto picked " << to_string(plan.chosen) << ": tv "
      << tv_seconds << " s, hybrid " << hybrid_seconds << " s";

  // Running the pick costs the pick plus a model evaluation, and no forced
  // baseline may beat it by much (generous tolerance: losing by 2x means
  // the tour backends lost their lead on this machine).
  const double best_fixed =
      *std::min_element(fixed_seconds.begin(), fixed_seconds.end());
  double auto_seconds = 1e300;
  for (int run = 0; run < 3; ++run) {
    auto_seconds = std::min(auto_seconds, run_once(calibrated));
  }
  EXPECT_LE(auto_seconds, best_fixed * 2.0 + 2e-3)
      << "calibrated auto picked " << to_string(session.mask_backend());

  // EngineOptions::calibrate wires the same fit into the default policy.
  Engine calibrated_engine(
      {.device_workers = 2, .multicore_workers = 2, .calibrate = true});
  ASSERT_TRUE(
      std::isfinite(calibrated_engine.default_policy().model.tv_edge_ns));
}

TEST(EnginePolicy, ForcedBackendIsRespected) {
  Engine engine({.device_workers = 2});
  const EdgeList g = graph::largest_component(
      graph::simplified(gen::er_graph(300, 600, 23)));
  Session session = engine.session(g);
  for (const Backend backend : kFixedBackends) {
    session.run(Bridges{}, Policy::fixed(backend));
    EXPECT_EQ(session.mask_backend(), backend);
  }
  const Plan plan = session.plan(Bridges{});
  EXPECT_NE(plan.chosen, Backend::kAuto);
  EXPECT_EQ(plan.inputs.n, g.num_nodes);
  EXPECT_EQ(plan.inputs.m, g.num_edges());
  // One prediction per auto candidate, and the pick is their argmin.
  const CostModel& model = engine.default_policy().model;
  for (std::size_t i = 0; i < kAutoBackends.size(); ++i) {
    EXPECT_EQ(plan.predicted_seconds[i],
              model.seconds(kAutoBackends[i], plan.inputs));
    EXPECT_LE(model.seconds(plan.chosen, plan.inputs),
              plan.predicted_seconds[i]);
  }
  // plan() itself must not disturb the cached mask.
  EXPECT_EQ(session.mask_backend(), kFixedBackends.back());
}

TEST(EngineEdgeCases, EmptyAndTrivialGraphs) {
  Engine engine({.device_workers = 2});
  EdgeList empty;  // zero nodes
  Session none = engine.session(empty);
  EXPECT_TRUE(none.run(Bridges{}).empty());
  EXPECT_EQ(none.run(TwoEcc{}).num_blocks, 0u);
  EXPECT_TRUE(none.run(Same2Ecc{}).empty());
  EXPECT_TRUE(none.run(LcaBatch{}).empty());

  EdgeList isolated;  // nodes, no edges
  isolated.num_nodes = 4;
  Session iso = engine.session(isolated);
  EXPECT_TRUE(iso.run(Bridges{}).empty());
  const TwoEccView view = iso.run(TwoEcc{});
  EXPECT_EQ(view.num_blocks, 4u);
  EXPECT_EQ(view.num_bridges, 0u);
  const auto sizes = iso.run(ComponentSize{{0, 1, 2, 3}});
  EXPECT_EQ(sizes, (std::vector<NodeId>{1, 1, 1, 1}));
  const auto same = iso.run(Same2Ecc{{{0, 1}, {2, 2}}});
  EXPECT_EQ(same[0], 0);
  EXPECT_EQ(same[1], 1);
}

TEST(EngineStatsTest, CountersTrackSessionsAndRequests) {
  Engine engine({.device_workers = 2});
  const EdgeList g = gen::cycle_graph(32);
  Session a = engine.session(g);
  Session b = engine.session(g);
  EXPECT_EQ(engine.stats().sessions, 2u);
  a.run(Bridges{});
  a.run(Bridges{});
  b.run(Same2Ecc{{{0, 16}}});
  EXPECT_EQ(engine.stats().requests, 3u);
  EXPECT_GT(engine.stats().artifact_builds, 0u);
  EXPECT_GT(engine.stats().artifact_hits, 0u);  // the second Bridges
  EXPECT_GT(engine.stats().host_query_batches, 0u);

  // drop_artifacts: the next request rebuilds (the benchmark hook).
  const auto builds = engine.stats().artifact_builds;
  a.drop_artifacts();
  a.run(Bridges{}, Policy::fixed(Backend::kTv));
  EXPECT_GT(engine.stats().artifact_builds, builds);
}

}  // namespace
}  // namespace emc::engine
