// Ablation benchmarks for the design decisions DESIGN.md calls out.
//
//  A1  tour-as-array vs tour-as-list (§2.2): k prefix sums over an Euler
//      tour, done (a) with one list ranking + k array scans, vs (b) k
//      list-prefix computations on the linked tour.
//  A2  Wei-JáJá vs Wyllie pointer jumping as the one list ranking inside
//      the Euler tour construction.
//  A3  naive-LCA level preprocessing: 5 chained jumps per barrier (paper)
//      vs 1 (textbook pointer jumping).
//  A4  CK spanning tree choice on a road graph: BFS tree (CK) vs CC tree +
//      Euler rooting (hybrid) vs TV — isolating why hybrid never wins.
#include <cstdio>

#include "bridges/hybrid.hpp"
#include "bridges/tarjan_vishkin.hpp"
#include "common.hpp"
#include "core/euler_tour.hpp"
#include "engine/engine.hpp"
#include "device/primitives.hpp"
#include "gen/graphs.hpp"
#include "gen/trees.hpp"
#include "lca/naive.hpp"
#include "listrank/listrank.hpp"

int main(int argc, char** argv) {
  using namespace emc;
  util::Flags flags(argc, argv);
  const auto n64 = flags.get_int("nodes", 1 << 19, "tree size");
  const auto scans = static_cast<int>(
      flags.get_int("scans", 8, "prefix sums per tour in A1"));
  flags.finish();
  const auto n = static_cast<NodeId>(n64);

  const bench::Contexts ctx = bench::make_contexts();
  core::ParentTree ptree = gen::random_tree(n, gen::kInfiniteGrasp, 3);
  gen::scramble_ids(ptree, 4);
  const graph::EdgeList tedges = core::tree_edges(ptree);

  // ---------------------------------------------------------------- A1
  {
    const core::EulerTour tour =
        core::build_euler_tour(ctx.gpu, tedges, ptree.root);
    const std::size_t h = tour.num_half_edges();
    std::vector<std::int64_t> weights(h), out64(h);
    for (std::size_t e = 0; e < h; ++e) weights[e] = tour.goes_down(e) ? 1 : -1;

    util::Timer timer;
    std::vector<std::int64_t> by_rank(h);
    for (int k = 0; k < scans; ++k) {
      device::gather(ctx.gpu, weights.data(), tour.tour.data(), h,
                     by_rank.data());
      device::inclusive_scan(ctx.gpu, by_rank.data(), h, out64.data());
    }
    const double array_time = timer.seconds();

    timer.reset();
    for (int k = 0; k < scans; ++k) {
      listrank::prefix_wei_jaja(ctx.gpu, tour.succ, tour.head, weights, out64);
    }
    const double list_time = timer.seconds();
    std::printf("A1 tour-as-array vs tour-as-list (%d prefix sums, %zu "
                "elements):\n  array scans: %.3fs   list prefixes: %.3fs   "
                "(list/array = %.2fx)\n\n",
                scans, h, array_time, list_time, list_time / array_time);
  }

  // ---------------------------------------------------------------- A2
  {
    util::Timer timer;
    core::build_euler_tour(ctx.gpu, tedges, ptree.root,
                           core::RankAlgo::kWeiJaja);
    const double wei = timer.seconds();
    timer.reset();
    core::build_euler_tour(ctx.gpu, tedges, ptree.root,
                           core::RankAlgo::kWyllie);
    const double wyllie = timer.seconds();
    std::printf("A2 Euler tour construction by ranking algorithm:\n"
                "  wei-jaja: %.3fs   wyllie: %.3fs   (wyllie/wei-jaja = "
                "%.2fx)\n\n",
                wei, wyllie, wyllie / wei);
  }

  // ---------------------------------------------------------------- A3
  {
    // Deep-ish tree so the jumping rounds matter.
    core::ParentTree deep = gen::random_tree(n, NodeId{100}, 5);
    gen::scramble_ids(deep, 6);
    util::Timer timer;
    lca::NaiveLca::build(ctx.gpu, deep, /*jumps_per_round=*/5);
    const double batched = timer.seconds();
    timer.reset();
    lca::NaiveLca::build(ctx.gpu, deep, /*jumps_per_round=*/2);
    const double plain = timer.seconds();
    std::printf("A3 naive-LCA level preprocessing (deep tree):\n"
                "  5 jumps/barrier: %.3fs   2 jumps/barrier (textbook "
                "doubling): %.3fs   (2/5 = %.2fx)\n\n",
                batched, plain, plain / batched);
  }

  // ---------------------------------------------------------------- A4
  {
    const graph::EdgeList road = graph::largest_component(graph::simplified(
        gen::road_graph(180, 180, 0.72, 0.04, 7)));
    engine::Engine eng;
    engine::Session session = eng.session(road);
    session.csr();
    session.num_components();  // input prep outside the phase timers
    // TV and the hybrid through their standalone entry points: the whole
    // pipeline, spanning tree and tour included, as in Figure 11.
    util::PhaseTimer ck_phases, hy_phases, tv_phases;
    session.run(engine::Bridges{&ck_phases},
                engine::Policy::fixed(engine::Backend::kCk));
    bridges::find_bridges_hybrid(eng.device(), road, &hy_phases);
    bridges::find_bridges_tarjan_vishkin(eng.device(), road, &tv_phases);
    std::printf("A4 spanning-tree choice on a road graph (%d nodes):\n",
                road.num_nodes);
    auto show = [](const char* name, const util::PhaseTimer& phases) {
      std::printf("  %-10s total %.1fms (", name, phases.total() * 1e3);
      bool first = true;
      for (const auto& [phase, secs] : phases.phases()) {
        std::printf("%s%s=%.1f", first ? "" : " ", phase.c_str(), secs * 1e3);
        first = false;
      }
      std::printf(")\n");
    };
    show("gpu-ck", ck_phases);
    show("gpu-hybrid", hy_phases);
    show("gpu-tv", tv_phases);
  }
  return 0;
}
