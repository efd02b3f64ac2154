// Critical road segments — bridge finding on a road network (paper §4),
// served through the emc::engine façade.
//
// Road networks are the adversarial case for BFS-based heuristics: huge
// diameter, m ~ n. This example binds one Session to a synthetic road
// network, forces each parallel backend (plus the DFS baseline) through the
// same Bridges request to report agreement and per-phase timings, shows
// what the auto policy would have picked, and then decomposes the map into
// 2-edge-connected "resilient districts" straight from the session's
// cached index.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "gen/graphs.hpp"
#include "graph/graph.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace emc;
  const NodeId side = argc > 1 ? std::atoi(argv[1]) : 150;
  engine::Engine eng;

  const graph::EdgeList map = graph::largest_component(
      graph::simplified(gen::road_graph(side, side, 0.72, 0.04, 7)));
  engine::Session session = eng.session(map);
  std::printf("road network: %d intersections, %zu road segments, "
              "diameter >= %d\n\n",
              map.num_nodes, map.num_edges(),
              graph::estimate_diameter(session.csr(), /*sweeps=*/2));

  // Same request, four forced backends; the session recomputes the mask
  // whenever the forced backend differs from the cached one.
  struct Run {
    engine::Backend backend;
    util::PhaseTimer phases;
    bridges::BridgeMask mask;
  };
  std::vector<Run> runs(3);
  runs[0].backend = engine::Backend::kTv;
  runs[1].backend = engine::Backend::kCk;
  runs[2].backend = engine::Backend::kHybrid;
  for (Run& run : runs) {
    run.mask = session.run(engine::Bridges{&run.phases},
                           engine::Policy::fixed(run.backend));
  }
  util::Timer dfs_timer;
  const bridges::BridgeMask dfs = session.run(
      engine::Bridges{}, engine::Policy::fixed(engine::Backend::kDfs));
  const double dfs_time = dfs_timer.seconds();

  for (const Run& run : runs) {
    if (run.mask != dfs) {
      std::fprintf(stderr, "ALGORITHM MISMATCH\n");
      return 1;
    }
  }
  const std::size_t critical = bridges::count_bridges(dfs);
  std::printf("critical segments (bridges): %zu of %zu (%.1f%%)\n\n", critical,
              map.num_edges(), 100.0 * critical / map.num_edges());

  std::printf("timings:\n");
  for (const Run& run : runs) {
    std::printf("  %-11s %.1f ms  (",
                std::string(engine::to_string(run.backend)).c_str(),
                run.phases.total() * 1e3);
    bool first = true;
    for (const auto& [phase, secs] : run.phases.phases()) {
      std::printf("%s%s %.1f", first ? "" : ", ", phase.c_str(), secs * 1e3);
      first = false;
    }
    std::printf(")\n");
  }
  std::printf("  %-11s %.1f ms\n", "dfs", dfs_time * 1e3);
  const engine::Plan plan = session.plan(engine::Bridges{});
  std::printf("  auto policy would pick: %s\n\n",
              std::string(engine::to_string(plan.chosen)).c_str());

  // Resilient districts: the session's cached 2-ecc index (built from the
  // bridge mask already computed above — marginal work only).
  const engine::TwoEccView districts = session.run(engine::TwoEcc{});
  std::vector<std::size_t> ordered(districts.num_blocks, 0);
  for (const NodeId block : *districts.labels) ++ordered[block];
  std::sort(ordered.rbegin(), ordered.rend());
  std::printf("resilient districts (2-edge-connected components): %zu\n",
              districts.num_blocks);
  std::printf("largest districts: ");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, ordered.size()); ++i) {
    std::printf("%zu ", ordered[i]);
  }
  std::printf("intersections\n");
  return 0;
}
