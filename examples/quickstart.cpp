// Quickstart: the emc::engine façade end to end — one Engine, one Session
// per graph, typed request batches, policy-driven backend selection, and
// the epoch-keyed artifact cache (static and dynamic graphs through the
// same API).
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/quickstart
#include <cstdio>
#include <string>

#include "bridges/bridges.hpp"
#include "bridges/dfs_bridges.hpp"
#include "engine/engine.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "gen/graphs.hpp"
#include "graph/graph.hpp"

int main() {
  using namespace emc;
  engine::Engine eng;  // owns the device context
  std::printf("engine: device=%u workers\n", eng.device().workers());

  // --- 1. A static graph session: bridges with the auto policy.
  //        The Policy's cost model (n, m, and the sampled mean marking walk
  //        of the spanning forest the session roots for every epoch) picks
  //        TV or the hybrid per request; plan() shows the decision. DFS and
  //        CK run only when forced.
  const graph::EdgeList road = graph::largest_component(
      graph::simplified(gen::road_graph(60, 60, 0.7, 0.05, 7)));
  engine::Session session = eng.session(road);
  const engine::Plan plan = session.plan(engine::Bridges{});
  std::printf("\nroad graph: %d nodes, %zu edges, mean marking walk %.1f\n",
              road.num_nodes, road.num_edges(), plan.inputs.walk);
  std::printf("policy predictions:");
  for (std::size_t b = 0; b < engine::kAutoBackends.size(); ++b) {
    std::printf(" %s=%.1fms",
                std::string(engine::to_string(engine::kAutoBackends[b])).c_str(),
                plan.predicted_seconds[b] * 1e3);
  }
  std::printf("  -> %s\n",
              std::string(engine::to_string(plan.chosen)).c_str());

  const bridges::BridgeMask& auto_mask = session.run(engine::Bridges{});
  // Every backend must agree: cross-check against a sequential DFS on a
  // Csr built outside the session.
  const bridges::BridgeMask dfs_mask =
      bridges::find_bridges_dfs(graph::build_csr(eng.device(), road));
  const bool agreed = auto_mask == dfs_mask;
  std::printf("bridges: %zu via %s, %zu via sequential dfs (%s)\n",
              bridges::count_bridges(auto_mask),
              std::string(engine::to_string(session.mask_backend())).c_str(),
              bridges::count_bridges(dfs_mask),
              agreed ? "agreement" : "MISMATCH");

  // --- 2. Query batches on the cached 2-ecc artifact. The first batch
  //        builds the index (reusing the bridge mask the session already
  //        computed); repeats on an unchanged graph launch nothing.
  const engine::TwoEccView districts = session.run(engine::TwoEcc{});
  std::printf("\n2-edge-connected components: %zu blocks, %zu bridges\n",
              districts.num_blocks, districts.num_bridges);
  engine::Same2Ecc redundancy;
  for (NodeId v = 1; v <= 5; ++v) redundancy.pairs.push_back({0, v * 100});
  const auto redundant = session.run(redundancy);
  for (std::size_t q = 0; q < redundancy.pairs.size(); ++q) {
    std::printf("  two edge-disjoint paths %d <-> %d: %s\n",
                redundancy.pairs[q].first, redundancy.pairs[q].second,
                redundant[q] ? "yes" : "no");
  }

  // --- 3. The SAME code path serves a live graph: bind a session to a
  //        DynamicGraph and the epoch key tracks its update batches (small
  //        deltas are replayed incrementally by the cached index).
  dynamic::DynamicGraph live(eng.device(), road);
  engine::Session dyn = eng.session(live);
  engine::BridgesOnPath trip{{{0, road.num_nodes - 1}}};
  const auto before = dyn.run(trip);
  live.insert_edges(eng.device(), {{0, road.num_nodes - 1}});
  const auto after = dyn.run(trip);
  std::printf("\ndynamic: critical segments on the 0 -> %d trip: %d, then %d "
              "after building a direct road\n",
              road.num_nodes - 1, before[0], after[0]);

  // --- 4. LcaBatch: LCA queries on the session's cached rooted spanning
  //        forest (the Euler tour + inlabel artifacts), kNoNode across
  //        components.
  const auto meets =
      session.run(engine::LcaBatch{{{5, 9}, {100, 2000}, {17, 17}}});
  std::printf("\nspanning-forest LCA: lca(5,9)=%d lca(100,2000)=%d "
              "lca(17,17)=%d\n", meets[0], meets[1], meets[2]);

  std::printf("\nengine stats: %zu requests, %zu artifact builds, %zu hits\n",
              eng.stats().requests, eng.stats().artifact_builds,
              eng.stats().artifact_hits);
  return agreed && after[0] == 0 ? 0 : 1;
}
