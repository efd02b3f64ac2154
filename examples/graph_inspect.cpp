// graph_inspect — run the full analysis pipeline on a graph file, through
// the emc::engine façade.
//
// Accepts the formats the paper's datasets ship in (DIMACS .gr, SNAP edge
// lists) plus the native "n m" edge list; with no argument it analyses two
// built-in generated graphs, a road network and a small kron graph, so the
// example is runnable offline and its cross-checks see both a deep and a
// shallow instance (the shapes on which the auto policy picks differently).
//
//   ./graph_inspect [path/to/graph]
//
// Pipeline (paper §4.2-§4.3): simplify → largest connected component →
// statistics → bridges (policy-picked backend, cross-checked against a
// sequential DFS run outside the session) → biconnectivity (blocks +
// articulation points from the session's BccIndex, cross-checked against a
// standalone build) → 2-edge-connected components from the session's
// cached index. Exits 1 on either disagreement.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bcc/bcc.hpp"
#include "bridges/dfs_bridges.hpp"
#include "engine/engine.hpp"
#include "gen/graphs.hpp"
#include "graph/graph.hpp"
#include "io/io.hpp"
#include "util/timer.hpp"

namespace {

using namespace emc;

/// Analyses one graph; returns the process exit code (1 on a disagreement).
int inspect(engine::Engine& eng, const graph::EdgeList& raw) {
  const graph::EdgeList g = graph::largest_component(graph::simplified(raw));
  engine::Session session = eng.session(g);
  if (g.num_edges() == 0) {
    std::printf("largest component: %d nodes, no edges\n", g.num_nodes);
    return 0;
  }
  session.num_components();  // input prep outside the timers below

  util::Timer timer;
  const bridges::BridgeMask auto_mask = session.run(engine::Bridges{});
  const double auto_time = timer.seconds();
  const engine::Backend picked = session.mask_backend();
  // The reference runs outside the session: a forced DFS request would
  // re-serve the cached mask whenever auto already picked DFS.
  timer.reset();
  const bridges::BridgeMask dfs =
      bridges::find_bridges_dfs(graph::build_csr(eng.device(), g));
  const double dfs_time = timer.seconds();
  std::printf("largest component: %d nodes, %zu edges, diameter >= %d\n",
              g.num_nodes, g.num_edges(),
              graph::estimate_diameter(session.csr(), /*sweeps=*/2));
  if (auto_mask != dfs) {
    std::fprintf(stderr, "backend disagreement — please report\n");
    return 1;
  }
  std::printf("bridges: %zu  (auto picked %s: %.1f ms, DFS cross-check "
              "%.1f ms)\n",
              bridges::count_bridges(dfs),
              std::string(engine::to_string(picked)).c_str(), auto_time * 1e3,
              dfs_time * 1e3);

  timer.reset();
  const std::vector<std::uint8_t> arts = session.run(engine::Articulations{});
  const double bcc_time = timer.seconds();
  const engine::View view = session.view();
  const bcc::BccIndex& index = *view.bcc_index();
  // The engine builds on its forest LCA's tree; a standalone build tours the
  // same forest itself. Both must agree.
  const bcc::BccIndex standalone =
      bcc::BccIndex::build(eng.device(), g, view.forest());
  if (index.num_blocks != standalone.num_blocks ||
      index.num_articulations != standalone.num_articulations ||
      index.is_articulation != standalone.is_articulation ||
      arts != standalone.is_articulation) {
    std::fprintf(stderr, "BCC index disagreement — please report\n");
    return 1;
  }
  std::printf("blocks: %zu, articulation points: %zu  (%.1f ms, standalone "
              "cross-check agrees)\n",
              index.num_blocks, index.num_articulations, bcc_time * 1e3);

  const engine::TwoEccView tecc = session.run(engine::TwoEcc{});
  std::printf("2-edge-connected components: %zu\n", tecc.num_blocks);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  engine::Engine eng;
  if (argc > 1) {
    const auto loaded = io::load_graph_file(argv[1]);
    if (!loaded) {
      std::fprintf(stderr, "error reading %s (line %zu): %s\n", argv[1],
                   loaded.error.line, loaded.error.message.c_str());
      return 2;
    }
    std::printf("loaded %s: %d nodes, %zu edges (raw)\n", argv[1],
                loaded.value->num_nodes, loaded.value->num_edges());
    return inspect(eng, *loaded.value);
  }
  std::printf("no input file; using a generated road network\n");
  if (const int code = inspect(eng, gen::road_graph(120, 120, 0.72, 0.04, 42));
      code != 0) {
    return code;
  }
  std::printf("\nand a generated kron graph\n");
  return inspect(eng, gen::kron_graph(14, 16.0, 42));
}
