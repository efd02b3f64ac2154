// Diameter sensitivity at fixed size — the mechanism behind Figures 9-11,
// and the variable the engine's auto policy keys on.
//
// The paper's central bridges claim is that CK degrades with the input
// diameter (its BFS runs one global round per level, and its marking walks
// lengthen), while TV's cost is diameter-invariant. Holding n and m fixed
// and stretching a road grid from square to ribbon isolates exactly that
// variable; the last column shows where the engine's cost model places the
// crossover. CK runs as a forced-backend Session request (Csr and forest
// built outside the timer), TV through its standalone entry point, so both
// columns are whole pipelines.
#include <cstdio>
#include <string>

#include "bridges/tarjan_vishkin.hpp"
#include "common.hpp"
#include "engine/engine.hpp"
#include "gen/graphs.hpp"
#include "util/bits.hpp"

int main(int argc, char** argv) {
  using namespace emc;
  util::Flags flags(argc, argv);
  const auto area = flags.get_int("area", 1 << 18, "grid nodes (W x H)");
  const auto runs = static_cast<int>(flags.get_int("runs", 1, ""));
  flags.finish();

  engine::Engine eng;
  std::printf("# Diameter sensitivity of bridge finding "
              "(fixed ~%lld-node road grids)\n\n",
              static_cast<long long>(area));
  util::Table table({"grid", "nodes", "edges", "diameter", "gpu_ck_s",
                     "gpu_tv_s", "winner", "auto_pick"});

  for (NodeId width = static_cast<NodeId>(1)
                      << (util::ceil_log2(static_cast<std::uint64_t>(area)) / 2);
       ; width *= 2) {
    const NodeId height = static_cast<NodeId>(area / width);
    // Below ~16 rows the percolated ribbon fragments and the largest
    // component no longer has ~area nodes; stop the sweep there.
    if (height < 16) break;
    const graph::EdgeList g = graph::largest_component(graph::simplified(
        gen::road_graph(width, height, 0.72, 0.04, 1000 + width)));
    engine::Session session = eng.session(g);
    session.num_components();  // input prep outside the timers
    // The reported diameter is the 4-sweep estimate, comparable across
    // committed BENCH rows; the cost model reads the forest's height.
    const NodeId diameter = graph::estimate_diameter(session.csr());

    const engine::Policy ck_policy = engine::Policy::fixed(engine::Backend::kCk);
    const double ck = bench::time_avg(runs, [&] {
      session.drop_results();
      session.run(engine::Bridges{}, ck_policy);
    });
    const double tv = bench::time_avg(
        runs, [&] { bridges::find_bridges_tarjan_vishkin(eng.device(), g); });
    table.add_row({std::to_string(width) + "x" + std::to_string(height),
                   bench::human(static_cast<std::size_t>(g.num_nodes)),
                   bench::human(g.num_edges()), std::to_string(diameter),
                   util::Table::num(ck), util::Table::num(tv),
                   ck <= tv ? "gpu-ck" : "gpu-tv",
                   std::string(engine::to_string(
                       session.plan(engine::Bridges{}).chosen))});
  }
  table.print();
  return 0;
}
