// Table 1 — statistics of the largest connected components of the graphs
// used in the bridge-finding experiments: nodes, edges, bridges, diameter —
// plus the per-edge Tarjan-Vishkin cost on each instance, timed through
// its standalone entry point (the whole pipeline, as the paper times it).
//
// Bridges are counted with Tarjan-Vishkin (validated against DFS in the
// test suite); the diameter column is the standard iterated double-BFS
// lower bound, which is what experimental papers report at this scale.
//
// Besides the console table, every run writes machine-readable rows to
// BENCH_bridges.json (same {"op", "n", "context", "ns_per_elem"} shape as
// BENCH_primitives.json; n is the instance's edge count) so the
// bridge-level perf trajectory is tracked across PRs, not just primitives.
#include <algorithm>
#include <cstdio>

#include "bridge_suite.hpp"
#include "bridges/tarjan_vishkin.hpp"
#include "common.hpp"
#include "engine/engine.hpp"

int main(int argc, char** argv) {
  using namespace emc;
  util::Flags flags(argc, argv);
  const auto kron_min = static_cast<int>(flags.get_int("kron-min", 12, ""));
  const auto kron_max = static_cast<int>(flags.get_int("kron-max", 16, ""));
  const auto kron_ef = flags.get_double("kron-edge-factor", 89.0, "");
  const auto scale = flags.get_double("scale", 1.0, "road grid scale");
  const auto runs = std::max(
      1, static_cast<int>(flags.get_int("runs", 3, "timing runs")));
  flags.finish();

  engine::Engine eng;
  std::printf("# Table 1: statistics of largest connected components\n\n");
  util::Table table(
      {"graph", "nodes", "edges", "bridges", "diameter", "tv ns/edge"});
  std::vector<bench::BenchRow> rows;

  auto suite = bench::kron_suite(kron_min, kron_max, kron_ef);
  auto real = bench::real_suite(scale);
  suite.insert(suite.end(), std::make_move_iterator(real.begin()),
               std::make_move_iterator(real.end()));

  for (const auto& inst : suite) {
    const auto& g = inst.graph;
    engine::Session session = eng.session(g);
    const double seconds = bench::time_avg(
        runs, [&] { bridges::find_bridges_tarjan_vishkin(eng.device(), g); });
    const double ns_per_edge = seconds * 1e9 / g.num_edges();
    const std::size_t num_bridges = bridges::count_bridges(
        bridges::find_bridges_tarjan_vishkin(eng.device(), g));
    table.add_row({inst.name,
                   bench::human(static_cast<std::size_t>(g.num_nodes)),
                   bench::human(g.num_edges()), bench::human(num_bridges),
                   std::to_string(graph::estimate_diameter(session.csr())),
                   std::to_string(ns_per_edge)});
    rows.push_back({"bridges_tv/" + inst.name, g.num_edges(), "gpu",
                    ns_per_edge});
  }
  table.print();
  if (!bench::write_bench_json("BENCH_bridges.json", rows)) {
    std::fprintf(stderr, "failed to write BENCH_bridges.json\n");
    return 1;
  }
  return 0;
}
