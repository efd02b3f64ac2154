// Figure 10 — bridge-finding algorithms on the real-world-class suite
// (social/web and road-network stand-ins): DFS and CK as forced-backend
// requests through one engine Session per instance (Csr and forest built
// outside the timers), TV through its standalone entry point, so its
// column is the whole pipeline the paper times.
//
// Expectations from the paper (wide machines): TV wins everywhere except
// the smallest web graph; the TV-over-CK advantage is largest on the road
// networks (up to ~4.7x), where CK's BFS pays for the huge diameter.
#include <cstdio>
#include <string>

#include "bridge_suite.hpp"
#include "bridges/tarjan_vishkin.hpp"
#include "common.hpp"
#include "engine/engine.hpp"

int main(int argc, char** argv) {
  using namespace emc;
  util::Flags flags(argc, argv);
  const auto scale = flags.get_double("scale", 1.0, "road grid scale");
  const auto runs = static_cast<int>(flags.get_int("runs", 1, ""));
  flags.finish();

  engine::Engine eng;
  std::printf("# Figure 10: bridge finding on real-world-class graphs\n\n");
  util::Table table({"graph", "nodes", "edges", "cpu1_dfs_s", "multicore_ck_s",
                     "gpu_ck_s", "gpu_tv_s", "tv_speedup_vs_ck", "auto_pick"});

  for (const auto& inst : bench::real_suite(scale)) {
    const auto& g = inst.graph;
    engine::Session session = eng.session(g);
    session.csr();
    session.num_components();  // input prep outside the timers
    const auto timed = [&](engine::Backend backend) {
      return bench::time_avg(runs, [&] {
        session.drop_results();
        session.run(engine::Bridges{}, engine::Policy::fixed(backend));
      });
    };
    const double dfs = timed(engine::Backend::kDfs);
    const double ck_mc = timed(engine::Backend::kCkMulticore);
    const double ck_gpu = timed(engine::Backend::kCk);
    const double tv = bench::time_avg(
        runs, [&] { bridges::find_bridges_tarjan_vishkin(eng.device(), g); });
    table.add_row({inst.name,
                   bench::human(static_cast<std::size_t>(g.num_nodes)),
                   bench::human(g.num_edges()), util::Table::num(dfs),
                   util::Table::num(ck_mc), util::Table::num(ck_gpu),
                   util::Table::num(tv),
                   util::Table::num(ck_gpu / tv, 2) + "x",
                   std::string(engine::to_string(
                       session.plan(engine::Bridges{}).chosen))});
  }
  table.print();
  return 0;
}
