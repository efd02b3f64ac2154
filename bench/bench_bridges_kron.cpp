// Figure 9 — bridge-finding algorithms on the Kronecker ladder: DFS and
// CK as forced-backend requests through one engine Session per instance
// (Csr and forest built outside the timers), TV through its standalone
// entry point, so its column is the whole pipeline the paper times.
//
// Total times for the four configurations of the paper, plus the backend
// the auto policy would pick. Expectations on wide machines: both GPU
// algorithms beat the CPU baselines; TV beats CK on all but the smallest
// instance (small diameter keeps CK competitive here).
#include <cstdio>
#include <string>

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
  const auto runs = static_cast<int>(flags.get_int("runs", 1, ""));
  flags.finish();

  engine::Engine eng;
  std::printf("# Figure 9: bridge finding on Kronecker graphs\n\n");
  util::Table table({"graph", "nodes", "edges", "cpu1_dfs_s", "multicore_ck_s",
                     "gpu_ck_s", "gpu_tv_s", "auto_pick"});

  for (const auto& inst : bench::kron_suite(kron_min, kron_max, kron_ef)) {
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
                   std::string(engine::to_string(
                       session.plan(engine::Bridges{}).chosen))});
  }
  table.print();
  return 0;
}
