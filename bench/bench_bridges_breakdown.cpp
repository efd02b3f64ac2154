// Figure 11 — running time breakdown of the GPU bridge-finding algorithms,
// plus the §4.3 hybrid comparison.
//
// Per instance, prints each algorithm's phases in milliseconds:
//   GPU CK     — bfs | mark_non_bridges
//   GPU TV     — spanning_tree | euler_tour | detect_bridges
//   GPU hybrid — spanning_tree | euler_tour | levels_and_parents |
//                mark_non_bridges
//
// Expectations: BFS dominates CK as the diameter grows; hybrid beats CK on
// most instances but never beats TV (its marking phase is not cheaper than
// TV's detect phase once both have paid for spanning tree + Euler tour).
//
// CK runs as a forced-backend Session request with its Csr and forest built
// outside the window; TV and the hybrid run their standalone entry points,
// so each row times the whole pipeline the paper measures (the engine's
// TV and hybrid masks reuse the epoch's tour and would time one phase).
#include <cstdint>
#include <cstdio>
#include <string>

#include "bridge_suite.hpp"
#include "bridges/hybrid.hpp"
#include "bridges/tarjan_vishkin.hpp"
#include "common.hpp"
#include "engine/engine.hpp"

int main(int argc, char** argv) {
  using namespace emc;
  util::Flags flags(argc, argv);
  const auto scale = flags.get_double("scale", 1.0, "road grid scale");
  const auto kron_min = static_cast<int>(flags.get_int("kron-min", 13, ""));
  const auto kron_max = static_cast<int>(flags.get_int("kron-max", 15, ""));
  flags.finish();

  engine::Engine eng;
  std::printf("# Figure 11: runtime breakdown of GPU bridge algorithms\n");
  std::printf("# `launches` counts kernel launches (ThreadPool::launch_count "
              "deltas): each one pays the modeled launch+barrier latency, so "
              "fused pipelines show up directly in this column.\n\n");
  util::Table table({"graph", "algo", "phases_ms", "total_ms", "launches"});

  auto suite = bench::kron_suite(kron_min, kron_max, 89.0);
  auto real = bench::real_suite(scale);
  suite.insert(suite.end(), std::make_move_iterator(real.begin()),
               std::make_move_iterator(real.end()));

  for (const auto& inst : suite) {
    const auto& g = inst.graph;
    engine::Session session = eng.session(g);
    session.csr();
    session.num_components();  // input prep outside the launch windows

    auto render = [](const util::PhaseTimer& phases) {
      std::string out;
      for (const auto& [name, secs] : phases.phases()) {
        if (!out.empty()) out += " | ";
        out += name + "=" + util::Table::num(secs * 1e3, 1);
      }
      return out;
    };

    const auto measure = [&](const char* label, const auto& run) {
      util::PhaseTimer phases;
      const std::uint64_t launches = eng.device_launches();
      run(&phases);
      table.add_row({inst.name, label, render(phases),
                     util::Table::num(phases.total() * 1e3, 1),
                     std::to_string(eng.device_launches() - launches)});
    };
    measure("gpu-ck", [&](util::PhaseTimer* phases) {
      session.drop_results();
      session.run(engine::Bridges{phases},
                  engine::Policy::fixed(engine::Backend::kCk));
    });
    measure("gpu-tv", [&](util::PhaseTimer* phases) {
      bridges::find_bridges_tarjan_vishkin(eng.device(), g, phases);
    });
    measure("gpu-hybrid", [&](util::PhaseTimer* phases) {
      bridges::find_bridges_hybrid(eng.device(), g, phases);
    });
  }
  table.print();
  std::printf("\n# Section 4.3 check: hybrid total should usually sit between "
              "CK and TV, and never below TV.\n");
  return 0;
}
