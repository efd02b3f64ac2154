// The engine's backend competition: per-backend bridge cost and the auto
// policy's pick, per scenario — the Optiplan-style "backends compete per
// instance" table (ISSUE 4), and the data the CostModel defaults are
// calibrated against.
//
// Per scenario (kron / social / square road / ribbon road — spanning the
// diameter and density regimes that decide the paper's Figures 9-11), every
// fixed backend answers the same Bridges request through one Session, then
// the auto policy runs the same request. Each run starts from an epoch that
// holds its spanning forest and forest LCA and nothing else (every publish
// builds both for the 2-ecc index), so each row is the MARGINAL mask the
// cost model prices: DFS and CK build the Csr they read, TV and the hybrid
// run on the forest LCA's tree, and auto decides from that tree's height
// and its sampled mean marking walk.
// The auto row must match or beat every fixed backend: it runs whichever
// backend the cost model picks, so its time is the winner's time plus a
// cache lookup — if it does not, the model is miscalibrated for this
// machine (rerun and refit CostModel).
//
// Rows land in BENCH_engine.json (committed at repo root):
//   op   = engine_bridges/<scenario>/<backend>   (n = instance edge count)
//   op   = engine_bridges/<scenario>/auto, context = the backend it picked
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine/engine.hpp"
#include "gen/graphs.hpp"
#include "graph/graph.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace emc;
  util::Flags flags(argc, argv);
  const auto runs = std::max(
      1, static_cast<int>(flags.get_int("runs", 3, "timing runs (min taken)")));
  const auto scale = flags.get_double("scale", 1.0, "instance size scale");
  const bool check = flags.get_int("check", 1, "nonzero exit if auto loses") != 0;
  flags.finish();

  engine::Engine eng;
  std::printf("# engine backend competition (device=%u multicore=%u "
              "workers)\n\n",
              eng.device().workers(), eng.multicore().workers());

  // The startup-fitted model competes alongside the committed hand table:
  // both auto rows must match or beat every fixed backend.
  engine::Policy calibrated;
  calibrated.calibrate(eng);

  const auto side = [&](int base) { return static_cast<NodeId>(base * scale); };
  std::vector<std::pair<std::string, graph::EdgeList>> scenarios;
  scenarios.emplace_back(  // small diameter, dense (Figure 9 regime)
      "kron", graph::largest_component(
                  graph::simplified(gen::kron_graph(12, 45.0, 1012))));
  scenarios.emplace_back(  // small diameter, moderate density (social class)
      "social", graph::largest_component(
                    graph::simplified(gen::social_graph(14, 10, 2))));
  scenarios.emplace_back(  // moderate diameter road grid
      "road-square", graph::largest_component(graph::simplified(
                         gen::road_graph(side(256), side(256), 0.72, 0.04, 3))));
  scenarios.emplace_back(  // huge diameter ribbon (Figure 10 road regime)
      "road-ribbon", graph::largest_component(graph::simplified(
                         gen::road_graph(side(4096), 24, 0.72, 0.04, 4))));

  util::Table table({"scenario", "nodes", "edges", "diameter", "height",
                     "walk", "backend", "seconds", "ns/edge"});
  std::vector<bench::BenchRow> rows;
  bool auto_won_everywhere = true;

  for (const auto& [name, g] : scenarios) {
    engine::Session session = eng.session(g);
    const std::string diameter =
        std::to_string(graph::estimate_diameter(session.csr(), /*sweeps=*/2));
    const engine::PlanInputs inputs = session.plan(engine::Bridges{}).inputs;
    const std::string height = std::to_string(inputs.height);
    const std::string walk = util::Table::num(inputs.walk, 1);

    // Best-of-runs: the stable statistic for ranking backends on a noisy
    // container (averages smear scheduler hiccups into the wrong winner).
    const auto timed = [&](const engine::Policy& policy) {
      double best = 1e300;
      for (int r = 0; r < runs; ++r) {
        session.drop_artifacts();
        session.run(engine::LcaBatch{});  // forest + forest LCA, untimed
        util::Timer timer;
        session.run(engine::Bridges{}, policy);
        best = std::min(best, timer.seconds());
      }
      return best;
    };
    double best_fixed = 1e300;
    for (const engine::Backend backend : engine::kFixedBackends) {
      const double seconds = timed(engine::Policy::fixed(backend));
      best_fixed = std::min(best_fixed, seconds);
      const std::string label(engine::to_string(backend));
      table.add_row({name, bench::human(static_cast<std::size_t>(g.num_nodes)),
                     bench::human(g.num_edges()), diameter, height, walk, label,
                     util::Table::num(seconds),
                     util::Table::num(seconds * 1e9 / g.num_edges(), 1)});
      rows.push_back({"engine_bridges/" + name + "/" + label, g.num_edges(),
                      label, seconds * 1e9 / g.num_edges()});
    }
    const auto auto_row = [&](const char* label, const engine::Policy& policy) {
      const double seconds = timed(policy);  // leaves the pick's mask
      const std::string picked(engine::to_string(session.mask_backend()));
      table.add_row({name, bench::human(static_cast<std::size_t>(g.num_nodes)),
                     bench::human(g.num_edges()), diameter, height, walk,
                     std::string(label) + "->" + picked,
                     util::Table::num(seconds),
                     util::Table::num(seconds * 1e9 / g.num_edges(), 1)});
      rows.push_back({"engine_bridges/" + name + "/" + label, g.num_edges(),
                      picked, seconds * 1e9 / g.num_edges()});
      // The acceptance bar: auto within noise of the best fixed backend.
      if (seconds > best_fixed * 1.25 + 1e-4) {
        std::printf("!! %s (%s, %.4fs) lost to the best fixed backend "
                    "(%.4fs) on %s — CostModel is miscalibrated here\n",
                    label, picked.c_str(), seconds, best_fixed, name.c_str());
        auto_won_everywhere = false;
      }
    };
    auto_row("auto", engine::Policy{});
    auto_row("auto_cal", calibrated);
  }

  table.print();
  std::printf("\nauto policy %s\n",
              auto_won_everywhere
                  ? "matched or beat every benched scenario"
                  : "LOST on at least one benched scenario (see !! above)");
  if (!bench::write_bench_json("BENCH_engine.json", rows)) {
    std::fprintf(stderr, "failed to write BENCH_engine.json\n");
    return 1;
  }
  return check && !auto_won_everywhere ? 2 : 0;
}
