// Vertex-biconnectivity cost model: what the BccIndex artifact costs to
// build next to the bridge pipeline it rides on, and what the bulk query
// families built on it sustain at the 1M-node scale.
//
// Three sections, one 1M-node road scenario (side^2 nodes; the road shape
// is the adversarial one for the tour/RMQ kernels — large diameter, many
// bridges, blocks of every size):
//
//   build    per-epoch artifact costs, fresh each run: the full bridge
//            pipeline (CSR + forest + Euler tour + bridge mask — what a
//            publish already paid before BCC existed) vs the BccIndex
//            build on the CACHED forest and its forest LCA's tree (the
//            marginal cost the new artifact adds to an epoch);
//   query    bulk throughput on the forced-device route, one kernel per
//            batch: SameBcc vs Same2Ecc (its edge-connectivity twin),
//            CcMembership, the Articulations mask re-serve, and
//            grouped-source BfsLevels on the auto route;
//   check    with --check 1 (default), exits nonzero if SameBcc bulk
//            throughput drops under 0.5x Same2Ecc — the two answer the
//            same shape of question from the same artifact cache, so
//            losing 2x means the BCC tables (not the question) got slow.
//
// Rows land in BENCH_bcc.json (committed at repo root):
//   op = bcc/build/<stage>   (n = nodes, ns_per_elem = build ns per node)
//   op = bcc/query/<family>  (n = batch size, ns_per_elem = ns per query)
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "engine/engine.hpp"
#include "gen/graphs.hpp"
#include "graph/graph.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace emc;

  util::Flags flags(argc, argv);
  const auto side = static_cast<NodeId>(
      flags.get_int("side", 1024, "road grid side (side^2 nodes)"));
  const int runs = static_cast<int>(flags.get_int("runs", 2, "timed runs"));
  const auto queries = static_cast<std::size_t>(
      flags.get_int("queries", 1 << 20, "bulk batch size"));
  const bool check =
      flags.get_int("check", 1,
                    "nonzero exit if SameBcc bulk throughput drops under "
                    "0.5x Same2Ecc") != 0;
  flags.finish();

  engine::Engine eng({.calibrate = true});
  const graph::EdgeList g = gen::road_graph(side, side, 0.72, 0.04, 917);
  const auto n = static_cast<std::size_t>(g.num_nodes);
  std::printf("# bcc artifacts + query families: road %zu nodes, %zu edges "
              "(device=%u workers)\n\n",
              n, g.edges.size(), eng.device().workers());
  engine::Session session = eng.session(g);

  util::Table table({"section", "op", "batch", "ns/elem", "M elem/s"});
  std::vector<bench::BenchRow> rows;
  const auto record = [&](const char* section, const std::string& op,
                          std::size_t batch, double seconds) {
    const double ns = seconds * 1e9 / static_cast<double>(batch);
    table.add_row({section, op, bench::human(batch), util::Table::num(ns, 1),
                   util::Table::num(1e3 / ns, 2)});
    rows.push_back({"bcc/" + std::string(section) + "/" + op, batch, "road",
                    ns});
  };

  // --- build: the bridge pipeline a publish already pays, then the
  // marginal BccIndex build on the cached forest.
  const double bridges_s = bench::time_avg(runs, [&] {
    session.drop_artifacts();
    session.drop_results();
    session.run(engine::Bridges{});
  });
  record("build", "bridges_pipeline", n, bridges_s);
  // drop_results also drops the forest LCA, which a publish builds and
  // the index reads: rebuild it untimed, so the row stays the marginal
  // index build.
  double bcc_s = 0;
  for (int r = 0; r < runs; ++r) {
    session.drop_results();  // drops the BCC index, keeps the forest
    session.run(engine::LcaBatch{});
    util::Timer timer;
    session.run(engine::Articulations{});
    bcc_s += timer.seconds() / runs;
  }
  record("build", "index", n, bcc_s);

  // --- query: one bulk kernel per batch on the forced-device route.
  engine::Policy device_route = eng.default_policy();
  device_route.min_device_batch = 1;
  util::Rng rng(917);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::vector<NodeId> nodes;
  pairs.reserve(queries);
  nodes.reserve(queries);
  for (std::size_t i = 0; i < queries; ++i) {
    pairs.push_back({static_cast<NodeId>(rng.below(g.num_nodes)),
                     static_cast<NodeId>(rng.below(g.num_nodes))});
    nodes.push_back(static_cast<NodeId>(rng.below(g.num_nodes)));
  }
  session.run(engine::Same2Ecc{{pairs[0]}});  // artifacts warm, off the clock

  const double same2ecc_s = bench::time_avg(runs, [&] {
    session.run(engine::Same2Ecc{pairs}, device_route);
  });
  record("query", "same2ecc", queries, same2ecc_s);
  const double samebcc_s = bench::time_avg(runs, [&] {
    session.run(engine::SameBcc{pairs}, device_route);
  });
  record("query", "samebcc", queries, samebcc_s);
  const double ccmember_s = bench::time_avg(runs, [&] {
    session.run(engine::CcMembership{nodes}, device_route);
  });
  record("query", "ccmembership", queries, ccmember_s);
  const double arts_s = bench::time_avg(runs, [&] {
    session.run(engine::Articulations{});
  });
  record("query", "articulations", n, arts_s);

  // BfsLevels groups the batch by source — K pairs on S sources cost S
  // traversals. Auto route: a 2000-level road BFS is exactly the shape
  // the cost model keeps off the simulated-launch device path.
  std::vector<std::pair<NodeId, NodeId>> bfs_pairs;
  for (std::size_t i = 0; i < 4096; ++i) {
    bfs_pairs.push_back({static_cast<NodeId>(i % 4),
                         static_cast<NodeId>(rng.below(g.num_nodes))});
  }
  const double bfs_s = bench::time_avg(runs, [&] {
    session.run(engine::BfsLevels{bfs_pairs});
  });
  record("query", "bfslevels", bfs_pairs.size(), bfs_s);

  table.print();
  const double ratio = same2ecc_s / samebcc_s;  // >1 means SameBcc faster
  std::printf("\nSameBcc bulk throughput = %.2fx Same2Ecc (floor 0.5x)\n",
              ratio);
  if (!bench::write_bench_json("BENCH_bcc.json", rows)) {
    std::fprintf(stderr, "failed to write BENCH_bcc.json\n");
    return 1;
  }
  return check && ratio < 0.5 ? 2 : 0;
}
