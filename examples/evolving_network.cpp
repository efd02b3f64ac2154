// An evolving road network served by an engine Session over a DynamicGraph.
//
// Scenario: a regional road network monitored for single points of failure.
// Edges fail (washouts, closures) and get built in batches; the session's
// epoch-keyed artifact cache notices each effective batch, brings the 2-ecc
// index up to date (by replaying an insert-only delta onto the previous
// epoch's record when it is small, reconnected regions included), and
// answers dispatcher query batches: "are these two depots still on a
// redundant route?" and "how many critical road segments does a trip
// between them cross?". No-op batches (re-reported closures) never advance
// the epoch, so everything stays cached.
//
//   ./evolving_network [--side=64] [--rounds=8] [--batch=64]
#include <cstdio>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "engine/engine.hpp"
#include "gen/graphs.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace emc;
  util::Flags flags(argc, argv);
  const auto side =
      static_cast<NodeId>(flags.get_int("side", 64, "grid side length"));
  const auto rounds =
      static_cast<int>(flags.get_int("rounds", 8, "update rounds"));
  const auto batch_size = static_cast<std::size_t>(
      flags.get_int("batch", 64, "edges per update batch"));
  flags.finish();

  engine::Engine eng;
  const device::Context& ctx = eng.device();
  const NodeId n = side * side;
  dynamic::DynamicGraph roads(ctx, gen::road_graph(side, side, 0.92, 0.02, 11));
  engine::Session session = eng.session(roads);
  const engine::TwoEccView base = session.run(engine::TwoEcc{});
  std::printf("road network: %d junctions, %zu segments, %zu critical "
              "(bridges), %zu redundant zones\n\n",
              n, roads.num_edges(), base.num_bridges, base.num_blocks);

  util::Rng rng(3);
  const auto random_junction = [&] {
    return static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
  };
  const NodeId depot_a = random_junction();
  const NodeId depot_b = random_junction();

  for (int round = 0; round < rounds; ++round) {
    // Mostly failures, some construction; duplicates model redundant
    // reports of the same closure and cost nothing (epoch unchanged).
    std::vector<graph::Edge> failures, constructions;
    const graph::EdgeSpan current = roads.snapshot();
    for (std::size_t i = 0; i < batch_size && !current.edges.empty(); ++i) {
      failures.push_back(current.edges[rng.below(current.edges.size())]);
    }
    for (std::size_t i = 0; i < batch_size / 4; ++i) {
      constructions.push_back({random_junction(), random_junction()});
    }
    const std::size_t failed = roads.erase_edges(ctx, failures);
    const std::size_t built = roads.insert_edges(ctx, constructions);

    // Dispatcher query batch between random depot pairs — the request
    // itself refreshes the session's index for the new epoch.
    engine::BridgesOnPath trips{{{depot_a, depot_b}}};
    for (int t = 1; t < 8; ++t) {
      trips.pairs.push_back({random_junction(), random_junction()});
    }
    const auto critical = session.run(trips);
    std::printf("round %d: -%zu/+%zu segments (epoch %llu)\n", round, failed,
                built, static_cast<unsigned long long>(roads.epoch()));
    if (critical[0] == kNoNode) {
      std::printf("  depot %d -> %d: DISCONNECTED\n", depot_a, depot_b);
    } else {
      const auto redundant =
          session.run(engine::Same2Ecc{{{depot_a, depot_b}}});
      std::printf("  depot %d -> %d: %d critical segment(s)%s\n", depot_a,
                  depot_b, critical[0],
                  redundant[0] ? " (redundant zone)" : "");
    }
  }

  // A no-op batch: re-reporting a closure of a segment that is already gone
  // leaves the epoch alone, so the next request is served fully cached.
  graph::Edge gone = {0, 1};
  while (roads.has_edge(gone.u, gone.v)) gone = {random_junction(), gone.u};
  const std::size_t noop = roads.erase_edges(ctx, {gone, gone});
  const std::uint64_t launches = eng.device_launches();
  session.run(engine::Same2Ecc{{{depot_a, depot_b}}});
  std::printf("\nno-op batch: %zu changes, %llu kernel launches to re-answer "
              "(epochs: %llu replayed, %llu rebuilt)\n",
              noop,
              static_cast<unsigned long long>(eng.device_launches() - launches),
              static_cast<unsigned long long>(session.publish_replays()),
              static_cast<unsigned long long>(session.publish_rebuilds()));
  return 0;
}
