// K-shard serving of one logical graph: a ShardedGraph routing producers
// to per-shard ingest pipelines, with cross-shard queries answered by
// connectivity stitching.
//
// Scenario: the serving example's road network has outgrown one writer
// thread. A ShardedGraph hash-partitions the junctions across K shards
// (shard_of(v) = v % K), each with its own engine, dynamic graph, ingest
// ring and serving view — K writer threads apply in parallel, and a segment
// whose endpoints live on different shards goes to the boundary set
// instead of any one shard. Cross-shard questions ("are these two
// junctions on a redundant route?" when they sit on different shards) are
// answered by stitching the K per-shard block graphs with the boundary
// edges into a small summary index, pinned at one epoch vector so no
// answer mixes shard states. The example only inserts, from fixed seeds,
// so it ends by rebuilding the same edge set unsharded and exits 1 when
// the final sharded view disagrees with that engine::Session.
//
//   ./sharded_serving [--side=128] [--shards=4] [--requests=20000]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "gen/graphs.hpp"
#include "shard/shard.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace emc;
  util::Flags flags(argc, argv);
  const auto side =
      static_cast<NodeId>(flags.get_int("side", 128, "grid side length"));
  const auto shards = static_cast<std::size_t>(
      flags.get_int("shards", 4, "shard count K"));
  const auto requests = static_cast<std::size_t>(
      flags.get_int("requests", 20000, "cross-shard requests to serve"));
  flags.finish();

  // Seed every shard's epoch 0 with its slice of the road grid; segments
  // crossing shards land in the boundary set before any traffic flows.
  const NodeId n = side * side;
  shard::ShardedOptions options;
  options.shards = shards;
  options.ingest.max_batch = 64;
  options.ingest.linger = std::chrono::milliseconds(1);
  const graph::EdgeList seed = gen::road_graph(side, side, 0.9, 0.02, 21);
  shard::ShardedGraph roads(n, seed, options);
  roads.flush();
  {
    const shard::ShardedStats s = roads.stats();
    std::printf("%d junctions over %zu shards, %zu boundary segments\n", n,
                roads.shards(), s.boundary_edges);
  }

  // Writer: construction crews submit against GLOBAL junction ids; the
  // router classifies each segment and fans it out — no caller ever sees
  // local ids or picks a shard. `inserted` is read only after the join.
  std::vector<graph::Edge> inserted;
  std::thread writer([&] {
    util::Rng rng(5);
    for (int u = 0; u < 12; ++u) {
      std::vector<graph::Edge> batch;
      for (int i = 0; i < 16; ++i) {
        batch.push_back({static_cast<NodeId>(rng.below(n)),
                         static_cast<NodeId>(rng.below(n))});
      }
      roads.insert(batch);
      inserted.insert(inserted.end(), batch.begin(), batch.end());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Client: redundancy checks through the façade dispatcher. Each reply is
  // answered against ONE pinned ShardedView — one consistent epoch vector
  // across all K shards — and stamps its stitch generation as the epoch.
  shard::ShardedDispatcher dispatcher(roads);
  util::Rng rng(9);
  std::size_t redundant = 0;
  std::uint64_t newest_epoch = 0;
  util::Timer timer;
  std::vector<std::future<serve::Reply<std::vector<std::uint8_t>>>> inflight;
  constexpr std::size_t kBurst = 256;
  for (std::size_t sent = 0; sent < requests;) {
    inflight.clear();
    for (std::size_t i = 0; i < kBurst && sent < requests; ++i, ++sent) {
      engine::Same2Ecc request;
      request.pairs.push_back({static_cast<NodeId>(rng.below(n)),
                               static_cast<NodeId>(rng.below(n))});
      inflight.push_back(dispatcher.submit(std::move(request)));
    }
    for (auto& future : inflight) {
      const auto reply = future.get();
      if (reply.status != serve::Status::kOk) continue;
      redundant += reply.value[0];
      newest_epoch = std::max(newest_epoch, reply.epoch);
    }
  }
  const double seconds = timer.seconds();
  writer.join();
  roads.flush();

  // The final stitched snapshot: global truth composed from K block
  // graphs + boundary edges (exact — see tests/test_shard.cpp's fuzz).
  const shard::ShardedView view = roads.view();
  std::printf("%zu requests in %.2fs (%.0f req/s), %zu redundant trips, "
              "newest stitch generation %llu\n",
              requests, seconds, static_cast<double>(requests) / seconds,
              redundant, static_cast<unsigned long long>(newest_epoch));
  std::printf("final: %zu segments, %zu components, %zu blocks, "
              "%zu bridges\n",
              view.num_edges(), view.num_components(), view.num_blocks(),
              view.num_bridges());

  const shard::ShardedStats stats = dispatcher.stats();
  std::printf("ledger: %zu submitted = %zu answered (+%zu shed/rejected/"
              "expired/cancelled/faulted), stitch %zu builds / %zu hits\n",
              stats.dispatch.submitted, stats.dispatch.answered,
              stats.dispatch.submitted - stats.dispatch.answered,
              stats.stitch_builds, stats.stitch_hits);
  for (std::size_t s = 0; s < stats.shards; ++s) {
    std::printf("  shard %zu: epoch %llu, %zu applied, staleness %llu\n", s,
                static_cast<unsigned long long>(stats.shard_epochs[s]),
                stats.per_shard_ingest[s].applied,
                static_cast<unsigned long long>(stats.shard_staleness[s]));
  }
  dispatcher.stop();

  // The same edge set unsharded: the seed plus every batch, simplified the
  // way the shards and the boundary set drop self-loops and duplicates.
  graph::EdgeList all = seed;
  all.edges.insert(all.edges.end(), inserted.begin(), inserted.end());
  const graph::EdgeList expected = graph::simplified(all);
  engine::Engine check_engine;
  engine::Session truth = check_engine.session(expected);
  const engine::TwoEccView blocks = truth.run(engine::TwoEcc{});
  bool agree = view.num_edges() == expected.num_edges() &&
               view.num_components() == truth.num_components() &&
               view.num_blocks() == blocks.num_blocks &&
               view.num_bridges() == blocks.num_bridges;
  engine::Same2Ecc sample;
  util::Rng pick(13);
  for (int q = 0; q < 4096; ++q) {
    sample.pairs.push_back({static_cast<NodeId>(pick.below(n)),
                            static_cast<NodeId>(pick.below(n))});
  }
  agree = agree && view.run(sample) == truth.run(sample);
  roads.stop();
  if (!agree) {
    std::printf("!! the sharded view disagrees with an unsharded session: "
                "%zu segments, %zu components, %zu blocks, %zu bridges "
                "expected\n",
                expected.num_edges(), truth.num_components(),
                blocks.num_blocks, blocks.num_bridges);
    return 1;
  }
  std::printf("agreement with an unsharded session on %zu sampled pairs\n",
              sample.pairs.size());
  return 0;
}
