// Concurrent serving of an evolving road network: snapshot-isolated Views
// behind a coalescing Dispatcher, with a live writer.
//
// Scenario: the evolving_network example, but under traffic. A writer
// thread keeps applying road construction batches and publishing fresh
// epoch-pinned Views; client code floods the Dispatcher with single-pair
// "is this trip still on a redundant route?" requests. The Dispatcher
// coalesces the singles into bulk answer rounds against the current View
// (old Views keep serving their epoch until released — readers never wait
// for the writer), and every reply reports the epoch that answered it.
//
//   ./serving [--side=128] [--updates=12] [--requests=20000]
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "engine/engine.hpp"
#include "gen/graphs.hpp"
#include "ingest/ingest.hpp"
#include "serve/serve.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace emc;
  util::Flags flags(argc, argv);
  const auto side =
      static_cast<NodeId>(flags.get_int("side", 128, "grid side length"));
  const auto updates =
      static_cast<int>(flags.get_int("updates", 12, "writer update batches"));
  const auto requests = static_cast<std::size_t>(
      flags.get_int("requests", 60000, "single-pair requests to serve"));
  flags.finish();

  // Startup calibration fits the cost model (and with it the host-vs-device
  // batch routing) to this machine instead of the committed constants.
  engine::Engine eng({.calibrate = true});
  const NodeId n = side * side;
  dynamic::DynamicGraph roads(eng.device(),
                              gen::road_graph(side, side, 0.9, 0.02, 21));
  engine::Session session = eng.session(roads);

  // The write path is an Ingestor instead of a hand-rolled writer thread:
  // producers push tagged edge updates into its bounded ring, the adaptive
  // batcher coalesces them into kind-homogeneous device batches, and the
  // ingest writer thread applies + publishes. Declared before the
  // Dispatcher (it must be stopped before the Dispatcher dies and
  // destroyed after it).
  ingest::IngestorOptions wopt;
  wopt.max_batch = 64;
  wopt.linger = std::chrono::milliseconds(1);
  wopt.start_paused = true;  // the session still seeds the Dispatcher below
  ingest::Ingestor ingestor(eng, roads, session, wopt);

  serve::DispatcherOptions options;
  options.workers = 2;
  options.coalesce_window = std::chrono::microseconds(200);
  // Overload-safe serving: a bounded lane (smaller than our burst, so the
  // flood actually sheds), oldest-first shedding weighted by client, and a
  // per-request TTL. Turned-away requests resolve with a non-Ok Status
  // instead of stretching the admitted tail — handle it below.
  options.queue_bound = 128;
  options.admission = serve::Admission::kShedOldest;
  options.default_ttl = std::chrono::milliseconds(50);
  serve::Dispatcher dispatcher(session.view(), options);
  // Publishes now flow through the dispatcher's fault-tolerant path (a
  // failed publish keeps the previous View serving in bounded staleness,
  // and the ingestor retries it at its next trigger), and reply staleness
  // measures against the newest APPLIED epoch, not just the newest
  // published one.
  dispatcher.attach_ingestor(ingestor);
  ingestor.resume();
  std::printf("serving %d junctions, %zu segments (epoch %llu)\n",
              n, roads.num_edges(),
              static_cast<unsigned long long>(session.epoch()));

  // Writer: construction crews add road segments in batches — now just
  // producers pushing into the ingest ring; batching, application, and
  // epoch publication happen behind it.
  std::thread writer([&] {
    util::Rng rng(5);
    for (int u = 0; u < updates; ++u) {
      std::vector<graph::Edge> batch;
      for (int i = 0; i < 16; ++i) {
        batch.push_back({static_cast<NodeId>(rng.below(n)),
                         static_cast<NodeId>(rng.below(n))});
      }
      ingestor.insert(batch);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Client: single-pair redundancy checks, coalesced behind our back.
  util::Rng rng(9);
  std::map<std::uint64_t, std::size_t> served_by_epoch;
  std::size_t redundant = 0, turned_away = 0;
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
      if (reply.status != serve::Status::kOk) {
        ++turned_away;  // kOverloaded / kTimeout: failed fast, retry later
        continue;
      }
      ++served_by_epoch[reply.epoch];
      redundant += reply.value[0];
    }
  }
  const double seconds = timer.seconds();
  writer.join();
  ingestor.flush();  // everything the crews pushed is applied AND published
  const serve::DispatcherStats stats = dispatcher.stats();
  const ingest::IngestorStats wstats = ingestor.stats();
  ingestor.stop();  // before the Dispatcher: it owns the publish hook
  dispatcher.stop();

  std::printf("%zu requests in %.2fs (%.0f req/s), %zu redundant trips, "
              "%zu turned away (shed %zu, expired %zu)\n",
              requests, seconds, static_cast<double>(requests) / seconds,
              redundant, turned_away, stats.shed, stats.expired);
  std::printf("%zu answer rounds (largest %zu), %zu views published, "
              "%zu epochs still pinned\n",
              stats.rounds, stats.max_round, stats.views_published,
              session.pinned_epochs());
  std::printf("ingest: %zu updates -> %zu batches -> %zu publishes "
              "(ewma enqueue->publish %.0fus)\n",
              wstats.applied, wstats.batches, wstats.publishes,
              wstats.latency_ewma_us);
  for (const auto& [epoch, count] : served_by_epoch) {
    std::printf("  epoch %llu answered %zu requests\n",
                static_cast<unsigned long long>(epoch), count);
  }
  return 0;
}
