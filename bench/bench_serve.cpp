// Serving throughput/latency: the Dispatcher's request coalescing against
// per-request submission, across worker counts, with and without a
// concurrent writer — the Figure 6 story run end-to-end through the
// serving stack instead of as a raw kernel microbenchmark.
//
// Per scenario (1M-node road grid / 1M-node kron), a closed-loop client
// submits bursts of single-pair Same2Ecc requests and waits them out,
// under every cell of:
//
//   route    auto (host loops on this machine) and forced-device (every
//            answer round is a bulk kernel paying the simulated launch
//            latency — the regime where coalescing is structural: K
//            launches become 1);
//   threads  dispatcher workers 1/2/4;
//   mode     coalesced (window 200us, rounds up to the burst size) vs
//            per-request (max_coalesce=1);
//   writer   off, or a thread continuously applying small insert batches,
//            refreshing the session and publishing fresh Views (readers
//            keep answering on their epoch — MVCC, no pauses).
//
// Rows land in BENCH_serve.json (committed at repo root):
//   op = serve/<scenario>/<route>/w<0|1>/t<threads>/<coal|percall>
//        (n = completed requests, ns_per_elem = ns per request)
//   op = .../p99 (ns_per_elem = p99 latency in ns)
//
// A second section exercises the OVERLOAD path (ISSUE 6): bounded lanes
// with ShedOldest admission and request TTLs, driven by heavy (16k-pair)
// pre-generated requests so service cost dominates client overhead, under
//
//   qos/steady       closed-loop baseline (16 outstanding) — the healthy
//                    p99 the overload cells are compared against;
//   qos/flash        open-loop clients paced at 4x the steady cell's
//                    measured service rate (the 4x flash crowd) — sheds
//                    excess, keeps admitted p99 near steady;
//   qos/zipf         the same flood with Zipfian hot-vertex skew;
//   qos/adversarial  the flood plus a writer continuously inserting and
//                    publishing (degrade_to_host on) — measures stale
//                    serving and degradation, not just shedding.
//
// Their rows add .../shed, .../expired and .../stale counts (n = count).
//
// A third section covers the vertex-connectivity request families (ISSUE
// 10) end to end through their dispatcher lanes — single-pair SameBcc,
// single-node CcMembership, hot-source BfsLevels (a burst shares one
// traversal), and the broadcast Articulations mask — one closed-loop cell
// each on the auto route, as op = serve/<scenario>/family/<name> rows.
//
// With --check 1 (default), exits nonzero if any forced-device coalesced
// cell fails to beat its per-request twin — that pair is the paper's
// batched-query prediction, and losing it means coalescing is broken —
// or if the flash crowd's ADMITTED p99 exceeds 2x the steady p99 plus
// 3ms of slack (the load-shedding acceptance bound; the slack absorbs
// scheduler-timeslice noise on oversubscribed boxes and is invisible
// next to a real queueing blowup, which is tens of ms).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "engine/engine.hpp"
#include "gen/graphs.hpp"
#include "graph/graph.hpp"
#include "ingest/ingest.hpp"
#include "serve/serve.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace emc;
using Clock = std::chrono::steady_clock;

struct CellResult {
  std::size_t completed = 0;
  double rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::size_t rounds = 0;
  std::size_t published = 0;
};

double percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[index];
}

CellResult run_cell(engine::Session& session, dynamic::DynamicGraph& dg,
                    const device::Context& update_ctx,
                    const engine::Policy& policy, unsigned threads,
                    bool coalesce, bool with_writer, double duration,
                    std::size_t burst, std::uint64_t seed) {
  serve::DispatcherOptions options;
  options.workers = threads;
  options.max_coalesce = coalesce ? burst : 1;
  options.coalesce_window = std::chrono::microseconds(coalesce ? 200 : 0);
  serve::Dispatcher dispatcher(session.view(policy), options);

  std::atomic<bool> stop_writer{false};
  std::thread writer;
  if (with_writer) {
    writer = std::thread([&] {
      util::Rng rng(seed ^ 0x57a7e5u);
      while (!stop_writer.load(std::memory_order_acquire)) {
        std::vector<graph::Edge> batch;
        for (int i = 0; i < 8; ++i) {
          batch.push_back({static_cast<NodeId>(rng.below(dg.num_nodes())),
                           static_cast<NodeId>(rng.below(dg.num_nodes()))});
        }
        dg.insert_edges(update_ctx, batch);
        session.refresh(policy);
        dispatcher.publish(session.view(policy));
      }
    });
  }

  const NodeId n = dg.num_nodes();
  util::Rng rng(seed);
  std::vector<double> latencies_us;
  CellResult result;
  util::Timer timer;
  std::vector<std::pair<std::future<serve::Reply<std::vector<std::uint8_t>>>,
                        Clock::time_point>>
      inflight;
  inflight.reserve(burst);
  while (timer.seconds() < duration) {
    inflight.clear();
    for (std::size_t i = 0; i < burst; ++i) {
      engine::Same2Ecc request;
      request.pairs.push_back({static_cast<NodeId>(rng.below(n)),
                               static_cast<NodeId>(rng.below(n))});
      inflight.emplace_back(dispatcher.submit(std::move(request)),
                            Clock::now());
    }
    for (auto& [future, submitted] : inflight) {
      future.get();
      latencies_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - submitted)
              .count());
    }
    result.completed += burst;
  }
  const double elapsed = timer.seconds();
  if (with_writer) {
    stop_writer.store(true, std::memory_order_release);
    writer.join();
  }
  const serve::DispatcherStats stats = dispatcher.stats();
  dispatcher.stop();

  std::sort(latencies_us.begin(), latencies_us.end());
  result.rps = static_cast<double>(result.completed) / elapsed;
  result.p50_us = percentile(latencies_us, 0.50);
  result.p99_us = percentile(latencies_us, 0.99);
  result.rounds = stats.rounds;
  result.published = stats.views_published;
  return result;
}

struct QosResult {
  std::size_t ok = 0;
  std::size_t overloaded = 0;
  std::size_t timed_out = 0;
  double rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;  // admitted (kOk) requests only
  serve::DispatcherStats stats;
};

/// The overload harness. `flood_threads` clients submit single-pair
/// Same2Ecc requests for `duration` seconds — closed-loop (16 outstanding,
/// the healthy baseline) or open-loop at a CONSTANT arrival rate of
/// `offered_rps` requests/s split across the threads (the flash crowd;
/// wrk2-style paced arrivals, so the measurement reflects the server's
/// queueing rather than submitter threads fighting the workers for cores)
/// — against a dispatcher with a bounded ShedOldest lane and a 5ms TTL.
/// Latency is recorded when a reply resolves (FIFO opportunistic reaping),
/// and only for admitted (kOk) requests: the whole point of shedding is
/// that the OTHER requests fail fast instead of stretching this tail.
QosResult run_qos(engine::Session& session, dynamic::DynamicGraph& dg,
                  const device::Context& update_ctx,
                  const engine::Policy& policy, unsigned flood_threads,
                  bool closed_loop, bool zipf, bool adversarial,
                  double duration, double offered_rps, std::uint64_t seed) {
  serve::DispatcherOptions options;
  // A second worker only helps when it gets its own core; on a 1-CPU box
  // two always-runnable workers just preempt each other mid-round and
  // double the admitted tail.
  options.workers = std::max(1u, std::min(2u, std::thread::hardware_concurrency()));
  options.queue_bound = 16;
  options.admission = serve::Admission::kShedOldest;
  options.default_ttl = std::chrono::milliseconds(5);
  options.degrade_to_host = adversarial;
  // Cap rounds at 2 merged requests so a full lane drains as several short
  // rounds rather than one giant one — the admitted tail then measures
  // queue depth, not the service time of a maximal merge.
  options.max_coalesce = 2;
  // Host route: answer rounds stay µs-scale, so the steady/flash p99
  // comparison measures QUEUEING under overload, not which backend a
  // bigger merged round happens to pick.
  engine::Policy host_route = policy;
  host_route.min_device_batch = std::size_t{1} << 30;
  serve::Dispatcher dispatcher(session.view(host_route), options);

  std::atomic<bool> stop_writer{false};
  std::thread writer;
  if (adversarial) {
    // The adversarial cell also injects publish faults (persistent, so
    // every publish fails), putting the dispatcher into bounded-staleness
    // degradation under real load — the stale/pubfail columns measure
    // that path, not a lucky fault-free run.
    util::failpoint::configure(util::failpoint::kPublish, "1+");
    writer = std::thread([&] {
      util::Rng rng(seed ^ 0xadee5u);
      while (!stop_writer.load(std::memory_order_acquire)) {
        std::vector<graph::Edge> batch;
        for (int i = 0; i < 32; ++i) {
          batch.push_back({static_cast<NodeId>(rng.below(dg.num_nodes())),
                           static_cast<NodeId>(rng.below(dg.num_nodes()))});
        }
        dg.insert_edges(update_ctx, batch);
        // Full rebuild + install. A failed publish is retried no sooner
        // than the Ingestor would retry it, so the cell measures degraded
        // serving rather than a writer spinning on a failing hook.
        if (!dispatcher.publish(session)) {
          std::this_thread::sleep_for(ingest::Ingestor::kPublishRetryFloor);
        }
      }
    });
  }

  const NodeId n = dg.num_nodes();
  std::mutex merge_mutex;
  QosResult result;
  std::vector<double> latencies_us;
  std::vector<std::thread> floods;
  for (unsigned t = 0; t < flood_threads; ++t) {
    floods.emplace_back([&, t] {
      util::Rng rng(seed + 101 * t);
      const auto sample = [&]() -> NodeId {
        if (!zipf) return static_cast<NodeId>(rng.below(n));
        // Log-uniform rank approximates Zipf(s=1): low-numbered vertices
        // are the hot set every flood thread hammers.
        const double rank = std::pow(static_cast<double>(n), rng.uniform());
        const auto idx = static_cast<std::uint64_t>(rank) - 1;
        return static_cast<NodeId>(std::min<std::uint64_t>(idx, n - 1));
      };
      // Heavy requests, pre-generated: 16k pairs each makes SERVING a
      // request cost ~20x what SUBMITTING one does (submit is a pool
      // copy + enqueue), so a 4x-oversubscribed flood is physically
      // realizable even when clients and workers share one core — the
      // submitters' CPU share stays small and the admitted tail measures
      // the server's queueing, not core contention among clients.
      constexpr int kQosPairs = 16384;
      constexpr std::size_t kPoolSize = 32;
      std::vector<engine::Same2Ecc> pool(kPoolSize);
      for (auto& request : pool) {
        request.pairs.reserve(kQosPairs);
        for (int p = 0; p < kQosPairs; ++p) {
          request.pairs.push_back({sample(), sample()});
        }
      }
      std::size_t pool_next = 0;
      const auto make_request = [&] {
        engine::Same2Ecc request = pool[pool_next];
        pool_next = (pool_next + 1) % kPoolSize;
        return request;
      };
      std::size_t ok = 0, overloaded = 0, timed_out = 0;
      std::vector<double> lat_us;
      std::deque<std::pair<std::future<serve::Reply<std::vector<std::uint8_t>>>,
                           Clock::time_point>>
          inflight;
      const auto reap_front = [&] {
        auto& [future, submitted] = inflight.front();
        const auto reply = future.get();
        switch (reply.status) {
          case serve::Status::kOk:
            ++ok;
            lat_us.push_back(std::chrono::duration<double, std::micro>(
                                 Clock::now() - submitted)
                                 .count());
            break;
          case serve::Status::kOverloaded:
            ++overloaded;
            break;
          default:
            ++timed_out;
        }
        inflight.pop_front();
      };
      // Open loop: small bursts on a fixed-rate schedule (absolute ticks:
      // a late burst does not stretch the next interval, so the offered
      // rate holds even when the submitter itself gets preempted).
      constexpr std::size_t kBurst = 4;
      const double per_thread_rps =
          offered_rps / static_cast<double>(flood_threads);
      const auto tick = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(static_cast<double>(kBurst) /
                                        std::max(per_thread_rps, 1.0)));
      auto next_burst = Clock::now();
      util::Timer timer;
      while (timer.seconds() < duration) {
        const std::size_t outstanding = closed_loop ? 16 : kBurst;
        for (std::size_t i = 0; i < outstanding; ++i) {
          inflight.emplace_back(dispatcher.submit(make_request()),
                                Clock::now());
        }
        if (closed_loop) {
          while (!inflight.empty()) reap_front();
        } else {
          while (!inflight.empty() &&
                 inflight.front().first.wait_for(std::chrono::seconds(0)) ==
                     std::future_status::ready) {
            reap_front();
          }
          next_burst += tick;
          std::this_thread::sleep_until(next_burst);
        }
      }
      while (!inflight.empty()) reap_front();
      const std::lock_guard<std::mutex> lk(merge_mutex);
      result.ok += ok;
      result.overloaded += overloaded;
      result.timed_out += timed_out;
      latencies_us.insert(latencies_us.end(), lat_us.begin(), lat_us.end());
    });
  }
  for (auto& flood : floods) flood.join();
  const double elapsed = duration;  // each flood thread ran this long
  if (adversarial) {
    stop_writer.store(true, std::memory_order_release);
    writer.join();
    util::failpoint::disable_all();
  }
  result.stats = dispatcher.stats();
  dispatcher.stop();

  std::sort(latencies_us.begin(), latencies_us.end());
  result.rps = static_cast<double>(result.ok) / elapsed;
  result.p50_us = percentile(latencies_us, 0.50);
  result.p99_us = percentile(latencies_us, 0.99);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto side = static_cast<NodeId>(
      flags.get_int("side", 1024, "road grid side (side^2 nodes)"));
  const auto kron_scale = static_cast<int>(
      flags.get_int("kron-scale", 20, "kron scale (2^scale nodes)"));
  const auto kron_factor =
      flags.get_double("kron-factor", 8.0, "kron edge factor");
  const double duration =
      flags.get_double("duration", 0.8, "seconds measured per cell");
  const auto burst = static_cast<std::size_t>(
      flags.get_int("burst", 512, "closed-loop outstanding requests"));
  const double qos_duration = flags.get_double(
      "qos-duration", 0.5, "seconds measured per overload cell");
  const bool check = flags.get_int("check", 1,
                                   "nonzero exit if a forced-device "
                                   "coalesced cell loses or the flash "
                                   "crowd blows the 2x admitted-p99 bound") !=
                     0;
  flags.finish();

  // Startup-calibrated policy: the CostModel constants are fitted to THIS
  // machine before any cell runs (EngineOptions::calibrate).
  engine::Engine eng({.calibrate = true});
  std::printf("# serving throughput (device=%u workers, calibrated policy)\n\n",
              eng.device().workers());

  engine::Policy auto_policy = eng.default_policy();
  engine::Policy device_route = auto_policy;
  device_route.min_device_batch = 1;

  util::Table table({"scenario", "route", "writer", "threads", "mode",
                     "req/s", "p50us", "p99us", "rounds", "published"});
  util::Table qos_table({"scenario", "mode", "ok/s", "p50us", "p99us", "shed",
                         "expired", "stale", "pubfail", "maxdepth"});
  util::Table family_table({"scenario", "family", "req/s"});
  std::vector<bench::BenchRow> rows;
  bool coalescing_won = true;
  bool flash_p99_ok = true;

  struct Scenario {
    std::string name;
    graph::EdgeList edges;
  };
  std::vector<Scenario> scenarios;
  scenarios.push_back(
      {"road", gen::road_graph(side, side, 0.72, 0.04, 1012)});
  scenarios.push_back(
      {"kron", gen::kron_graph(kron_scale, kron_factor, 1013)});

  for (Scenario& scenario : scenarios) {
    dynamic::DynamicGraph dg(eng.device(), scenario.edges);
    scenario.edges = graph::EdgeList{};  // seeded into the graph; free it
    engine::Session session = eng.session(dg);
    session.refresh(auto_policy);  // pay the initial artifact build once

    struct Cell {
      const char* route;
      const engine::Policy* policy;
      bool writer;
      unsigned threads;
      bool coalesce;
    };
    std::vector<Cell> cells;
    for (const bool writer : {false, true}) {
      for (const unsigned threads : {1u, 2u, 4u}) {
        for (const bool coalesce : {false, true}) {
          cells.push_back({"auto", &auto_policy, writer, threads, coalesce});
        }
      }
    }
    for (const bool coalesce : {false, true}) {  // the Figure 6 pair
      cells.push_back({"device", &device_route, false, 2u, coalesce});
    }

    std::map<std::string, double> rps_by_cell;
    for (const Cell& cell : cells) {
      const CellResult result = run_cell(
          session, dg, eng.device(), *cell.policy, cell.threads,
          cell.coalesce, cell.writer, duration, burst,
          1012 + cell.threads * 7 + (cell.coalesce ? 3 : 0));
      const std::string key = std::string(cell.route) + "/w" +
                              (cell.writer ? "1" : "0") + "/t" +
                              std::to_string(cell.threads);
      const std::string mode = cell.coalesce ? "coal" : "percall";
      rps_by_cell[key + "/" + mode] = result.rps;
      table.add_row({scenario.name, cell.route, cell.writer ? "yes" : "no",
                     std::to_string(cell.threads), mode,
                     bench::human(static_cast<std::size_t>(result.rps)),
                     util::Table::num(result.p50_us, 1),
                     util::Table::num(result.p99_us, 1),
                     std::to_string(result.rounds),
                     std::to_string(result.published)});
      const std::string op =
          "serve/" + scenario.name + "/" + key + "/" + mode;
      rows.push_back({op, result.completed, scenario.name,
                      1e9 / std::max(result.rps, 1e-9)});
      rows.push_back({op + "/p99", result.completed, scenario.name,
                      result.p99_us * 1e3});
    }
    // The structural claim: on the device route, K launches became 1.
    const double percall = rps_by_cell["device/w0/t2/percall"];
    const double coal = rps_by_cell["device/w0/t2/coal"];
    if (coal <= percall) {
      std::printf("!! coalesced device serving (%.0f req/s) lost to "
                  "per-request submission (%.0f req/s) on %s\n",
                  coal, percall, scenario.name.c_str());
      coalescing_won = false;
    }

    // --- the overload section (bounded lanes, shedding, degradation) ---
    struct QosCell {
      const char* mode;
      unsigned flood_threads;
      bool closed_loop;
      bool zipf;
      bool adversarial;
    };
    const QosCell qos_cells[] = {
        {"steady", 1, true, false, false},
        {"flash", 2, false, false, false},
        {"zipf", 2, false, true, false},
        {"adversarial", 2, false, false, true},
    };
    double steady_p99_us = 0.0;
    double steady_rps = 0.0;
    for (const QosCell& cell : qos_cells) {
      // 4x oversubscription is about offered LOAD, not thread count: the
      // flood cells pace their arrivals at 4x the steady cell's measured
      // service rate, so the ratio holds whether the box has 1 core or 64.
      const double offered_rps = cell.closed_loop ? 0.0 : 4.0 * steady_rps;
      const QosResult qos = run_qos(
          session, dg, eng.device(), auto_policy, cell.flood_threads,
          cell.closed_loop, cell.zipf, cell.adversarial, qos_duration,
          offered_rps, 2024 + static_cast<std::uint64_t>(cell.flood_threads));
      if (std::string(cell.mode) == "steady") steady_rps = qos.rps;
      if (std::string(cell.mode) == "steady") steady_p99_us = qos.p99_us;
      qos_table.add_row(
          {scenario.name, cell.mode,
           bench::human(static_cast<std::size_t>(qos.rps)),
           util::Table::num(qos.p50_us, 1), util::Table::num(qos.p99_us, 1),
           std::to_string(qos.stats.shed + qos.stats.rejected),
           std::to_string(qos.stats.expired),
           std::to_string(qos.stats.stale_served),
           std::to_string(qos.stats.publish_failures),
           std::to_string(qos.stats.max_queue_depth)});
      const std::string op = "serve/" + scenario.name + "/qos/" + cell.mode;
      rows.push_back({op, qos.ok, scenario.name,
                      1e9 / std::max(qos.rps, 1e-9)});
      rows.push_back({op + "/p99", qos.ok, scenario.name, qos.p99_us * 1e3});
      rows.push_back({op + "/shed", qos.stats.shed + qos.stats.rejected,
                      scenario.name, 0.0});
      rows.push_back({op + "/expired", qos.stats.expired, scenario.name, 0.0});
      if (cell.adversarial) {
        rows.push_back(
            {op + "/stale", qos.stats.stale_served, scenario.name, 0.0});
      }
      // The load-shedding acceptance bound: flooding a bounded lane must
      // not stretch the ADMITTED tail past 2x the healthy baseline. The
      // 3ms slack absorbs scheduler-timeslice noise when clients and
      // workers share cores; a real queueing blowup is tens of ms and
      // sails past it regardless.
      if (std::string(cell.mode) == "flash" &&
          qos.p99_us > 2.0 * steady_p99_us + 3000.0) {
        std::printf("!! flash-crowd admitted p99 (%.0fus) exceeded 2x the "
                    "steady p99 (%.0fus) + 3ms slack on %s\n",
                    qos.p99_us, steady_p99_us, scenario.name.c_str());
        flash_p99_ok = false;
      }
    }

    // --- the vertex-connectivity families, through their own lanes ---
    {
      serve::DispatcherOptions options;
      options.workers = 2;
      serve::Dispatcher dispatcher(session.view(auto_policy), options);
      util::Rng frng(4242);
      const NodeId n = dg.num_nodes();
      session.run(engine::Articulations{});  // BCC index warm, off the clock
      const auto family_cell = [&](const char* family, std::size_t family_burst,
                                   auto make_request) {
        std::vector<decltype(dispatcher.submit(make_request()))> inflight;
        inflight.reserve(family_burst);
        std::size_t completed = 0;
        util::Timer timer;
        while (timer.seconds() < duration * 0.5) {
          inflight.clear();
          for (std::size_t i = 0; i < family_burst; ++i) {
            inflight.push_back(dispatcher.submit(make_request()));
          }
          for (auto& future : inflight) future.get();
          completed += family_burst;
        }
        const double rps = static_cast<double>(completed) / timer.seconds();
        family_table.add_row(
            {scenario.name, family,
             bench::human(static_cast<std::size_t>(rps))});
        rows.push_back({"serve/" + scenario.name + "/family/" + family,
                        completed, scenario.name,
                        1e9 / std::max(rps, 1e-9)});
      };
      family_cell("samebcc", 64, [&] {
        return engine::SameBcc{{{static_cast<NodeId>(frng.below(n)),
                                 static_cast<NodeId>(frng.below(n))}}};
      });
      family_cell("ccmember", 64, [&] {
        return engine::CcMembership{{static_cast<NodeId>(frng.below(n))}};
      });
      // One hot source: the coalescer merges a burst into one traversal.
      family_cell("bfslevels", 16, [&] {
        return engine::BfsLevels{{{0, static_cast<NodeId>(frng.below(n))}}};
      });
      family_cell("articulations", 8,
                  [&] { return engine::Articulations{}; });
      dispatcher.stop();
    }
  }

  table.print();
  std::printf("\n# overload (bounded lanes, ShedOldest, 5ms TTL)\n\n");
  qos_table.print();
  std::printf("\n# vertex-connectivity families (auto route, closed loop)\n\n");
  family_table.print();
  std::printf("\ncoalescing %s the per-request baseline on every "
              "forced-device cell\n",
              coalescing_won ? "beat" : "LOST to");
  std::printf("flash-crowd admitted p99 %s the 2x steady bound\n",
              flash_p99_ok ? "held" : "BLEW");
  if (!bench::write_bench_json("BENCH_serve.json", rows)) {
    std::fprintf(stderr, "failed to write BENCH_serve.json\n");
    return 1;
  }
  return check && !(coalescing_won && flash_p99_ok) ? 2 : 0;
}
