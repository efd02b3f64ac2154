// Sharded serving: K-shard write scaling, cross-shard query overhead, and
// a bursty arrival cell against the routing façade.
//
// Three sections, rows in BENCH_shard.json (committed at repo root):
//
//   WRITE (random endpoints, publishing off): one producer pushes the same
//   pre-generated pool of fresh random edges through a ShardedGraph at
//   K = 1, 2, 4 and drains. This measures the routed write path: at K = 1
//   every edge takes the full DynamicGraph apply pipeline; at K = 4 three
//   quarters of random edges are cross-shard and take the O(1) boundary-set
//   path while the rest split across four quarter-sized graphs. On this
//   single-core container the scaling therefore comes from WORK REDUCTION
//   (boundary shortcut + smaller per-shard arenas), not parallel apply —
//   on a multi-core host the K writer threads stack on top of it.
//     op = shard/write/k<K>        n = updates, ns_per_elem per update
//
//   QUERY (128x128 road grid, K = 4 vs unsharded): the same Same2Ecc and
//   BridgesOnPath pair batches answered by a ShardedView (host-side pair
//   mapping + summary-oracle bulk kernels over the stitched block graph)
//   and by an unsharded engine::Session over the identical edge set. The
//   grid is an adversarial partition for modulo sharding: every horizontal
//   edge is cross-shard, so the boundary set and the summary graph are
//   about half the graph — the overhead cell, not a best case. The one-off
//   stitch build is reported separately (it is cached per epoch vector).
//     op = shard/query/<same2ecc|bridges_on_path>/<sharded|unsharded>
//     op = shard/query/stitch_build      n = summary nodes, total ns
//
//   BURSTY (K = 4): an inhomogeneous-Poisson arrival stream (piecewise-
//   constant calm/burst/calm rates, burst set to 4x the MEASURED apply
//   rate, inversion method per segment) replayed against small ShedOldest
//   per-shard rings with paced publishing, while a reader floods the
//   ShardedDispatcher. Reports how the fleet degraded — shed counts and
//   staleness, never corruption.
//     op = shard/bursty/<accepted|applied|shed|publishes|max_staleness>
//
// With --check 1 (default), exits nonzero if
//   - K = 4 aggregate write throughput < 2x the K = 1 rate, or
//   - sharded query cost > 2x unsharded on either batch family, or
//   - sharded and unsharded query answers disagree anywhere, or
//   - the bursty ledger does not balance (accepted != applied + shed,
//     summed with the boundary ledger) or any reader future is stranded.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common.hpp"
#include "engine/engine.hpp"
#include "gen/graphs.hpp"
#include "graph/graph.hpp"
#include "ingest/ingest.hpp"
#include "serve/serve.hpp"
#include "shard/shard.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace emc;

/// `count` random edges absent from `present` (and from each other), global
/// ids — every one is effective on insert, so each K applies identical work.
std::vector<graph::Edge> fresh_edges(util::Rng& rng, NodeId n,
                                     std::size_t count,
                                     std::unordered_set<std::uint64_t> present) {
  std::vector<graph::Edge> out;
  out.reserve(count);
  while (out.size() < count) {
    graph::Edge e{static_cast<NodeId>(rng.below(n)),
                  static_cast<NodeId>(rng.below(n))};
    if (e.u == e.v) continue;
    if (!present.insert(graph::edge_key(e.u, e.v)).second) continue;
    out.push_back(e);
  }
  return out;
}

/// Write-path options: publishing off (drain() measures apply alone).
shard::ShardedOptions write_options(std::size_t shards) {
  shard::ShardedOptions opts;
  opts.shards = shards;
  opts.ingest.queue_bound = 1 << 15;
  opts.ingest.admission = ingest::Admission::kBlock;  // backpressure, no loss
  opts.ingest.max_batch = 2048;
  opts.ingest.linger = std::chrono::microseconds(0);
  opts.ingest.publish_every = std::numeric_limits<std::size_t>::max();
  opts.ingest.idle_publish = std::chrono::hours(1);
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto nodes = static_cast<NodeId>(
      flags.get_int("nodes", 60'000, "write cells: vertex count"));
  const auto updates = static_cast<std::size_t>(flags.get_int(
      "updates", 1 << 16, "write cells: fresh edges pushed per cell"));
  const auto side = static_cast<NodeId>(
      flags.get_int("side", 128, "query cell: road grid side"));
  const auto queries = static_cast<std::size_t>(
      flags.get_int("queries", 1 << 15, "query cell: pairs per batch"));
  const auto bursty_target = static_cast<std::size_t>(flags.get_int(
      "bursty-updates", 100'000, "bursty cell: expected total arrivals"));
  const bool check = flags.get_bool("check", true, "enforce acceptance");
  flags.finish();

  util::Table table({"op", "n", "seconds", "Mops", "note"});
  std::vector<bench::BenchRow> rows;
  bool ok = true;

  // -------------------------------------------------------------- write
  double write_rate_k1 = 0.0;
  double write_rate_k4 = 0.0;
  {
    util::Rng rng(1234);
    const std::vector<graph::Edge> pool =
        fresh_edges(rng, nodes, updates, {});
    std::printf("# write: %d nodes, %zu fresh random edges per cell\n",
                nodes, updates);

    for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
      shard::ShardedGraph sg(nodes, write_options(k));
      std::vector<ingest::Update> staged(pool.size());
      for (std::size_t i = 0; i < pool.size(); ++i) {
        staged[i] = {pool[i], ingest::UpdateKind::kInsert, 0, 0};
      }

      // Stage the submit-sized chunks before the clock starts — the cell
      // times the sharded write path, not the harness's slicing.
      constexpr std::size_t kPush = 4096;
      std::vector<std::vector<ingest::Update>> chunks;
      for (std::size_t at = 0; at < staged.size(); at += kPush) {
        chunks.emplace_back(
            staged.begin() + static_cast<std::ptrdiff_t>(at),
            staged.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(at + kPush, staged.size())));
      }
      util::Timer timer;
      for (const auto& chunk : chunks) sg.submit(chunk);
      sg.drain();
      const double seconds = timer.seconds();
      const shard::ShardedStats s = sg.stats();

      const double rate = static_cast<double>(updates) / seconds;
      if (k == 1) write_rate_k1 = rate;
      if (k == 4) write_rate_k4 = rate;
      const std::string op = "write/k" + std::to_string(k);
      table.add_row({op, bench::human(updates), std::to_string(seconds),
                     std::to_string(rate / 1e6),
                     std::to_string(s.boundary_edges) + " boundary"});
      rows.push_back({"shard/" + op, updates, "gpu",
                      seconds * 1e9 / static_cast<double>(updates)});
      if (s.ingest.applied + s.boundary_applied + s.boundary_noops !=
          updates) {
        std::printf("FAIL: write k=%zu lost updates (%zu applied + %zu "
                    "boundary of %zu)\n",
                    k, s.ingest.applied,
                    s.boundary_applied + s.boundary_noops, updates);
        ok = false;
      }
    }
    if (check && write_rate_k4 < 2.0 * write_rate_k1) {
      std::printf("FAIL: K=4 write rate %.2fM/s < 2x K=1 rate %.2fM/s\n",
                  write_rate_k4 / 1e6, write_rate_k1 / 1e6);
      ok = false;
    }
  }

  // -------------------------------------------------------------- query
  {
    const NodeId n = side * side;
    const graph::EdgeList grid = gen::road_graph(side, side, 0.9, 0.02, 7);

    shard::ShardedOptions opts = write_options(4);
    opts.ingest.publish_every = 1;  // the query cell serves published state
    shard::ShardedGraph sg(n, grid, opts);
    sg.flush();

    engine::Engine eng;
    engine::Session session = eng.session(grid);
    session.refresh();

    util::Rng rng(777);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    pairs.reserve(queries);
    for (std::size_t q = 0; q < queries; ++q) {
      pairs.push_back({static_cast<NodeId>(rng.below(n)),
                       static_cast<NodeId>(rng.below(n))});
    }

    // The one-off stitch (cached per epoch vector afterwards).
    util::Timer stitch_timer;
    const shard::ShardedView view = sg.view();
    const double stitch_seconds = stitch_timer.seconds();
    table.add_row({"query/stitch_build",
                   std::to_string(view.summary_graph().num_nodes),
                   std::to_string(stitch_seconds), "-",
                   std::to_string(sg.router().boundary_edges()) +
                       " boundary"});
    rows.push_back(
        {"shard/query/stitch_build",
         static_cast<std::size_t>(view.summary_graph().num_nodes), "gpu",
         stitch_seconds * 1e9});
    std::printf("\n# query: %d-node grid, K=4, %zu boundary edges, "
                "%zu-block summary, %zu pairs per batch\n",
                n, sg.router().boundary_edges(), view.num_blocks(), queries);

    const auto run_pair_cell = [&](const char* name, auto request,
                                   auto run_sharded, auto run_unsharded) {
      const auto got = run_sharded(request);
      const auto want = run_unsharded(request);
      if (got != want) {
        std::printf("FAIL: %s sharded answers diverge from unsharded\n",
                    name);
        ok = false;
      }
      const double sharded_s =
          bench::time_avg(5, [&] { (void)run_sharded(request); });
      const double unsharded_s =
          bench::time_avg(5, [&] { (void)run_unsharded(request); });
      const double ratio = sharded_s / unsharded_s;
      for (const auto& [label, seconds] :
           {std::pair<const char*, double>{"sharded", sharded_s},
            std::pair<const char*, double>{"unsharded", unsharded_s}}) {
        table.add_row({std::string("query/") + name + "/" + label,
                       bench::human(queries), std::to_string(seconds),
                       std::to_string(static_cast<double>(queries) /
                                      seconds / 1e6),
                       label == std::string("sharded")
                           ? std::to_string(ratio) + "x"
                           : ""});
        rows.push_back({std::string("shard/query/") + name + "/" + label,
                        queries, "gpu",
                        seconds * 1e9 / static_cast<double>(queries)});
      }
      if (check && ratio > 2.0) {
        std::printf("FAIL: %s cross-shard overhead %.2fx > 2x\n", name,
                    ratio);
        ok = false;
      }
    };

    run_pair_cell(
        "same2ecc", engine::Same2Ecc{pairs},
        [&](const engine::Same2Ecc& r) { return view.run(r); },
        [&](const engine::Same2Ecc& r) { return session.run(r); });
    run_pair_cell(
        "bridges_on_path", engine::BridgesOnPath{pairs},
        [&](const engine::BridgesOnPath& r) { return view.run(r); },
        [&](const engine::BridgesOnPath& r) { return session.run(r); });
  }

  // ------------------------------------------------------------- bursty
  {
    constexpr NodeId kBurstyNodes = 4096;
    // Calibrate the apply throughput through the sharded write path, so
    // the burst rate is 4x what THIS machine sustains.
    util::Rng rng(4321);
    double apply_rate = 0.0;
    {
      shard::ShardedGraph cal_sg(kBurstyNodes, write_options(4));
      const std::vector<graph::Edge> probe =
          fresh_edges(rng, kBurstyNodes, 8192, {});
      std::vector<ingest::Update> staged(probe.size());
      for (std::size_t i = 0; i < probe.size(); ++i) {
        staged[i] = {probe[i], ingest::UpdateKind::kInsert, 0, 0};
      }
      util::Timer cal;
      cal_sg.submit(staged);
      cal_sg.drain();
      apply_rate = static_cast<double>(probe.size()) / cal.seconds();
    }

    const double weights = 0.5 + 4.0 + 0.5;
    double seg_dur =
        static_cast<double>(bursty_target) / (weights * apply_rate);
    seg_dur = std::clamp(seg_dur, 0.03, 1.0);
    const double rates[3] = {0.5 * apply_rate, 4.0 * apply_rate,
                             0.5 * apply_rate};

    std::mt19937_64 gen(99);
    std::vector<double> arrivals_s;
    for (int seg = 0; seg < 3; ++seg) {
      const double mean = rates[seg] * seg_dur;
      const long count = std::poisson_distribution<long>(mean)(gen);
      std::uniform_real_distribution<double> in_seg(seg * seg_dur,
                                                    (seg + 1) * seg_dur);
      for (long i = 0; i < count; ++i) arrivals_s.push_back(in_seg(gen));
    }
    std::sort(arrivals_s.begin(), arrivals_s.end());
    const std::vector<graph::Edge> pool = fresh_edges(
        rng, kBurstyNodes,
        std::min<std::size_t>(arrivals_s.size(), 1 << 19), {});
    std::printf("\n# bursty: %d nodes, K=4, apply rate %.0f/s, %zu arrivals "
                "over %.2fs (burst %.0f/s)\n",
                kBurstyNodes, apply_rate, arrivals_s.size(), 3 * seg_dur,
                rates[1]);

    shard::ShardedOptions opts;
    opts.shards = 4;
    opts.ingest.queue_bound = 512;  // small on purpose: the burst overflows
    opts.ingest.admission = ingest::Admission::kShedOldest;
    opts.ingest.max_batch = 256;
    opts.ingest.linger = std::chrono::microseconds(200);
    opts.ingest.publish_every = 16;
    opts.ingest.publish_min_interval = std::chrono::milliseconds(20);
    shard::ShardedGraph sg(kBurstyNodes, opts);
    shard::ShardedDispatcher dispatcher(sg);

    std::atomic<bool> replay_done{false};
    std::size_t answered = 0, unresolved = 0;
    std::thread reader([&] {
      util::Rng qrng(777);
      std::vector<std::future<serve::Reply<std::vector<std::uint8_t>>>>
          inflight;
      while (!replay_done.load(std::memory_order_acquire)) {
        inflight.clear();
        for (int i = 0; i < 32; ++i) {
          engine::Same2Ecc request;
          request.pairs.push_back(
              {static_cast<NodeId>(qrng.below(kBurstyNodes)),
               static_cast<NodeId>(qrng.below(kBurstyNodes))});
          inflight.push_back(dispatcher.submit(std::move(request)));
        }
        for (auto& future : inflight) {
          if (future.wait_for(std::chrono::seconds(5)) !=
              std::future_status::ready) {
            ++unresolved;  // never: faults must not strand readers
            continue;
          }
          if (future.get().status == serve::Status::kOk) ++answered;
        }
      }
    });

    const auto start = std::chrono::steady_clock::now();
    std::vector<ingest::Update> due;
    std::size_t at = 0;
    while (at < arrivals_s.size()) {
      const auto target =
          start +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(arrivals_s[at]));
      std::this_thread::sleep_until(target);
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      due.clear();
      while (at < arrivals_s.size() && arrivals_s[at] <= elapsed) {
        due.push_back({pool[at % pool.size()], ingest::UpdateKind::kInsert,
                       0, 0});
        ++at;
      }
      if (!due.empty()) sg.submit(due);
    }
    sg.flush();
    replay_done.store(true, std::memory_order_release);
    reader.join();

    const shard::ShardedStats s = dispatcher.stats();
    dispatcher.stop();
    sg.stop();

    const std::size_t accepted = s.ingest.accepted + s.boundary_applied +
                                 s.boundary_noops;
    table.add_row({"bursty/replay", bench::human(accepted),
                   std::to_string(3 * seg_dur),
                   std::to_string(static_cast<double>(s.ingest.applied) /
                                  (3 * seg_dur) / 1e6),
                   std::to_string(s.ingest.shed) + " shed"});
    const auto count_row = [&rows](const char* op, std::size_t count) {
      rows.push_back({op, count, "gpu", 0.0});
    };
    count_row("shard/bursty/accepted", accepted);
    count_row("shard/bursty/applied", s.ingest.applied);
    count_row("shard/bursty/shed", s.ingest.shed);
    count_row("shard/bursty/publishes", s.ingest.publishes);
    count_row("shard/bursty/max_staleness",
              static_cast<std::size_t>(s.max_staleness));
    std::printf("bursty: accepted %zu = applied %zu + shed %zu (+ %zu "
                "boundary); %zu publishes, %zu answered\n",
                accepted, s.ingest.applied, s.ingest.shed,
                s.boundary_applied + s.boundary_noops, s.ingest.publishes,
                answered);

    if (check) {
      if (s.ingest.accepted != s.ingest.applied + s.ingest.shed) {
        std::printf("FAIL: bursty ledger does not balance\n");
        ok = false;
      }
      if (unresolved != 0) {
        std::printf("FAIL: %zu reader futures went unresolved\n",
                    unresolved);
        ok = false;
      }
      if (s.ingest.lag != 0) {
        std::printf("FAIL: lag nonzero after flush\n");
        ok = false;
      }
    }
  }

  std::printf("\n");
  table.print();
  if (!bench::write_bench_json("BENCH_shard.json", rows)) {
    std::printf("could not write BENCH_shard.json\n");
    return 1;
  }
  return ok ? 0 : 1;
}
