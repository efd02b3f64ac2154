// Streaming ingest throughput: the UpdateQueue -> Batcher -> Ingestor
// pipeline against the raw insert_edges loop it wraps, plus an overload
// cell replaying a bursty arrival process against a bounded ring.
//
// Two sections, rows in BENCH_ingest.json (committed at repo root):
//
//   STEADY (1M-node road grid): one producer pushes a pre-generated pool
//   of fresh unique edges through the Ingestor as fast as the ring admits
//   them, for several batcher settings; the baseline applies the same pool
//   with direct insert_edges calls in max_batch-sized chunks. Publishing
//   is disabled in both (a no-op publisher on the ingest side) so the
//   cells compare the WRITE PATH alone: ring admission + batching +
//   canonicalization vs a hand-rolled loop. The graph is restored to the
//   base edge set between cells (erase-all, untimed).
//     op = ingest/steady/direct            n = updates, ns_per_elem/update
//     op = ingest/steady/batch<B>          the pipeline at max_batch = B
//
//   BURSTY (128x128 road grid): an inhomogeneous-Poisson arrival stream —
//   piecewise-constant rate calm/burst/calm, with the burst rate set to
//   4x the machine's MEASURED apply throughput (calibrated at startup,
//   the same trick bench_serve's flash crowd uses) — is pre-generated as
//   explicit timestamps and replayed against a small ShedOldest ring with
//   paced publishing, while a reader floods a Dispatcher attached to the
//   Ingestor. Arrival times use the standard inversion method for
//   piecewise-constant rates (per segment: N ~ Poisson(rate x dur), N iid
//   uniform times, sorted — cf. Hohmann, arXiv:1901.10754): the burst
//   segment MUST overflow the ring, and the cell reports how admission
//   and pacing degraded — shed counts and publish lag, never corruption.
//     op = ingest/bursty/<accepted|applied|shed|publishes>   (n = count)
//     op = ingest/bursty/max_lag        n = max observed lag, in updates
//     op = ingest/bursty/latency_ewma   ns_per_elem = enqueue->publish ns
//
// With --check 1 (default), exits nonzero if
//   - the steady pipeline cell matching the direct chunk size falls below
//     90% of the direct rate (the pipeline must cost <= 10% overhead), or
//   - the bursty ledger does not balance (accepted != applied + shed), or
//   - any reader future goes unresolved.
#include <algorithm>
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
#include "dynamic/dynamic_graph.hpp"
#include "engine/engine.hpp"
#include "gen/graphs.hpp"
#include "graph/graph.hpp"
#include "ingest/ingest.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace emc;

std::uint64_t edge_key(const graph::Edge& e) {
  const auto lo = static_cast<std::uint64_t>(std::min(e.u, e.v));
  const auto hi = static_cast<std::uint64_t>(std::max(e.u, e.v));
  return lo << 32 | hi;
}

/// `count` random edges absent from `present` (and from each other) —
/// every one is effective on insert, so direct and pipeline cells apply
/// identical work.
std::vector<graph::Edge> fresh_edges(util::Rng& rng, NodeId n,
                                     std::size_t count,
                                     std::unordered_set<std::uint64_t> present) {
  std::vector<graph::Edge> out;
  out.reserve(count);
  while (out.size() < count) {
    graph::Edge e{static_cast<NodeId>(rng.below(n)),
                  static_cast<NodeId>(rng.below(n))};
    if (e.u == e.v) continue;
    if (!present.insert(edge_key(e)).second) continue;
    out.push_back(e);
  }
  return out;
}

std::unordered_set<std::uint64_t> edge_keys(graph::EdgeSpan g) {
  std::unordered_set<std::uint64_t> keys;
  keys.reserve(g.edges.size() * 2);
  for (const graph::Edge& e : g.edges) keys.insert(edge_key(e));
  return keys;
}

void apply_chunked(dynamic::DynamicGraph& dg, const device::Context& ctx,
                   const std::vector<graph::Edge>& edges, std::size_t chunk,
                   bool insert) {
  for (std::size_t at = 0; at < edges.size(); at += chunk) {
    const std::vector<graph::Edge> batch(
        edges.begin() + static_cast<std::ptrdiff_t>(at),
        edges.begin() +
            static_cast<std::ptrdiff_t>(std::min(at + chunk, edges.size())));
    if (insert) {
      dg.insert_edges(ctx, batch);
    } else {
      dg.erase_edges(ctx, batch);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto side = static_cast<NodeId>(
      flags.get_int("side", 1024, "steady cell: road grid side"));
  const auto updates = static_cast<std::size_t>(flags.get_int(
      "updates", 1 << 18, "steady cell: fresh edges pushed per cell"));
  const auto bursty_side = static_cast<NodeId>(
      flags.get_int("bursty-side", 128, "bursty cell: road grid side"));
  const auto bursty_target = static_cast<std::size_t>(flags.get_int(
      "bursty-updates", 200000, "bursty cell: expected total arrivals"));
  const bool check = flags.get_bool("check", true, "enforce acceptance");
  flags.finish();

  util::Table table({"op", "updates", "seconds", "Mups", "batches"});
  std::vector<bench::BenchRow> rows;
  bool ok = true;

  // ------------------------------------------------------------- steady
  engine::Engine eng;
  const device::Context& ctx = eng.device();
  {
    const auto n = static_cast<NodeId>(side) * side;
    dynamic::DynamicGraph dg(ctx, gen::road_graph(side, side, 0.9, 0.02, 7));
    engine::Session session = eng.session(dg);
    const std::size_t base_edges = dg.num_edges();
    std::printf("# steady: %d nodes, %zu base edges, %u workers, %zu fresh "
                "edges per cell\n",
                n, base_edges, ctx.workers(), updates);

    util::Rng rng(1234);
    const std::vector<graph::Edge> pool =
        fresh_edges(rng, n, updates, edge_keys(dg.snapshot()));

    constexpr std::size_t kDirectChunk = 2048;
    double direct_rate = 0.0;
    double matched_rate = 0.0;

    // Baseline: the hand-rolled writer loop, chunked at the default
    // max_batch so the device sees the same batch shape.
    {
      util::Timer timer;
      apply_chunked(dg, ctx, pool, kDirectChunk, /*insert=*/true);
      const double seconds = timer.seconds();
      direct_rate = static_cast<double>(updates) / seconds;
      table.add_row({"steady/direct", bench::human(updates),
                     std::to_string(seconds),
                     std::to_string(direct_rate / 1e6),
                     std::to_string(updates / kDirectChunk)});
      rows.push_back({"ingest/steady/direct", updates, "gpu",
                      seconds * 1e9 / static_cast<double>(updates)});
      apply_chunked(dg, ctx, pool, 1 << 16, /*insert=*/false);  // restore
    }

    for (const std::size_t max_batch : {std::size_t{512}, std::size_t{2048},
                                        std::size_t{8192}}) {
      ingest::IngestorOptions opt;
      opt.queue_bound = 1 << 15;
      opt.admission = ingest::Admission::kBlock;  // backpressure, no loss
      opt.max_batch = max_batch;
      opt.linger = std::chrono::microseconds(0);  // opportunistic cuts
      // Publishing off in BOTH cells: this measures the write path alone.
      opt.publish_every = std::numeric_limits<std::size_t>::max();
      opt.idle_publish = std::chrono::hours(1);
      ingest::Ingestor ingestor(eng, dg, session, opt);
      ingestor.set_publisher([](engine::Session&) { return true; });

      std::vector<ingest::Update> staged(pool.size());
      for (std::size_t i = 0; i < pool.size(); ++i) {
        staged[i] = {pool[i], ingest::UpdateKind::kInsert, 0, 0};
      }

      constexpr std::size_t kPush = 4096;
      util::Timer timer;
      for (std::size_t at = 0; at < staged.size(); at += kPush) {
        ingestor.submit(staged.data() + at,
                        std::min(kPush, staged.size() - at));
      }
      ingestor.drain();  // every accepted update applied (publishing off)
      const double seconds = timer.seconds();
      const ingest::IngestorStats s = ingestor.stats();
      ingestor.stop();

      const double rate = static_cast<double>(updates) / seconds;
      if (max_batch == kDirectChunk) matched_rate = rate;
      const std::string op = "steady/batch" + std::to_string(max_batch);
      table.add_row({op, bench::human(updates), std::to_string(seconds),
                     std::to_string(rate / 1e6), std::to_string(s.batches)});
      rows.push_back({"ingest/" + op, updates, "gpu",
                      seconds * 1e9 / static_cast<double>(updates)});
      apply_chunked(dg, ctx, pool, 1 << 16, /*insert=*/false);  // restore
      if (dg.num_edges() != base_edges) {
        std::printf("FAIL: cell did not restore the base graph\n");
        ok = false;
      }
    }

    // Published cell: the same pool with a publish after EVERY batch. Only
    // affordable because insert-only epochs publish by delta replay —
    // every batch's artifacts (forest, mask, LCA, oracle) are patched from
    // the previous epoch instead of rebuilt, and its snapshot is a longer
    // prefix of the same edge log, so the publish cost rides the delta,
    // not the graph.
    //   op = ingest/steady/published            per-update cost, publish on
    //   op = ingest/steady/publish_replays      epochs published by replay
    //   op = ingest/steady/publish_rebuilds     epochs that fell back
    {
      session.refresh();
      const std::uint64_t replays_before = session.publish_replays();
      const std::uint64_t rebuilds_before = session.publish_rebuilds();
      ingest::IngestorOptions opt;
      opt.queue_bound = 1 << 15;
      opt.admission = ingest::Admission::kBlock;
      opt.max_batch = 2048;
      opt.linger = std::chrono::microseconds(0);
      opt.publish_every = 1;
      ingest::Ingestor ingestor(eng, dg, session, opt);

      std::vector<ingest::Update> staged(pool.size());
      for (std::size_t i = 0; i < pool.size(); ++i) {
        staged[i] = {pool[i], ingest::UpdateKind::kInsert, 0, 0};
      }
      constexpr std::size_t kPush = 4096;
      util::Timer timer;
      for (std::size_t at = 0; at < staged.size(); at += kPush) {
        ingestor.submit(staged.data() + at,
                        std::min(kPush, staged.size() - at));
      }
      ingestor.flush();  // applied AND published
      const double seconds = timer.seconds();
      const ingest::IngestorStats s = ingestor.stats();
      ingestor.stop();

      const std::uint64_t replays = session.publish_replays() - replays_before;
      const std::uint64_t rebuilds =
          session.publish_rebuilds() - rebuilds_before;
      table.add_row({"steady/published", bench::human(updates),
                     std::to_string(seconds),
                     std::to_string(static_cast<double>(updates) / seconds /
                                    1e6),
                     std::to_string(s.publishes)});
      rows.push_back({"ingest/steady/published", updates, "gpu",
                      seconds * 1e9 / static_cast<double>(updates)});
      rows.push_back({"ingest/steady/publish_replays",
                      static_cast<std::size_t>(replays), "gpu", 0.0});
      rows.push_back({"ingest/steady/publish_rebuilds",
                      static_cast<std::size_t>(rebuilds), "gpu", 0.0});
      std::printf("published: %zu publishes = %llu replays + %llu rebuilds\n",
                  s.publishes, static_cast<unsigned long long>(replays),
                  static_cast<unsigned long long>(rebuilds));
      if (check && replays == 0) {
        std::printf("FAIL: published cell never took the replay path\n");
        ok = false;
      }
      apply_chunked(dg, ctx, pool, 1 << 16, /*insert=*/false);  // restore
      session.refresh();
      if (dg.num_edges() != base_edges) {
        std::printf("FAIL: published cell did not restore the base graph\n");
        ok = false;
      }
    }

    if (check && matched_rate < 0.9 * direct_rate) {
      std::printf("FAIL: pipeline at the matched batch size reached %.2fM/s "
                  "vs direct %.2fM/s (> 10%% overhead)\n",
                  matched_rate / 1e6, direct_rate / 1e6);
      ok = false;
    }
  }

  // ------------------------------------------------------------- bursty
  {
    const auto n = static_cast<NodeId>(bursty_side) * bursty_side;
    dynamic::DynamicGraph dg(
        ctx, gen::road_graph(bursty_side, bursty_side, 0.9, 0.02, 11));
    engine::Session session = eng.session(dg);
    session.refresh();

    // Calibrate the apply throughput (raw, unpublished), so the burst rate
    // is 4x what THIS machine sustains rather than a hardcoded guess.
    util::Rng rng(4321);
    std::unordered_set<std::uint64_t> present = edge_keys(dg.snapshot());
    const std::vector<graph::Edge> probe = fresh_edges(rng, n, 8192, present);
    util::Timer cal;
    apply_chunked(dg, ctx, probe, 256, /*insert=*/true);
    const double apply_rate =
        static_cast<double>(probe.size()) / cal.seconds();
    apply_chunked(dg, ctx, probe, 1 << 16, /*insert=*/false);  // restore

    // calm/burst/calm at 0.5x / 4x / 0.5x of the apply rate; segment
    // length chosen so the whole replay lands near --bursty-updates
    // arrivals (clamped to stay a real burst, not a blink).
    const double base_rate = apply_rate;
    const double weights = 0.5 + 4.0 + 0.5;
    double seg_dur = static_cast<double>(bursty_target) / (weights * base_rate);
    seg_dur = std::clamp(seg_dur, 0.03, 1.0);
    const double rates[3] = {0.5 * base_rate, 4.0 * base_rate,
                             0.5 * base_rate};

    // Pre-generate the arrival process (inversion per piecewise-constant
    // segment), then the updates themselves: fresh inserts, wrapping the
    // pool when the draw overshoots it (re-inserts are no-ops, which an
    // overload cell does not care about).
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
        rng, n, std::min<std::size_t>(arrivals_s.size(), 1 << 20), present);
    std::printf("\n# bursty: %d nodes, apply rate %.0f/s, %zu arrivals over "
                "%.2fs (burst %.0f/s)\n",
                n, apply_rate, arrivals_s.size(), 3 * seg_dur, rates[1]);

    ingest::IngestorOptions opt;
    opt.queue_bound = 1024;  // small on purpose: the burst must overflow
    opt.admission = ingest::Admission::kShedOldest;
    opt.max_batch = 256;
    opt.linger = std::chrono::microseconds(200);
    opt.publish_every = 16;
    opt.publish_min_interval = std::chrono::milliseconds(20);
    opt.start_paused = true;
    ingest::Ingestor ingestor(eng, dg, session, opt);

    serve::DispatcherOptions dopt;
    dopt.workers = 2;
    serve::Dispatcher dispatcher(session.view(), dopt);
    dispatcher.attach_ingestor(ingestor);
    ingestor.resume();

    std::atomic<bool> replay_done{false};
    std::size_t max_lag = 0;
    std::size_t answered = 0, unresolved = 0;
    std::thread reader([&] {
      util::Rng qrng(777);
      std::vector<std::future<serve::Reply<std::vector<std::uint8_t>>>>
          inflight;
      while (!replay_done.load(std::memory_order_acquire)) {
        inflight.clear();
        for (int i = 0; i < 64; ++i) {
          engine::Same2Ecc request;
          request.pairs.push_back({static_cast<NodeId>(qrng.below(n)),
                                   static_cast<NodeId>(qrng.below(n))});
          inflight.push_back(dispatcher.submit(std::move(request)));
        }
        max_lag = std::max(max_lag, ingestor.lag());
        for (auto& future : inflight) {
          if (future.wait_for(std::chrono::seconds(5)) !=
              std::future_status::ready) {
            ++unresolved;  // never: publish faults must not strand readers
            continue;
          }
          if (future.get().status == serve::Status::kOk) ++answered;
        }
      }
    });

    // Replay: sleep to each pre-generated arrival, submitting every update
    // already due as one push (catch-up batching — exactly what a real
    // receiver loop does when it falls behind).
    const auto start = std::chrono::steady_clock::now();
    std::vector<ingest::Update> due;
    std::size_t at = 0;
    while (at < arrivals_s.size()) {
      const auto target =
          start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
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
      if (!due.empty()) ingestor.submit(due);
    }
    ingestor.flush();
    replay_done.store(true, std::memory_order_release);
    reader.join();

    const ingest::IngestorStats s = ingestor.stats();
    ingestor.stop();  // before the Dispatcher: it owns the publish hook
    dispatcher.stop();

    table.add_row({"bursty/replay", bench::human(s.accepted),
                   std::to_string(3 * seg_dur),
                   std::to_string(static_cast<double>(s.applied) /
                                  (3 * seg_dur) / 1e6),
                   std::to_string(s.batches)});
    const auto count_row = [&rows](const char* op, std::size_t count) {
      rows.push_back({op, count, "gpu", 0.0});
    };
    count_row("ingest/bursty/accepted", s.accepted);
    count_row("ingest/bursty/applied", s.applied);
    count_row("ingest/bursty/shed", s.shed);
    count_row("ingest/bursty/publishes", s.publishes);
    count_row("ingest/bursty/max_lag", max_lag);
    rows.push_back(
        {"ingest/bursty/latency_ewma", 1, "gpu", s.latency_ewma_us * 1e3});
    std::printf("bursty: accepted %zu = applied %zu + shed %zu; %zu "
                "publishes, max lag %zu, ewma %.0fus, %zu answered\n",
                s.accepted, s.applied, s.shed, s.publishes, max_lag,
                s.latency_ewma_us, answered);

    if (check) {
      if (s.accepted != s.applied + s.shed) {
        std::printf("FAIL: bursty ledger does not balance\n");
        ok = false;
      }
      if (unresolved != 0) {
        std::printf("FAIL: %zu reader futures went unresolved\n", unresolved);
        ok = false;
      }
      if (s.lag != 0) {
        std::printf("FAIL: lag nonzero after flush\n");
        ok = false;
      }
    }
  }

  std::printf("\n");
  table.print();
  if (!bench::write_bench_json("BENCH_ingest.json", rows)) {
    std::printf("could not write BENCH_ingest.json\n");
    return 1;
  }
  return ok ? 0 : 1;
}
