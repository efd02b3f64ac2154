// Batch-dynamic subsystem throughput: update batches vs query batches,
// served through an engine Session bound to the DynamicGraph.
//
// The workload the dynamic subsystem exists for: a long-lived graph absorbs
// batches of edge insertions/deletions, the session's epoch-keyed cache
// brings the 2-ecc index up to date once per changed batch, and between
// updates it serves large batches of point queries — each query batch as
// ONE bulk kernel when the policy routes it to the device (the Figure 6
// regime), or as a host loop when the batch is too small to pay a launch.
// Reported per batch size:
//
//   update rows — seconds to apply the batch to the graph and answer the
//     first query (the index refresh dominates; launches shows the fixed
//     kernel count);
//   incremental rows — refresh cost alone for small INSERT-ONLY batches,
//     where the session replays the delta onto the previous epoch's record
//     (an interval test over the forest's bridges, no path walk) instead
//     of the full pipeline, next to a fresh session's full rebuild of the
//     same snapshot;
//   erase rows  — a uniform erase burst's publish, where the session
//     splices the previous epoch's forest and forest LCA (no forest CC, no
//     tour sort, no list ranking) and indexes the spliced tree from its
//     low/high (no bridge backend, no mask), next to a fresh session's
//     full publish of the same snapshot;
//   link rows   — a replayed insert batch whose every edge links two trees,
//     spliced into the previous epoch's forest and forest LCA the same way,
//     next to a fresh session's full publish of the same snapshot;
//   query rows  — queries/s for same_2ecc and bridges_on_path batches on
//     the forced device route, plus the auto route (host below the
//     launch-overhead threshold) for comparison;
//   mix rows    — interleaved update/query rounds at a given ratio, the
//     serving steady state.
//
// Rows also land in BENCH_dynamic.json (same shape as the other BENCH
// files; n is the batch size, ns_per_elem the per-element batch cost).
#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "engine/engine.hpp"
#include "gen/graphs.hpp"
#include "util/rng.hpp"

namespace {

using namespace emc;

std::vector<graph::Edge> random_batch(util::Rng& rng, NodeId n,
                                      std::size_t size) {
  std::vector<graph::Edge> batch(size);
  for (auto& e : batch) {
    e.u = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
    e.v = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
  }
  return batch;
}

engine::Same2Ecc random_queries(util::Rng& rng, NodeId n, std::size_t size) {
  engine::Same2Ecc request;
  request.pairs.resize(size);
  for (auto& [u, v] : request.pairs) {
    u = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
    v = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
  }
  return request;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto side = static_cast<NodeId>(
      flags.get_int("side", 1024, "base road grid is side x side nodes"));
  const auto runs = std::max(
      1, static_cast<int>(flags.get_int("runs", 3, "timing runs")));
  const bool check = flags.get_int("check", 0,
                                   "exit 1 unless every incremental row "
                                   "replays, incremental publish costs "
                                   "<= 10% of a full publish, every erase "
                                   "publish splices and runs no bridge "
                                   "backend, every link publish replays, "
                                   "and both cost <= 75% of a full "
                                   "one") != 0;
  flags.finish();

  engine::Engine eng;
  const device::Context& ctx = eng.device();
  const auto n = static_cast<NodeId>(side) * side;
  std::printf("# dynamic graph: %d nodes (road-like base), %u workers\n\n",
              n, ctx.workers());

  util::Rng rng(42);
  dynamic::DynamicGraph dg(ctx, gen::road_graph(side, side, 0.95, 0.03, 7));
  engine::Session session = eng.session(dg);
  const engine::TwoEccView base = session.run(engine::TwoEcc{});
  std::printf("base: %zu edges, %zu bridges, %zu blocks\n\n", dg.num_edges(),
              base.num_bridges, base.num_blocks);

  // The paper's bulk regime: query batches forced onto the device route.
  engine::Policy device_route;
  device_route.min_device_batch = 1;

  util::Table table({"op", "batch", "seconds", "Melem/s", "launches"});
  std::vector<bench::BenchRow> rows;
  const auto record = [&](const std::string& op, std::size_t batch,
                          double seconds, std::uint64_t launches,
                          const char* context = "gpu") {
    table.add_row({op, bench::human(batch), std::to_string(seconds),
                   std::to_string(batch / seconds / 1e6),
                   std::to_string(launches)});
    rows.push_back({op, batch, context, seconds * 1e9 / batch});
  };

  // ---- update batches: graph apply + index refresh (via a 1-pair query).
  // The erase batch samples EXISTING edges so it is always effective: the
  // round's final delta then contains erases and the refresh
  // deterministically takes the full-rebuild path (the incremental paths
  // are measured separately below).
  for (const std::size_t batch_size : {1u << 10, 1u << 14, 1u << 18}) {
    double total = 0;
    const std::uint64_t before = ctx.launch_count();
    for (int r = 0; r < runs; ++r) {
      auto inserts = random_batch(rng, n, batch_size);
      std::vector<graph::Edge> erases(batch_size / 4);
      const auto current = dg.snapshot().span().edges;
      for (auto& e : erases) e = current[rng.below(current.size())];
      util::Timer timer;
      dg.insert_edges(ctx, inserts);
      dg.erase_edges(ctx, erases);
      session.run(engine::Same2Ecc{{{0, 1}}});  // refreshes the index
      total += timer.seconds();
    }
    // Average launches per round (key folds and adaptive sort pass counts
    // make individual rounds vary).
    record("update_refresh", batch_size, total / runs,
           (ctx.launch_count() - before) / runs);
  }

  // ---- incremental refresh vs full rebuild: small insert-only batches of
  // intra-component edges (the delta shape the replay paths serve). Timed
  // per phase: the index refresh only — the graph apply is identical for
  // both. The "full" side is a FRESH session on the same graph, which has
  // no record to replay from. A replay not taken fails --check.
  std::size_t skipped_replays = 0;
  {
    const auto cc = graph::connected_component_labels(dg.snapshot());
    auto intra_batch = [&](std::size_t size) {
      std::vector<graph::Edge> batch;
      while (batch.size() < size) {
        const auto u = static_cast<NodeId>(rng.below(n));
        const auto v = static_cast<NodeId>(rng.below(n));
        if (u != v && cc[u] == cc[v]) batch.push_back({u, v});
      }
      return batch;
    };
    for (const std::size_t batch_size : {1u << 8, 1u << 10, 1u << 12, 1u << 14}) {
      double incr_total = 0, full_total = 0;
      std::uint64_t incr_launches = 0, full_launches = 0;
      for (int r = 0; r < runs; ++r) {
        session.run(engine::Same2Ecc{{{0, 1}}});  // make the index current
        dg.insert_edges(ctx, intra_batch(batch_size));
        const std::uint64_t replays_before = session.publish_replays();
        std::uint64_t before = ctx.launch_count();
        util::Timer timer;
        session.run(engine::Same2Ecc{{{0, 1}}});
        incr_total += timer.seconds();
        incr_launches += ctx.launch_count() - before;
        if (session.publish_replays() == replays_before) {
          std::fprintf(stderr, "incremental path not taken at batch=%zu\n",
                       batch_size);
          ++skipped_replays;
        }
        engine::Session fresh = eng.session(dg);  // full pipeline
        before = ctx.launch_count();
        timer.reset();
        fresh.run(engine::Same2Ecc{{{0, 1}}});
        full_total += timer.seconds();
        full_launches += ctx.launch_count() - before;
      }
      record("refresh_incremental", batch_size, incr_total / runs,
             incr_launches / runs);
      record("refresh_full_rebuild", batch_size, full_total / runs,
             full_launches / runs);
    }
  }

  // ---- epoch publish: bring EVERY published artifact (spanning forest,
  // bridge mask, forest LCA, 2-ecc oracle; the edge snapshot is the edge
  // log's prefix and the Csr is lazy) to the new epoch, as
  // Session::refresh() does for a publisher. The incremental side replays
  // the insert-only delta onto the previous epoch's artifacts (delta-sized
  // patches + appends); the full side is a fresh session's
  // from-scratch pipeline at the SAME epoch (n-sized). The gap between the
  // two rows is what makes per-batch publishing affordable at streaming
  // cadence — the --check gate pins it.
  double worst_publish_ratio = 0;
  {
    const auto cc = graph::connected_component_labels(dg.snapshot());
    auto intra_batch = [&](std::size_t size) {
      std::vector<graph::Edge> batch;
      while (batch.size() < size) {
        const auto u = static_cast<NodeId>(rng.below(n));
        const auto v = static_cast<NodeId>(rng.below(n));
        if (u != v && cc[u] == cc[v]) batch.push_back({u, v});
      }
      return batch;
    };
    for (const std::size_t batch_size : {1u << 6, 1u << 10, 1u << 14}) {
      double incr_total = 0, full_total = 0;
      std::uint64_t incr_launches = 0, full_launches = 0;
      for (int r = 0; r < runs; ++r) {
        session.refresh();  // make the previous epoch's artifacts current
        const std::uint64_t replays_before = session.publish_replays();
        dg.insert_edges(ctx, intra_batch(batch_size));
        std::uint64_t before = ctx.launch_count();
        util::Timer timer;
        session.refresh();
        incr_total += timer.seconds();
        incr_launches += ctx.launch_count() - before;
        if (session.publish_replays() == replays_before) {
          std::fprintf(stderr, "publish replay not taken at batch=%zu\n",
                       batch_size);
          ++skipped_replays;
        }
        engine::Session fresh = eng.session(dg);  // full pipeline baseline
        before = ctx.launch_count();
        timer.reset();
        fresh.refresh();
        full_total += timer.seconds();
        full_launches += ctx.launch_count() - before;
      }
      record("publish_incremental", batch_size, incr_total / runs,
             incr_launches / runs);
      record("publish_full", batch_size, full_total / runs,
             full_launches / runs);
      worst_publish_ratio = std::max(worst_publish_ratio,
                                     incr_total / full_total);
    }
  }

  // ---- erase publish: a uniform burst of present edges cuts ~half as
  // many tree edges on a road grid. The session splices the previous
  // epoch's forest and forest LCA and indexes the spliced tree from its
  // low/high; the full side is a fresh session at the SAME epoch. --check
  // pins the splice below 75% of the full publish, and that it runs no
  // bridge backend.
  double erase_ratio = 0;
  std::size_t skipped_splices = 0;
  std::size_t erase_backend_runs = 0;
  const auto backend_runs = [&] {
    std::size_t total = 0;
    for (const std::size_t count : eng.stats().backend_runs) total += count;
    return total;
  };
  {
    constexpr std::size_t kBurst = 1u << 10;
    double splice_total = 0, full_total = 0;
    std::uint64_t splice_launches = 0, full_launches = 0;
    for (int r = 0; r < runs; ++r) {
      session.refresh();  // make the previous epoch's artifacts current
      const auto current = dg.snapshot().span().edges;
      std::vector<graph::Edge> erases(kBurst);
      for (auto& e : erases) e = current[rng.below(current.size())];
      dg.erase_edges(ctx, erases);
      const std::size_t runs_before = backend_runs();
      std::uint64_t before = ctx.launch_count();
      util::Timer timer;
      session.refresh();
      splice_total += timer.seconds();
      splice_launches += ctx.launch_count() - before;
      erase_backend_runs += backend_runs() - runs_before;
      if (session.last_publish().path != engine::PublishPath::kEraseSplice) {
        std::fprintf(stderr, "erase splice not taken in run %d\n", r);
        ++skipped_splices;
      }
      engine::Session fresh = eng.session(dg);  // full pipeline baseline
      before = ctx.launch_count();
      timer.reset();
      fresh.refresh();
      full_total += timer.seconds();
      full_launches += ctx.launch_count() - before;
    }
    record("publish_erase", kBurst, splice_total / runs,
           splice_launches / runs);
    record("publish_erase_full", kBurst, full_total / runs,
           full_launches / runs);
    erase_ratio = splice_total / full_total;
  }

  // ---- link publish: the base grid is one component by now, so these
  // rows run on a sparser grid of many components (each grid edge kept
  // with probability 1/2). Each run inserts a batch whose every edge joins
  // two components no other insert touches, so every one links two trees.
  // The session replays it and splices the links into the previous epoch's
  // forest and forest LCA (no forest CC, no tour sort, no list ranking);
  // the full side is a fresh session at the SAME epoch. --check pins the
  // link publish below 75% of the full publish.
  double link_ratio = 0;
  std::size_t skipped_links = 0;
  {
    constexpr std::size_t kLinks = 1u << 8;
    dynamic::DynamicGraph sparse(ctx,
                                 gen::road_graph(side, side, 0.5, 0.03, 11));
    engine::Session sparse_session = eng.session(sparse);
    const auto cc = graph::connected_component_labels(sparse.snapshot());
    std::printf("link publish: %zu edges, %zu components\n\n",
                sparse.num_edges(), graph::count_components(cc));
    std::vector<std::uint8_t> used(n, 0);  // per component label
    double link_total = 0, full_total = 0;
    std::uint64_t link_launches = 0, full_launches = 0;
    for (int r = 0; r < runs; ++r) {
      sparse_session.refresh();  // make the previous epoch's index current
      std::vector<graph::Edge> links;
      NodeId end = kNoNode;
      for (std::size_t tries = 0; links.size() < kLinks && tries < 64 * kLinks;
           ++tries) {
        const auto v = static_cast<NodeId>(rng.below(n));
        if (used[cc[v]] != 0) continue;
        used[cc[v]] = 1;
        if (end == kNoNode) {
          end = v;
        } else {
          links.push_back({end, v});
          end = kNoNode;
        }
      }
      sparse.insert_edges(ctx, links);
      std::uint64_t before = ctx.launch_count();
      util::Timer timer;
      sparse_session.refresh();
      link_total += timer.seconds();
      link_launches += ctx.launch_count() - before;
      if (links.size() < kLinks ||
          sparse_session.last_publish().path != engine::PublishPath::kReplay) {
        std::fprintf(stderr, "link replay of %zu links not taken in run %d\n",
                     links.size(), r);
        ++skipped_links;
      }
      engine::Session fresh = eng.session(sparse);  // full pipeline baseline
      before = ctx.launch_count();
      timer.reset();
      fresh.refresh();
      full_total += timer.seconds();
      full_launches += ctx.launch_count() - before;
    }
    record("publish_link", kLinks, link_total / runs, link_launches / runs);
    record("publish_link_full", kLinks, full_total / runs,
           full_launches / runs);
    link_ratio = link_total / full_total;
  }

  // ---- query batches: one kernel per batch on the device route; the auto
  // route shows what the policy's batch-size threshold does instead.
  for (const std::size_t batch_size : {1u << 10, 1u << 15, 1u << 20}) {
    const engine::Same2Ecc same = random_queries(rng, n, batch_size);
    engine::BridgesOnPath dist;
    dist.pairs = same.pairs;
    std::uint64_t before = ctx.launch_count();
    const double same_secs =
        bench::time_avg(runs, [&] { session.run(same, device_route); });
    record("query_same_2ecc", batch_size, same_secs,
           (ctx.launch_count() - before) / runs);
    before = ctx.launch_count();
    const double path_secs =
        bench::time_avg(runs, [&] { session.run(dist, device_route); });
    record("query_bridges_on_path", batch_size, path_secs,
           (ctx.launch_count() - before) / runs);
    before = ctx.launch_count();
    const double auto_secs =
        bench::time_avg(runs, [&] { session.run(same); });
    // Label the committed row by the route auto actually took: below the
    // launch-overhead threshold the batch is served as a host loop.
    const std::uint64_t auto_launches = (ctx.launch_count() - before) / runs;
    record("query_same_2ecc_auto", batch_size, auto_secs, auto_launches,
           auto_launches == 0 ? "host" : "gpu");
  }

  // ---- steady-state mixes: updates and queries interleaved
  const std::vector<std::tuple<std::size_t, std::size_t, const char*>> mixes =
      {{1u << 12, 1u << 16, "mix_1:16"}, {1u << 14, 1u << 14, "mix_1:1"}};
  for (const auto& [updates_per_round, queries_per_round, label] : mixes) {
    double total = 0;
    std::size_t served = 0;
    const std::uint64_t before = ctx.launch_count();
    for (int r = 0; r < runs; ++r) {
      auto inserts = random_batch(rng, n, updates_per_round);
      const engine::Same2Ecc same = random_queries(rng, n, queries_per_round);
      engine::BridgesOnPath paths;
      paths.pairs = same.pairs;
      util::Timer timer;
      dg.insert_edges(ctx, inserts);
      session.run(same, device_route);
      session.run(paths, device_route);
      total += timer.seconds();
      served += updates_per_round + 2 * queries_per_round;
    }
    record(label, served / runs, total / runs,
           (ctx.launch_count() - before) / runs);
  }

  table.print();
  if (!bench::write_bench_json("BENCH_dynamic.json", rows)) {
    std::fprintf(stderr, "failed to write BENCH_dynamic.json\n");
    return 1;
  }
  if (check && skipped_replays > 0) {
    std::fprintf(stderr,
                 "check FAILED: %zu incremental rows did not replay\n",
                 skipped_replays);
    return 1;
  }
  if (check && worst_publish_ratio > 0.10) {
    std::fprintf(stderr,
                 "check FAILED: incremental publish cost %.1f%% of a full "
                 "publish (gate: <= 10%%)\n", 100 * worst_publish_ratio);
    return 1;
  }
  if (check && skipped_splices > 0) {
    std::fprintf(stderr, "check FAILED: %zu erase publishes did not splice\n",
                 skipped_splices);
    return 1;
  }
  if (check && erase_backend_runs > 0) {
    std::fprintf(stderr,
                 "check FAILED: erase publishes ran %zu bridge backends "
                 "(gate: 0)\n", erase_backend_runs);
    return 1;
  }
  if (check && erase_ratio > 0.75) {
    std::fprintf(stderr,
                 "check FAILED: erase publish cost %.1f%% of a full publish "
                 "(gate: <= 75%%)\n", 100 * erase_ratio);
    return 1;
  }
  if (check && skipped_links > 0) {
    std::fprintf(stderr,
                 "check FAILED: %zu link publishes did not replay %zu links\n",
                 skipped_links, std::size_t{1} << 8);
    return 1;
  }
  if (check && link_ratio > 0.75) {
    std::fprintf(stderr,
                 "check FAILED: link publish cost %.1f%% of a full publish "
                 "(gate: <= 75%%)\n", 100 * link_ratio);
    return 1;
  }
  if (check) {
    std::printf("\ncheck ok: worst incremental/full publish ratio %.2f%%, "
                "erase/full publish ratio %.1f%%, link/full publish ratio "
                "%.1f%%\n",
                100 * worst_publish_ratio, 100 * erase_ratio,
                100 * link_ratio);
  }
  return 0;
}
