// The streaming write path: ring admission, adaptive batching, and the
// writer thread that applies batches and publishes epochs.
//
// Four pillars:
//   admission pins — the ring's ledger (submitted == accepted + rejected +
//     cancelled) holds under every policy, Block applies backpressure and
//     loses nothing, ShedOldest evicts the globally oldest waiter;
//   batcher pins — batches are kind-homogeneous in commit order, cut at
//     max_batch, canonicalized (u < v, sorted, deduplicated), and the
//     linger window adapts to queue depth with the documented clamp;
//   pipeline pins — paced publishing leaves a measurable lag that flush()
//     clears, an attached Dispatcher reflects that lag in staleness, and
//     insert-only stretches reach the oracle's incremental-refresh path
//     (rebuilds stay flat) and ride one edge log;
//   differential fuzz — N producers race random insert/erase streams while
//     readers query through a Dispatcher; the final edge set and every
//     per-epoch answer must match a from-scratch reference replay of the
//     commit order, and every accepted update is applied exactly once.
//     This is the suite the TSan CI job leans on for the write path.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "engine/engine.hpp"
#include "gen/graphs.hpp"
#include "graph/graph.hpp"
#include "ingest/ingest.hpp"
#include "ingest/update_queue.hpp"
#include "serve/serve.hpp"
#include "support/fuzz_env.hpp"
#include "support/reference.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace emc::ingest {
namespace {

using engine::Engine;
using engine::Session;
using graph::Edge;
using graph::EdgeList;
using test_support::ReferenceOracle;

namespace failpoint = util::failpoint;

using CanonicalEdgeSet = std::set<std::pair<NodeId, NodeId>>;

CanonicalEdgeSet edge_set(graph::EdgeSpan g) {
  CanonicalEdgeSet out;
  for (const Edge& e : g.edges) {
    out.insert({std::min(e.u, e.v), std::max(e.u, e.v)});
  }
  return out;
}

EdgeList to_edge_list(NodeId num_nodes, const CanonicalEdgeSet& set) {
  EdgeList g;
  g.num_nodes = num_nodes;
  g.edges.reserve(set.size());
  for (const auto& [u, v] : set) g.edges.push_back({u, v});
  return g;
}

/// Applies one canonical batch to a reference edge set with the graph
/// layer's simple-graph semantics (self-loops and absent/present no-ops
/// vanish). This is the independent replay the differential suites diff
/// the DynamicGraph against.
void replay(CanonicalEdgeSet& set, UpdateKind kind,
            const std::vector<Edge>& edges) {
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;
    const std::pair<NodeId, NodeId> key{std::min(e.u, e.v),
                                        std::max(e.u, e.v)};
    if (kind == UpdateKind::kInsert) {
      set.insert(key);
    } else {
      set.erase(key);
    }
  }
}

Update make_update(NodeId u, NodeId v, UpdateKind kind,
                   std::uint32_t producer = 0) {
  Update up;
  up.edge = {u, v};
  up.kind = kind;
  up.producer = producer;
  return up;
}

// ---------------------------------------------------------------------------
// Admission: the ring's ledger under each policy.
// ---------------------------------------------------------------------------

TEST(IngestQueue, RejectPolicyRefusesOverflowAndKeepsTheLedger) {
  UpdateQueue queue(/*bound=*/4, Admission::kReject);
  std::vector<Update> burst;
  for (NodeId i = 0; i < 6; ++i) {
    burst.push_back(make_update(i, i + 1, UpdateKind::kInsert));
  }
  EXPECT_EQ(queue.push(burst), 4u);

  const UpdateQueue::Stats s = queue.stats();
  EXPECT_EQ(s.submitted, 6u);
  EXPECT_EQ(s.accepted, 4u);
  EXPECT_EQ(s.rejected, 2u);
  EXPECT_EQ(s.shed, 0u);
  EXPECT_EQ(s.submitted, s.accepted + s.rejected + s.cancelled);
  EXPECT_EQ(queue.depth(), 4u);

  // The survivors are the FIRST four — Reject refuses the overflow, it
  // never displaces admitted work.
  std::vector<UpdateQueue::Queued> got;
  queue.pop_wait(got, 8, UpdateQueue::Clock::now());
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].update.edge.u, static_cast<NodeId>(i));
  }
}

TEST(IngestQueue, ShedOldestEvictsTheGloballyOldestWaiter) {
  UpdateQueue queue(/*bound=*/4, Admission::kShedOldest);
  std::vector<Update> burst;
  for (NodeId i = 0; i < 6; ++i) {
    burst.push_back(make_update(i, i + 1, UpdateKind::kInsert));
  }
  // All six are accepted; admitting the last two sheds the two oldest.
  EXPECT_EQ(queue.push(burst), 6u);

  const UpdateQueue::Stats s = queue.stats();
  EXPECT_EQ(s.submitted, 6u);
  EXPECT_EQ(s.accepted, 6u);
  EXPECT_EQ(s.shed, 2u);
  EXPECT_EQ(s.rejected, 0u);

  std::vector<UpdateQueue::Queued> got;
  queue.pop_wait(got, 8, UpdateQueue::Clock::now());
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].update.edge.u, static_cast<NodeId>(i + 2))
        << "survivors must be the newest four, in arrival order";
  }
}

TEST(IngestQueue, BlockBackpressuresUntilTheConsumerMakesRoom) {
  UpdateQueue queue(/*bound=*/2, Admission::kBlock);
  constexpr std::size_t kTotal = 24;
  std::thread consumer([&] {
    std::vector<UpdateQueue::Queued> got;
    std::size_t popped = 0;
    while (popped < kTotal) {
      got.clear();
      queue.pop_wait(got, 1,
                     UpdateQueue::Clock::now() + std::chrono::seconds(5));
      popped += got.size();
    }
  });
  for (NodeId i = 0; i < static_cast<NodeId>(kTotal); ++i) {
    const Update up = make_update(i, i + 1, UpdateKind::kInsert);
    EXPECT_EQ(queue.push(&up, 1), 1u);
  }
  consumer.join();

  const UpdateQueue::Stats s = queue.stats();
  EXPECT_EQ(s.accepted, kTotal);
  EXPECT_EQ(s.rejected + s.shed + s.cancelled, 0u);
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_LE(s.max_depth, 2u);
}

TEST(IngestQueue, ClosedQueueCancelsSubmissionsAndKickWakesTheConsumer) {
  UpdateQueue queue(/*bound=*/8, Admission::kBlock);
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    std::vector<UpdateQueue::Queued> got;
    // A kick must wake this long wait well before the deadline.
    queue.pop_wait(got, 8,
                   UpdateQueue::Clock::now() + std::chrono::seconds(30));
    EXPECT_TRUE(got.empty());
    woke = true;
  });
  // A kick fired before the consumer reaches its wait is consumed by that
  // entry's mark — keep kicking until the wake is observed.
  while (!woke) {
    queue.kick();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  consumer.join();

  queue.close();
  EXPECT_TRUE(queue.closed());
  const Update up = make_update(1, 2, UpdateKind::kInsert);
  EXPECT_EQ(queue.push(&up, 1), 0u);
  const UpdateQueue::Stats s = queue.stats();
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.submitted, s.accepted + s.rejected + s.cancelled);
}

// ---------------------------------------------------------------------------
// Batcher: cutting rules and canonical form.
// ---------------------------------------------------------------------------

TEST(IngestBatcher, CutsAtMaxBatchAndCanonicalizes) {
  UpdateQueue queue(/*bound=*/64, Admission::kBlock);
  Batcher batcher(queue, {.max_batch = 8, .linger = std::chrono::hours(1),
                          .adaptive_linger = false});

  // Eight raw updates: reversed duplicates and a repeat collapse to five
  // canonical edges; raw_updates still counts all eight.
  const std::array<std::pair<NodeId, NodeId>, 8> raw = {
      {{5, 2}, {1, 3}, {3, 1}, {2, 5}, {4, 0}, {1, 3}, {9, 8}, {6, 7}}};
  std::vector<Update> ups;
  for (const auto& [u, v] : raw) {
    ups.push_back(make_update(u, v, UpdateKind::kInsert));
  }
  ASSERT_EQ(queue.push(ups), 8u);

  Batch batch;
  // max_batch worth of updates is waiting: the cut must not wait for the
  // (huge) linger.
  ASSERT_EQ(batcher.next(batch, UpdateQueue::Clock::now()),
            Batcher::Poll::kBatch);
  EXPECT_EQ(batch.kind, UpdateKind::kInsert);
  EXPECT_EQ(batch.raw_updates, 8u);
  const std::vector<Edge> want = {{0, 4}, {1, 3}, {2, 5}, {6, 7}, {8, 9}};
  ASSERT_EQ(batch.edges.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(batch.edges[i].u, want[i].u) << i;
    EXPECT_EQ(batch.edges[i].v, want[i].v) << i;
  }
}

TEST(IngestBatcher, SegregatesKindsPreservingCommitOrder) {
  UpdateQueue queue(/*bound=*/64, Admission::kBlock);
  Batcher batcher(queue, {.max_batch = 64, .linger = std::chrono::microseconds(0)});

  const std::array<UpdateKind, 6> kinds = {
      UpdateKind::kInsert, UpdateKind::kInsert, UpdateKind::kInsert,
      UpdateKind::kErase,  UpdateKind::kErase,  UpdateKind::kInsert};
  std::vector<Update> ups;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    ups.push_back(make_update(static_cast<NodeId>(i),
                              static_cast<NodeId>(i + 10), kinds[i]));
  }
  ASSERT_EQ(queue.push(ups), ups.size());

  // I I I | E E | I — three kind-homogeneous batches, in stream order.
  const std::array<std::pair<UpdateKind, std::size_t>, 3> want = {
      {{UpdateKind::kInsert, 3}, {UpdateKind::kErase, 2},
       {UpdateKind::kInsert, 1}}};
  for (const auto& [kind, count] : want) {
    Batch batch;
    ASSERT_EQ(batcher.next(batch, UpdateQueue::Clock::now()),
              Batcher::Poll::kBatch);
    EXPECT_EQ(batch.kind, kind);
    EXPECT_EQ(batch.raw_updates, count);
  }
  EXPECT_EQ(batcher.carried(), 0u);
}

TEST(IngestBatcher, ZeroLingerIsOpportunistic) {
  UpdateQueue queue(/*bound=*/64, Admission::kBlock);
  Batcher batcher(queue, {.max_batch = 1024,
                          .linger = std::chrono::microseconds(0)});
  std::vector<Update> ups = {make_update(1, 2, UpdateKind::kInsert),
                             make_update(3, 4, UpdateKind::kInsert)};
  ASSERT_EQ(queue.push(ups), 2u);

  // Far below max_batch, but linger 0 means "cut whatever is waiting".
  Batch batch;
  ASSERT_EQ(batcher.next(batch,
                         UpdateQueue::Clock::now() + std::chrono::seconds(5)),
            Batcher::Poll::kBatch);
  EXPECT_EQ(batch.raw_updates, 2u);
}

TEST(IngestBatcher, AdaptiveLingerFollowsTheDocumentedClamp) {
  UpdateQueue queue(/*bound=*/64, Admission::kBlock);
  const std::chrono::microseconds linger(400);
  Batcher batcher(queue, {.max_batch = 100, .linger = linger});

  // scale = clamp(2 * depth / max_batch, 0.25, 4.0), applied as a divisor:
  // an empty pipeline stretches the window to 4x, a deep backlog shrinks
  // it to a quarter.
  EXPECT_EQ(batcher.effective_linger(0), 4 * linger);
  EXPECT_EQ(batcher.effective_linger(50), linger);
  EXPECT_EQ(batcher.effective_linger(1000), linger / 4);

  Batcher fixed(queue, {.max_batch = 100, .linger = linger,
                        .adaptive_linger = false});
  EXPECT_EQ(fixed.effective_linger(0), linger);
  EXPECT_EQ(fixed.effective_linger(1000), linger);
}

TEST(IngestBatcher, DrainsCarriedUpdatesBeforeReportingClosed) {
  UpdateQueue queue(/*bound=*/64, Admission::kBlock);
  Batcher batcher(queue, {.max_batch = 64, .linger = std::chrono::hours(1),
                          .adaptive_linger = false});
  std::vector<Update> ups = {make_update(1, 2, UpdateKind::kInsert),
                             make_update(2, 3, UpdateKind::kErase)};
  ASSERT_EQ(queue.push(ups), 2u);
  queue.close();

  Batch batch;
  ASSERT_EQ(batcher.next(batch, UpdateQueue::Clock::now()),
            Batcher::Poll::kBatch);
  EXPECT_EQ(batch.kind, UpdateKind::kInsert);
  ASSERT_EQ(batcher.next(batch, UpdateQueue::Clock::now()),
            Batcher::Poll::kBatch);
  EXPECT_EQ(batch.kind, UpdateKind::kErase);
  EXPECT_EQ(batcher.next(batch, UpdateQueue::Clock::now()),
            Batcher::Poll::kClosed);
}

// ---------------------------------------------------------------------------
// Pipeline: apply, pacing, lag, and the incremental fast path.
// ---------------------------------------------------------------------------

TEST(IngestorPipeline, AppliesAndPublishesEveryBatchByDefault) {
  Engine engine({.device_workers = 2});
  dynamic::DynamicGraph dg(engine.device(), gen::cycle_graph(32));
  Session session = engine.session(dg);
  session.refresh();

  IngestorOptions opt;
  opt.queue_bound = 64;
  opt.max_batch = 16;
  opt.linger = std::chrono::microseconds(0);
  opt.publish_every = 1;
  Ingestor ingestor(engine, dg, session, opt);

  ASSERT_EQ(ingestor.insert({{0, 2}, {1, 3}, {4, 7}}), 3u);
  ingestor.flush();
  EXPECT_EQ(ingestor.lag(), 0u);

  const IngestorStats s = ingestor.stats();
  EXPECT_EQ(s.accepted, 3u);
  EXPECT_EQ(s.applied, 3u);
  EXPECT_EQ(s.applied_effective, 3u);
  EXPECT_GE(s.publishes, 1u);
  EXPECT_EQ(s.published_epoch, s.graph_epoch);
  ingestor.stop();

  EXPECT_TRUE(dg.has_edge(0, 2));
  EXPECT_TRUE(dg.has_edge(1, 3));
  EXPECT_TRUE(dg.has_edge(4, 7));
}

TEST(IngestorPipeline, PacedPublishingBuildsLagAndFlushClearsIt) {
  Engine engine({.device_workers = 2});
  dynamic::DynamicGraph dg(engine.device(), gen::cycle_graph(64));
  Session session = engine.session(dg);
  session.refresh();
  const std::uint64_t epoch0 = dg.epoch();

  IngestorOptions opt;
  opt.queue_bound = 256;
  opt.max_batch = 4;
  opt.linger = std::chrono::microseconds(0);
  // Batch count never triggers a publish, and the idle flush is pushed out
  // far beyond the test: lag accumulates until flush() forces it out.
  opt.publish_every = std::numeric_limits<std::size_t>::max();
  opt.idle_publish = std::chrono::hours(1);
  Ingestor ingestor(engine, dg, session, opt);

  std::vector<Edge> chords;
  for (NodeId i = 0; i < 16; ++i) chords.push_back({i, static_cast<NodeId>(i + 2)});
  ASSERT_EQ(ingestor.insert(chords), chords.size());
  ingestor.drain();

  // Everything applied, nothing published: the gap IS the lag.
  IngestorStats s = ingestor.stats();
  EXPECT_EQ(s.applied, chords.size());
  EXPECT_EQ(s.publishes, 0u);
  EXPECT_EQ(s.lag, chords.size());
  EXPECT_GT(s.graph_epoch, epoch0);
  EXPECT_EQ(s.published_epoch, epoch0);

  ingestor.flush();
  s = ingestor.stats();
  EXPECT_EQ(s.lag, 0u);
  EXPECT_EQ(s.publishes, 1u);
  EXPECT_EQ(s.published_epoch, s.graph_epoch);
  ingestor.stop();
}

TEST(IngestorPipeline, InsertOnlyStretchTakesTheIncrementalPath) {
  Engine engine({.device_workers = 2});
  dynamic::DynamicGraph dg(engine.device(), gen::cycle_graph(64));
  Session session = engine.session(dg);
  session.refresh();  // build the epoch-0 artifacts, oracle included
  const std::uint64_t epoch0 = dg.epoch();
  const std::size_t builds0 = engine.stats().artifact_builds;

  IngestorOptions opt;
  opt.queue_bound = 256;
  opt.max_batch = 8;
  opt.linger = std::chrono::microseconds(0);
  opt.publish_every = 1;
  opt.start_paused = true;
  Ingestor ingestor(engine, dg, session, opt);

  // An insert-only stream of fresh chords: every batch the batcher cuts is
  // insert-only, so every published epoch is an insert-only delta.
  std::vector<Edge> chords;
  for (NodeId i = 0; i < 24; ++i) chords.push_back({i, static_cast<NodeId>(i + 5)});
  ASSERT_EQ(ingestor.insert(chords), chords.size());
  ingestor.resume();
  ingestor.flush();
  ingestor.stop();

  const IngestorStats s = ingestor.stats();
  EXPECT_EQ(s.applied, chords.size());
  EXPECT_EQ(s.erase_batches, 0u);
  EXPECT_GE(s.publishes, 1u);

  // Every insert-only epoch's snapshot came from the one edge log built at
  // construction (it still covers epoch 0, holding exactly the applied
  // chords after it), and no publish built an artifact — in particular no
  // Csr, which only a request that reads one builds.
  const auto appended = dg.inserted_since(epoch0);
  ASSERT_TRUE(appended.has_value());
  EXPECT_EQ(appended->size(), chords.size());
  EXPECT_EQ(engine.stats().artifact_builds, builds0);
  // And the SESSION published those epochs by delta replay, not rebuild —
  // the whole artifact set rode the incremental path, end to end.
  EXPECT_GT(session.publish_replays(), 0u);
  EXPECT_EQ(session.publish_rebuilds(), 1u);  // the epoch-0 build only
}

TEST(IngestorPipeline, FailedPublishRetriesOnTheFloorNotTheIdleFlush) {
  Engine engine({.device_workers = 2});
  dynamic::DynamicGraph dg(engine.device(), gen::cycle_graph(32));
  Session session = engine.session(dg);

  IngestorOptions opt;
  opt.queue_bound = 64;
  opt.max_batch = 16;
  opt.linger = std::chrono::microseconds(0);
  opt.publish_every = 1;
  // The regression: with a ZERO pacing interval, a failed publish used to
  // re-arm only the idle flush — parking a publishable backlog for the
  // whole idle_publish window. Post-fix the retry lands on the
  // kPublishRetryFloor (~1ms), so an hour-long idle window is irrelevant.
  opt.publish_min_interval = std::chrono::microseconds(0);
  opt.idle_publish = std::chrono::hours(1);
  opt.start_paused = true;
  Ingestor ingestor(engine, dg, session, opt);

  std::atomic<int> attempts{0};
  ingestor.set_publisher([&](engine::Session& s) {
    if (attempts.fetch_add(1) == 0) return false;  // first attempt fails
    s.refresh();
    return true;
  });

  ASSERT_EQ(ingestor.insert({{0, 5}, {1, 9}}), 2u);
  const auto started = std::chrono::steady_clock::now();
  ingestor.resume();
  while (ingestor.stats().publishes == 0 &&
         std::chrono::steady_clock::now() - started < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto elapsed = std::chrono::steady_clock::now() - started;
  const IngestorStats s = ingestor.stats();
  EXPECT_GE(s.publish_failures, 1u);  // the injected failure really fired
  EXPECT_GE(s.publishes, 1u) << "retry never landed";
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  ingestor.stop();
  EXPECT_EQ(ingestor.published_epoch(), dg.epoch());
}

TEST(IngestorStats, LagGaugeNeverWrapsUnderConcurrentReaders) {
  Engine engine({.device_workers = 2});
  dynamic::DynamicGraph dg(engine.device(), gen::cycle_graph(64));
  Session session = engine.session(dg);

  // ShedOldest keeps producers unblocked, so the admission ledger and the
  // publish counters move under their different locks as fast as possible
  // while readers poll the gauge.
  IngestorOptions opt;
  opt.queue_bound = 32;
  opt.admission = Admission::kShedOldest;
  opt.max_batch = 8;
  opt.linger = std::chrono::microseconds(0);
  opt.publish_every = 1;
  Ingestor ingestor(engine, dg, session, opt);

  // The regression: lag is accepted - shed - published with the two sides
  // under DIFFERENT locks; a torn read pair used to wrap to ~2^64. The
  // saturating gauge may transiently read 0, never garbage.
  std::atomic<bool> done{false};
  std::atomic<std::size_t> wrapped{0};
  std::thread poller([&] {
    while (!done.load(std::memory_order_relaxed)) {
      if (ingestor.lag() > (std::size_t{1} << 60)) ++wrapped;
      if (ingestor.stats().lag > (std::size_t{1} << 60)) ++wrapped;
    }
  });
  util::Rng rng(17);
  for (int burst = 0; burst < 200; ++burst) {
    std::vector<Edge> edges;
    for (int i = 0; i < 16; ++i) {
      edges.push_back({static_cast<NodeId>(rng.below(64)),
                       static_cast<NodeId>(rng.below(64))});
    }
    ingestor.insert(edges);
  }
  ingestor.flush();
  done.store(true);
  poller.join();
  ingestor.stop();
  EXPECT_EQ(wrapped.load(), 0u);
  const IngestorStats s = ingestor.stats();
  EXPECT_EQ(s.lag, 0u);  // quiesced: everything accepted was published
  EXPECT_EQ(s.accepted, s.shed + s.applied);
}

TEST(IngestorPipeline, AttachedDispatcherReflectsIngestLagAsStaleness) {
  Engine engine({.device_workers = 2});
  dynamic::DynamicGraph dg(engine.device(), gen::cycle_graph(64));
  Session session = engine.session(dg);

  IngestorOptions opt;
  opt.queue_bound = 256;
  opt.max_batch = 4;
  opt.linger = std::chrono::microseconds(0);
  opt.publish_every = std::numeric_limits<std::size_t>::max();
  opt.idle_publish = std::chrono::hours(1);
  opt.start_paused = true;
  Ingestor ingestor(engine, dg, session, opt);  // declared before the Dispatcher

  serve::DispatcherOptions dopt;
  dopt.workers = 1;
  serve::Dispatcher dispatcher(session.view(), dopt);
  dispatcher.attach_ingestor(ingestor);
  ingestor.resume();

  std::vector<Edge> chords;
  for (NodeId i = 0; i < 8; ++i) chords.push_back({i, static_cast<NodeId>(i + 2)});
  ASSERT_EQ(ingestor.insert(chords), chords.size());
  ingestor.drain();

  // Applied-but-unpublished epochs are visible: the stats gauge carries the
  // lag and replies stamp the real staleness, not 0.
  serve::DispatcherStats before = dispatcher.stats();
  EXPECT_EQ(before.ingest_lag, chords.size());
  EXPECT_GT(before.staleness, 0u);
  auto reply = dispatcher.submit(engine::Same2Ecc{{{0, 1}}}).get();
  ASSERT_EQ(reply.status, serve::Status::kOk);
  EXPECT_GT(reply.staleness, 0u);

  // flush() routes the publish through the dispatcher: the serving view
  // catches up and both gauges drop to zero.
  ingestor.flush();
  serve::DispatcherStats after = dispatcher.stats();
  EXPECT_EQ(after.ingest_lag, 0u);
  EXPECT_EQ(after.staleness, 0u);
  EXPECT_EQ(dispatcher.current_view().epoch(), dg.epoch());
  auto fresh = dispatcher.submit(engine::Same2Ecc{{{0, 1}}}).get();
  ASSERT_EQ(fresh.status, serve::Status::kOk);
  EXPECT_EQ(fresh.staleness, 0u);

  ingestor.stop();  // before the Dispatcher goes away (it owns the publisher)
  dispatcher.stop();
}

// ---------------------------------------------------------------------------
// Differential fuzz: racing producers, concurrent readers, replayed truth.
// ---------------------------------------------------------------------------

/// One applied batch as the on_apply hook observed it — the commit order
/// ground truth the references replay.
struct Commit {
  UpdateKind kind;
  std::vector<Edge> edges;
  std::size_t raw_updates;
  std::uint64_t epoch_after;
};

TEST(IngestFuzz, MultiProducerStreamMatchesCommitOrderReplay) {
  const auto fuzz = test_support::fuzz_run(/*seed=*/1207, /*rounds=*/24);
  SCOPED_TRACE(fuzz.trace);
  constexpr NodeId kNodes = 128;
  constexpr std::uint32_t kProducers = 3;

  Engine engine({.device_workers = 2});
  const device::Context ref_ctx = device::Context::sequential();
  dynamic::DynamicGraph dg(engine.device(),
                           gen::er_graph(kNodes, 200, fuzz.seed));
  Session session = engine.session(dg);
  session.refresh();
  const std::uint64_t epoch0 = dg.epoch();
  const CanonicalEdgeSet initial = edge_set(dg.snapshot());

  // The commit log is written by the writer thread only and read after
  // stop() joins it.
  std::vector<Commit> log;
  IngestorOptions opt;
  opt.queue_bound = 512;
  opt.admission = Admission::kBlock;  // exact-once: nothing may be dropped
  opt.max_batch = 32;
  opt.linger = std::chrono::microseconds(100);
  opt.publish_every = 1;
  opt.start_paused = true;
  opt.on_apply = [&log](const Batch& b, std::uint64_t epoch_after,
                        std::size_t /*effective*/) {
    log.push_back({b.kind, b.edges, b.raw_updates, epoch_after});
  };
  Ingestor ingestor(engine, dg, session, opt);

  serve::DispatcherOptions dopt;
  dopt.workers = 2;
  serve::Dispatcher dispatcher(session.view(), dopt);
  dispatcher.attach_ingestor(ingestor);
  ingestor.resume();

  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      util::Rng rng(fuzz.seed * 97 + p);
      for (int round = 0; round < fuzz.rounds; ++round) {
        std::vector<Update> burst;
        for (int i = 0; i < 8; ++i) {
          const auto kind =
              rng.below(4) == 0 ? UpdateKind::kErase : UpdateKind::kInsert;
          burst.push_back(make_update(static_cast<NodeId>(rng.below(kNodes)),
                                      static_cast<NodeId>(rng.below(kNodes)),
                                      kind, p));
        }
        ASSERT_EQ(ingestor.submit(burst), burst.size());
      }
    });
  }

  // Concurrent readers on the main thread: epoch-stamped answers collected
  // while the writers race.
  struct PendingSame {
    engine::Same2Ecc request;
    std::future<serve::Reply<std::vector<std::uint8_t>>> future;
  };
  std::vector<PendingSame> pending;
  util::Rng rng(fuzz.seed * 131 + 5);
  for (int round = 0; round < fuzz.rounds; ++round) {
    engine::Same2Ecc same;
    for (int q = 0; q < 4; ++q) {
      same.pairs.push_back({static_cast<NodeId>(rng.below(kNodes)),
                            static_cast<NodeId>(rng.below(kNodes))});
    }
    auto future = dispatcher.submit(engine::Same2Ecc{same});
    pending.push_back({std::move(same), std::move(future)});
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  for (std::thread& t : producers) t.join();
  ingestor.flush();
  ingestor.stop();       // before the Dispatcher: it owns the publish hook
  dispatcher.stop();     // drains every pending reader future

  // Exact-once ledger: with Block admission every submitted update was
  // accepted, and every accepted update was applied in exactly one batch.
  const IngestorStats s = ingestor.stats();
  const std::size_t pushed =
      static_cast<std::size_t>(kProducers) * fuzz.rounds * 8;
  EXPECT_EQ(s.submitted, pushed);
  EXPECT_EQ(s.accepted, pushed);
  EXPECT_EQ(s.shed + s.rejected + s.cancelled, 0u);
  EXPECT_EQ(s.applied, pushed);
  EXPECT_EQ(s.lag, 0u);
  std::size_t raw_in_log = 0;
  for (const Commit& c : log) raw_in_log += c.raw_updates;
  EXPECT_EQ(raw_in_log, pushed);

  // The final graph equals the independent replay of the commit order.
  CanonicalEdgeSet ref = initial;
  for (const Commit& c : log) replay(ref, c.kind, c.edges);
  EXPECT_EQ(edge_set(dg.snapshot()), ref);

  // Every answer matches the reference of its OWN epoch, rebuilt from the
  // commit-log prefix that produced that epoch.
  std::map<std::uint64_t, CanonicalEdgeSet> at_epoch;
  at_epoch[epoch0] = initial;
  CanonicalEdgeSet running = initial;
  for (const Commit& c : log) {
    replay(running, c.kind, c.edges);
    at_epoch[c.epoch_after] = running;  // later same-epoch entries win
  }
  std::map<std::uint64_t, std::unique_ptr<ReferenceOracle>> refs;
  for (PendingSame& item : pending) {
    ASSERT_EQ(item.future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "a future was abandoned";
    const auto reply = item.future.get();
    ASSERT_EQ(reply.status, serve::Status::kOk);
    ASSERT_TRUE(at_epoch.count(reply.epoch)) << "unknown serving epoch";
    auto& oracle = refs[reply.epoch];
    if (!oracle) {
      oracle = std::make_unique<ReferenceOracle>(
          ref_ctx, to_edge_list(kNodes, at_epoch[reply.epoch]));
    }
    for (std::size_t q = 0; q < item.request.pairs.size(); ++q) {
      const auto [u, v] = item.request.pairs[q];
      ASSERT_EQ(reply.value[q] != 0, oracle->comp[u] == oracle->comp[v])
          << "epoch " << reply.epoch << " " << u << "," << v;
    }
  }
}

TEST(IngestFuzz, ShedOldestLedgerBalancesUnderOverload) {
  const auto fuzz = test_support::fuzz_run(/*seed=*/2203, /*rounds=*/32);
  SCOPED_TRACE(fuzz.trace);
  constexpr NodeId kNodes = 96;

  Engine engine({.device_workers = 2});
  dynamic::DynamicGraph dg(engine.device(), gen::cycle_graph(kNodes));
  Session session = engine.session(dg);
  session.refresh();
  const CanonicalEdgeSet initial = edge_set(dg.snapshot());

  std::vector<Commit> log;
  IngestorOptions opt;
  opt.queue_bound = 32;  // tiny ring: overload must shed, not stall
  opt.admission = Admission::kShedOldest;
  opt.max_batch = 32;
  opt.linger = std::chrono::microseconds(0);
  opt.publish_every = std::numeric_limits<std::size_t>::max();
  opt.idle_publish = std::chrono::hours(1);
  opt.on_apply = [&log](const Batch& b, std::uint64_t epoch_after,
                        std::size_t /*effective*/) {
    log.push_back({b.kind, b.edges, b.raw_updates, epoch_after});
    // Throttle the consumer so the ring genuinely overflows.
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  };
  Ingestor ingestor(engine, dg, session, opt);

  util::Rng rng(fuzz.seed * 17 + 3);
  std::size_t pushed = 0;
  for (int round = 0; round < fuzz.rounds; ++round) {
    std::vector<Update> burst;
    for (int i = 0; i < 64; ++i) {
      const auto kind =
          rng.below(3) == 0 ? UpdateKind::kErase : UpdateKind::kInsert;
      burst.push_back(make_update(static_cast<NodeId>(rng.below(kNodes)),
                                  static_cast<NodeId>(rng.below(kNodes)),
                                  kind));
    }
    pushed += ingestor.submit(burst);
  }
  ingestor.flush();
  ingestor.stop();

  // ShedOldest accepts everything and drops only from the admitted pool:
  // the two sides of the ledger must meet exactly.
  const IngestorStats s = ingestor.stats();
  EXPECT_EQ(s.submitted, static_cast<std::size_t>(fuzz.rounds) * 64);
  EXPECT_EQ(s.accepted, pushed);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_GT(s.shed, 0u) << "a 32-slot ring under a throttled consumer must shed";
  EXPECT_EQ(s.accepted, s.applied + s.shed);
  EXPECT_EQ(s.lag, 0u);

  // Shedding drops updates, never corrupts: the survivors' commit order
  // still replays to the final graph.
  CanonicalEdgeSet ref = initial;
  for (const Commit& c : log) replay(ref, c.kind, c.edges);
  EXPECT_EQ(edge_set(dg.snapshot()), ref);
}

// ---------------------------------------------------------------------------
// Failpoints: publish faults must cost latency, never updates.
// ---------------------------------------------------------------------------

TEST(IngestApplyRetry, AFaultedApplyKeepsItsBatchAndRetriesIt) {
  // The first hit of the site after resume() lands in the writer's first
  // apply: the insert batch faults, stays queued ahead of the erase, and
  // its retry applies both in commit order.
  for (const char* site : {failpoint::kDeviceLaunch, failpoint::kArenaAlloc}) {
    SCOPED_TRACE(site);
    failpoint::disable_all();
    Engine engine({.device_workers = 2});
    dynamic::DynamicGraph dg(engine.device(), gen::er_graph(64, 120, 3));
    Session session = engine.session(dg);
    session.refresh();
    CanonicalEdgeSet want = edge_set(dg.snapshot());
    IngestorOptions opt;
    opt.start_paused = true;
    std::vector<Commit> log;
    opt.on_apply = [&log](const Batch& b, std::uint64_t epoch_after,
                          std::size_t /*effective*/) {
      log.push_back({b.kind, b.edges, b.raw_updates, epoch_after});
    };
    Ingestor ingestor(engine, dg, session, opt);
    const std::vector<Edge> inserts{{0, 63}, {1, 62}, {2, 61}};
    const std::vector<Edge> erases{{0, 63}, dg.snapshot().span().edges[0]};
    ASSERT_EQ(ingestor.insert(inserts), inserts.size());
    ASSERT_EQ(ingestor.erase(erases), erases.size());
    replay(want, UpdateKind::kInsert, inserts);
    replay(want, UpdateKind::kErase, erases);
    // A cold arena, so the apply's first scratch slot is an arena.alloc hit.
    engine.device().arena().release();
    ASSERT_TRUE(failpoint::configure(site, "1"));
    ingestor.resume();
    ingestor.flush();
    ingestor.stop();
    failpoint::disable_all();

    const IngestorStats s = ingestor.stats();
    EXPECT_EQ(s.apply_failures, 1u);
    EXPECT_EQ(s.applied, inserts.size() + erases.size());
    EXPECT_EQ(s.lag, 0u);
    EXPECT_EQ(s.published_epoch, s.graph_epoch);
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].kind, UpdateKind::kInsert);
    EXPECT_EQ(log[1].kind, UpdateKind::kErase);
    EXPECT_EQ(edge_set(dg.snapshot()), want);
  }
}

TEST(IngestFailpoints, EveryUpdateLandsAndEveryFutureResolvesUnderPublishFaults) {
  const auto fuzz = test_support::fuzz_run(/*seed=*/3309, /*rounds=*/24);
  SCOPED_TRACE(fuzz.trace);
  constexpr NodeId kNodes = 128;

  // Re-arm from the environment explicitly (CI pins engine.publish, the
  // engine.snapshot combo and the apply-path sites arena.alloc and
  // device.launch); self-arm engine.publish otherwise. A faulted apply
  // leaves the graph unchanged and the Ingestor keeps its batch and retries
  // it, so every update still lands. The setup (engine, seed graph, first
  // publish, seed view) runs fault-free.
  const char* env_spec = std::getenv("EMC_FAILPOINT");
  const bool env_armed =
      env_spec != nullptr && failpoint::configure_from_string(env_spec) > 0;
  if (!env_armed) {
    failpoint::disable_all();
    ASSERT_TRUE(failpoint::configure(failpoint::kPublish, "0.3"));
  }
  const std::size_t fired_before = failpoint::total_fired();

  // Fault-free setup: the engine, the seed graph and the first publish.
  std::optional<failpoint::ScopedSuspend> setup(std::in_place);
  Engine engine({.device_workers = 2});
  dynamic::DynamicGraph dg(engine.device(),
                           gen::er_graph(kNodes, 220, fuzz.seed));
  Session session = engine.session(dg);
  session.refresh();
  const CanonicalEdgeSet initial = edge_set(dg.snapshot());
  setup.reset();

  std::vector<Commit> log;
  IngestorOptions opt;
  opt.queue_bound = 512;
  opt.admission = Admission::kBlock;
  opt.max_batch = 16;
  opt.linger = std::chrono::microseconds(50);
  opt.publish_every = 1;
  opt.start_paused = true;
  opt.on_apply = [&log](const Batch& b, std::uint64_t epoch_after,
                        std::size_t /*effective*/) {
    log.push_back({b.kind, b.edges, b.raw_updates, epoch_after});
  };
  Ingestor ingestor(engine, dg, session, opt);

  serve::DispatcherOptions dopt;
  dopt.workers = 2;
  engine::View initial_view = [&] {
    failpoint::ScopedSuspend suspend;  // the seed view is setup, not SUT
    return session.view();
  }();
  serve::Dispatcher dispatcher(std::move(initial_view), dopt);
  dispatcher.attach_ingestor(ingestor);
  ingestor.resume();

  std::vector<std::future<serve::Reply<std::vector<std::uint8_t>>>> futures;
  util::Rng rng(fuzz.seed * 41 + 9);
  std::size_t pushed = 0;
  for (int round = 0; round < fuzz.rounds; ++round) {
    std::vector<Update> burst;
    for (int i = 0; i < 8; ++i) {
      const auto kind =
          rng.below(4) == 0 ? UpdateKind::kErase : UpdateKind::kInsert;
      burst.push_back(make_update(static_cast<NodeId>(rng.below(kNodes)),
                                  static_cast<NodeId>(rng.below(kNodes)),
                                  kind));
    }
    pushed += ingestor.submit(burst);
    for (int q = 0; q < 4; ++q) {
      futures.push_back(dispatcher.submit(engine::Same2Ecc{
          {{static_cast<NodeId>(rng.below(kNodes)),
            static_cast<NodeId>(rng.below(kNodes))}}}));
    }
  }

  // Quiesce with faults still live (publishes may fail and retry), then
  // disable and flush: the final publish must land.
  ingestor.drain();
  failpoint::disable_all();
  ingestor.flush();
  ingestor.stop();
  dispatcher.stop();

  const IngestorStats s = ingestor.stats();
  EXPECT_EQ(s.accepted, pushed);
  EXPECT_EQ(s.applied, pushed) << "publish faults must never drop updates";
  EXPECT_EQ(s.lag, 0u);
  EXPECT_EQ(s.published_epoch, s.graph_epoch);
  if (!env_armed) {
    EXPECT_GT(failpoint::total_fired(), fired_before)
        << "engine.publish at p=0.3 over the whole run must have fired";
  }

  CanonicalEdgeSet ref = initial;
  for (const Commit& c : log) replay(ref, c.kind, c.edges);
  EXPECT_EQ(edge_set(dg.snapshot()), ref);

  std::size_t ok = 0;
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "a future was abandoned";
    if (future.get().status == serve::Status::kOk) ++ok;
  }
  EXPECT_GT(ok, 0u) << "the server should keep answering between faults";
}

}  // namespace
}  // namespace emc::ingest
