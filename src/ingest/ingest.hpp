// emc::ingest — the streaming write path: ring buffer -> adaptive batcher
// -> one writer thread applying batches and publishing epochs.
//
// The read side of the serving stack (engine::View, serve::Dispatcher)
// assumes SOMEONE drives the graph: applies update batches and publishes
// fresh epochs. Until now that someone was a hand-rolled loop. This module
// is the production shape of that loop:
//
//   producers ──push()──> UpdateQueue ──drain──> Batcher ──Batch──> Ingestor
//   (any threads)         (bounded ring,         (canonicalize,     (writer
//                          admission policy)      dual threshold,    thread:
//                          kind segregation)      apply + publish)
//
// BATCHER. The graph layer is batch-dynamic: one update batch costs a small
// constant number of kernel launches regardless of batch size, so per-update
// application is launch-bound exactly like per-request queries were before
// the Dispatcher's coalescing — the batcher is the write-side coalescer.
// It cuts a batch when EITHER threshold trips: `max_batch` updates are
// waiting (amortization has saturated), or the oldest waiting update has
// lingered `linger` (latency floor). The linger window ADAPTS to queue
// depth with the same clamp as the Dispatcher's coalescing window
// (scale = clamp(2*depth/max_batch, 0.25, 4.0)), applied as a divisor:
// under backlog the ring itself supplies the batch, so the window shrinks
// toward linger/4 and the pipeline stays apply-bound; when the stream
// trickles it stretches toward 4*linger to buy wider batches. Batches are
// KIND-HOMOGENEOUS: a batch holds only inserts or only erases, cut at every
// kind switch so commit order is preserved — and so insert-only stretches
// of the stream reach the graph as insert-only deltas, the shape the
// Session's delta-replay publish fast-paths (and whose snapshots the
// DynamicGraph's edge log shares without copying). Edges are canonicalized
// host-side (u < v, sorted, within-batch duplicates collapsed) before they
// touch the device.
//
// INGESTOR. One dedicated writer thread owns the DynamicGraph + Session for
// its lifetime (the engine's one-writer contract): it applies each batch,
// then publishes at a configurable PACING — every batch, every N batches
// (`publish_every`), and/or no sooner than `publish_min_interval` since the
// last publish. Pacing decouples apply throughput from publish cost: at 1M
// nodes an epoch publish rebuilds non-oracle artifacts (~1s today) while a
// batch applies in ~ms, so publishing every batch would cap ingest at ~1
// batch/s. The gap between "applied" and "published" is the ingest LAG
// (accepted-but-unpublished updates), reported in Stats and — when the
// Ingestor is attached to a serve::Dispatcher — reflected in every Reply's
// `staleness` field, so paced publishing is visible to readers as bounded
// staleness, not silently hidden. Publishing goes through a pluggable hook:
// the default refreshes the Session; Dispatcher::attach_ingestor() rewires
// it to the dispatcher's one-attempt publish, which on failure keeps the
// previous epoch serving in bounded-staleness mode. The Ingestor is the one
// place a failed publish is retried: a hook that returns false or throws
// is counted in publish_failures and re-armed, so the next pacing trigger
// retries it (the next apply, or a timer floored at kPublishRetryFloor).
// A faulted apply (an allocation or kernel launch failing inside
// insert_edges or erase_edges, which leave the graph as it was) is counted
// in apply_failures, and the writer keeps the batch and retries it every
// kPublishRetryFloor before it cuts the next one: lag, never loss.
//
// Stats ledger (the invariants test_ingest pins):
//   submitted == accepted + rejected + cancelled
//   accepted  == applied + shed + in-flight        (== applied + shed once
//                                                     flush()/stop() drain)
//   lag       == accepted - shed - published       (0 after flush()/stop())
//
// Threading: submit()/insert()/erase() are safe from any producer thread;
// stats()/lag()/graph_epoch() from any thread. The graph and session passed
// to the constructor belong to the writer thread until stop() returns —
// callers must not mutate the graph or drive the session concurrently
// (publishing through an attached Dispatcher is fine: the hook runs on the
// writer thread). An Ingestor attached to a Dispatcher must be stop()ped
// before the Dispatcher is destroyed, and destroyed after it (declare the
// Ingestor first).
//
// Option values with no meaning are clamped at construction: a zero
// queue_bound, max_batch or publish_every acts as 1, a negative linger as 0.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "engine/engine.hpp"
#include "ingest/update_queue.hpp"

namespace emc::ingest {

/// Defaults shared by BatcherOptions and IngestorOptions.
inline constexpr std::size_t kDefaultMaxBatch = 2048;
inline constexpr std::chrono::microseconds kDefaultLinger{200};

/// One kind-homogeneous, canonicalized update batch cut by the Batcher.
struct Batch {
  UpdateKind kind = UpdateKind::kInsert;
  /// Canonical u < v, sorted by edge key, within-batch duplicates dropped.
  std::vector<graph::Edge> edges;
  /// Queued updates this batch consumed (>= edges.size(): duplicates and
  /// the canonicalization collapse count toward the applied ledger).
  std::size_t raw_updates = 0;
  /// Earliest enqueue tick among them — the latency measurement anchor.
  UpdateQueue::Clock::time_point oldest{};
};

struct BatcherOptions {
  std::size_t max_batch = kDefaultMaxBatch;           // 0 acts as 1
  std::chrono::microseconds linger = kDefaultLinger;  // < 0 acts as 0
  bool adaptive_linger = true;  // depth-scaled window (see above)
};

/// Drains an UpdateQueue into Batches (single consumer — the Ingestor's
/// writer thread, or a test driving it directly).
class Batcher {
 public:
  using Clock = UpdateQueue::Clock;

  enum class Poll : std::uint8_t {
    kBatch,    // `out` holds a batch
    kTimeout,  // `deadline` passed (or a kick()) before a batch was due
    kClosed,   // queue closed and fully drained, including carried updates
  };

  Batcher(UpdateQueue& queue, const BatcherOptions& options);

  /// Blocks until a batch is due (either threshold, a kind switch, or end
  /// of stream), the caller's `deadline` passes, or the queue is kicked.
  /// `force` cuts whatever is pending immediately, ignoring the linger
  /// (the flush/stop path). A kick newer than `kick_mark` (default: the
  /// count at entry) counts. Consumer thread only.
  Poll next(Batch& out, Clock::time_point deadline, bool force = false,
            std::optional<std::uint64_t> kick_mark = {});

  /// Updates drained from the queue but not yet cut into a batch.
  std::size_t carried() const { return pending_.size(); }

  /// The depth-adapted linger window (exposed so tests can pin the shape).
  std::chrono::microseconds effective_linger(std::size_t depth) const;

  const BatcherOptions& options() const { return options_; }

 private:
  /// Length of the same-kind prefix of pending_.
  std::size_t prefix_run() const;
  /// Cuts the first `take` pending updates into `out` (canonicalized).
  void cut(Batch& out, std::size_t take);

  UpdateQueue& queue_;
  BatcherOptions options_;
  std::deque<UpdateQueue::Queued> pending_;  // consumer-thread only
  std::vector<UpdateQueue::Queued> scratch_;
};

struct IngestorOptions {
  // --- admission (the ring) ---
  std::size_t queue_bound = 65536;  // ring capacity; 0 acts as 1
  Admission admission = Admission::kBlock;

  // --- batching ---
  std::size_t max_batch = kDefaultMaxBatch;           // 0 acts as 1
  std::chrono::microseconds linger = kDefaultLinger;  // < 0 acts as 0
  bool adaptive_linger = true;

  // --- publish pacing (both gates must pass; see the header comment) ---
  /// Publish after this many applied batches (1 = every batch; 0 acts as
  /// 1); SIZE_MAX = batch count never triggers (publish on min-interval/
  /// flush/stop only).
  std::size_t publish_every = 1;
  /// Publish no sooner than this after the previous publish. 0 = no
  /// minimum interval.
  std::chrono::microseconds publish_min_interval{0};
  /// A backlog of applied-but-unpublished batches never waits longer than
  /// this past the last apply before a publish is forced (so a stream that
  /// goes quiet mid-pacing-cycle still surfaces its updates). 0 = derive
  /// from the linger (max(4*linger, 1ms)).
  std::chrono::microseconds idle_publish{0};

  // --- lifecycle / test hooks ---
  /// Construct with the writer thread parked until resume() — lets tests
  /// and benches stage the queue deterministically first.
  bool start_paused = false;
  /// Called on the writer thread after each batch applies: the batch, the
  /// graph epoch it produced, and how many edges actually changed. The
  /// differential fuzz records the commit order through this.
  std::function<void(const Batch&, std::uint64_t epoch_after,
                     std::size_t effective)>
      on_apply;
};

/// One coherent snapshot of the pipeline (admission counters and apply
/// counters each read under their own lock; exact cross-lock identities
/// hold once the pipeline is quiesced by flush()/stop()).
struct IngestorStats {
  // Admission side (the ring's ledger).
  std::size_t submitted = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t shed = 0;
  std::size_t cancelled = 0;
  std::size_t queue_depth = 0;
  std::size_t max_queue_depth = 0;

  // Apply side.
  std::size_t applied = 0;            // accepted updates consumed by batches
  std::size_t applied_effective = 0;  // edges that actually changed the graph
  std::size_t batches = 0;
  std::size_t insert_batches = 0;
  std::size_t erase_batches = 0;
  std::size_t max_batch = 0;  // largest batch, in raw updates

  // Publish side.
  std::size_t publishes = 0;
  std::size_t publish_failures = 0;  // hook returned false or threw
  std::size_t apply_failures = 0;    // update calls that faulted (retried)
  std::uint64_t graph_epoch = 0;     // epoch after the last applied batch
  std::uint64_t published_epoch = 0;
  /// Accepted-but-unpublished updates (accepted - shed - published).
  std::size_t lag = 0;
  /// EWMA of enqueue -> successful-publish latency, microseconds (the
  /// end-to-end "how stale is what readers see" number).
  double latency_ewma_us = 0.0;
};

class Ingestor {
 public:
  using Clock = UpdateQueue::Clock;
  /// The publish hook: bring the session (and any downstream consumer) to
  /// the graph's current epoch; return false on a failed-but-handled
  /// publish (the Ingestor counts it and retries at the next trigger).
  using PublishFn = std::function<bool(engine::Session&)>;
  /// Shortest wait before retrying a failed publish. Other writers that
  /// call Dispatcher::publish in a loop pace their retries by it too.
  static constexpr std::chrono::milliseconds kPublishRetryFloor{1};

  /// Starts the writer thread. `graph` must be the dynamic graph `session`
  /// was opened on; both are owned by the writer thread until stop().
  Ingestor(engine::Engine& engine, dynamic::DynamicGraph& graph,
           engine::Session& session, const IngestorOptions& options = {});
  ~Ingestor();

  Ingestor(const Ingestor&) = delete;
  Ingestor& operator=(const Ingestor&) = delete;

  /// Producer entry points; safe from any thread. Return the number of
  /// updates ACCEPTED by the ring (== count unless kReject refused some or
  /// stop() raced).
  std::size_t submit(const Update* updates, std::size_t count);
  std::size_t submit(const std::vector<Update>& updates);
  std::size_t insert(const std::vector<graph::Edge>& edges,
                     std::uint32_t producer = 0);
  std::size_t erase(const std::vector<graph::Edge>& edges,
                    std::uint32_t producer = 0);

  /// Replaces the publish hook (serve::Dispatcher::attach_ingestor uses
  /// this to route publishes through its degradation path; each shard of a
  /// shard::ShardedGraph to hold its serving View). Set before traffic
  /// flows; the hook runs on the writer thread.
  void set_publisher(PublishFn publish);

  /// Releases a start_paused writer thread.
  void resume();

  /// Waits until every update accepted so far is applied or shed (cuts any
  /// lingering partial batch immediately). Does NOT force a publish — lag
  /// may be nonzero after; pacing still applies.
  void drain();

  /// drain(), then publishes any unpublished epochs and waits for that
  /// publish to land (or fail — flush returns with lag == 0 on success).
  void flush();

  /// Closes the ring (subsequent submits are cancelled), drains and applies
  /// everything still queued, publishes the final epoch, and joins the
  /// writer thread. Idempotent; the destructor calls it.
  void stop();

  IngestorStats stats() const;
  /// Accepted-but-unpublished updates right now (the headline lag gauge).
  std::size_t lag() const;
  /// Epoch after the last applied batch (atomic — safe for hot paths like
  /// the Dispatcher's per-reply staleness stamp).
  std::uint64_t graph_epoch() const {
    return applied_epoch_.load(std::memory_order_acquire);
  }
  std::uint64_t published_epoch() const {
    return published_epoch_.load(std::memory_order_acquire);
  }

  const UpdateQueue& queue() const { return queue_; }

 private:
  void run();  // the writer thread
  /// Applies one batch; false when the update call faulted, which left
  /// the graph as it was (the caller retries the same batch).
  bool apply(const Batch& batch);
  /// Publishes if a trigger fires (`force` = flush/stop/end-of-stream).
  void maybe_publish(bool force);
  /// When the next time-based trigger (pacing interval or idle flush) is
  /// due, given the current backlog; far future when there is none.
  Clock::time_point next_deadline() const;
  /// Ring empty and ledger closed (accepted - shed == applied): nothing is
  /// queued, carried by the batcher, or mid-apply. Requires state_.
  bool quiesced_locked() const;

  engine::Engine& engine_;
  dynamic::DynamicGraph& graph_;
  engine::Session& session_;
  IngestorOptions options_;
  UpdateQueue queue_;
  Batcher batcher_;

  mutable std::mutex state_;          // apply/publish counters + control
  std::condition_variable state_cv_;  // drain()/flush() waiters
  PublishFn publish_;
  bool paused_ = false;
  bool cut_now_ = false;      // drain()/flush(): cut pending immediately
  bool publish_now_ = false;  // flush(): publish regardless of pacing
  bool done_ = false;         // the writer thread has exited its loop
  std::size_t applied_ = 0;
  std::size_t applied_effective_ = 0;
  std::size_t batches_ = 0;
  std::size_t insert_batches_ = 0;
  std::size_t erase_batches_ = 0;
  std::size_t max_batch_seen_ = 0;
  std::size_t publishes_ = 0;
  std::size_t publish_failures_ = 0;
  std::size_t apply_failures_ = 0;
  std::size_t published_applied_ = 0;  // applied_ at the last good publish
  std::size_t batches_since_publish_ = 0;
  /// The most recent publish attempt failed: next_deadline floors the
  /// retry at kPublishRetryFloor so zero-min-interval pacing stays
  /// immediate for healthy publishes without hot-spinning a failing hook.
  bool last_publish_failed_ = false;
  Clock::time_point last_publish_ = Clock::now();
  Clock::time_point last_apply_ = Clock::now();
  /// Earliest enqueue tick among applied-but-unpublished batches.
  Clock::time_point oldest_unpublished_ = Clock::time_point::max();
  double latency_ewma_us_ = 0.0;
  std::atomic<std::uint64_t> applied_epoch_{0};
  std::atomic<std::uint64_t> published_epoch_{0};

  std::thread thread_;
};

}  // namespace emc::ingest
