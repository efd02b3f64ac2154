#include "ingest/ingest.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "graph/graph.hpp"

namespace emc::ingest {

// ---------------------------------------------------------------- batcher

Batcher::Batcher(UpdateQueue& queue, const BatcherOptions& options)
    : queue_(queue), options_(options) {
  options_.max_batch = std::max<std::size_t>(1, options_.max_batch);
  options_.linger = std::max(std::chrono::microseconds{0}, options_.linger);
}

std::chrono::microseconds Batcher::effective_linger(std::size_t depth) const {
  if (!options_.adaptive_linger || options_.linger.count() <= 0) {
    return options_.linger;
  }
  // The Dispatcher's depth scale (clamp(2*depth/cap, 0.25, 4.0)) as a
  // DIVISOR: a deep ring supplies batches by itself, so the window
  // collapses toward linger/4 and the pipeline stays apply-bound; a
  // trickle stretches it toward 4*linger to buy wider batches per launch.
  const double scale =
      std::clamp(2.0 * static_cast<double>(depth) /
                     static_cast<double>(options_.max_batch),
                 0.25, 4.0);
  return std::chrono::microseconds(std::llround(
      static_cast<double>(options_.linger.count()) / scale));
}

std::size_t Batcher::prefix_run() const {
  std::size_t run = 0;
  const UpdateKind kind =
      pending_.empty() ? UpdateKind::kInsert : pending_.front().update.kind;
  for (const UpdateQueue::Queued& q : pending_) {
    if (q.update.kind != kind) break;
    ++run;
  }
  return run;
}

void Batcher::cut(Batch& out, std::size_t take) {
  out.kind = pending_.front().update.kind;
  out.raw_updates = take;
  out.oldest = pending_.front().enqueued;
  out.edges.clear();
  out.edges.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    const UpdateQueue::Queued& q = pending_.front();
    out.oldest = std::min(out.oldest, q.enqueued);
    graph::Edge e = q.update.edge;
    if (e.u > e.v) std::swap(e.u, e.v);
    out.edges.push_back(e);
    pending_.pop_front();
  }
  // Canonical batch: sorted by edge key, duplicates collapsed (the graph
  // layer re-normalizes on the device anyway; doing it here keeps repeated
  // hot edges from inflating device batches and gives on_apply consumers a
  // canonical commit record).
  std::sort(out.edges.begin(), out.edges.end(),
            [](const graph::Edge& a, const graph::Edge& b) {
              return a.u != b.u ? a.u < b.u : a.v < b.v;
            });
  out.edges.erase(std::unique(out.edges.begin(), out.edges.end(),
                              [](const graph::Edge& a, const graph::Edge& b) {
                                return a.u == b.u && a.v == b.v;
                              }),
                  out.edges.end());
}

Batcher::Poll Batcher::next(Batch& out, Clock::time_point deadline,
                            bool force,
                            std::optional<std::uint64_t> kick_mark) {
  const std::uint64_t kicks = kick_mark.value_or(queue_.kicks());
  const std::size_t room = 2 * options_.max_batch;
  for (;;) {
    // Opportunistic top-up with whatever is already queued.
    if (pending_.size() < room) {
      scratch_.clear();
      queue_.pop_wait(scratch_, room - pending_.size(),
                      Clock::time_point::min(), kicks);
      for (UpdateQueue::Queued& q : scratch_) pending_.push_back(std::move(q));
    }
    const std::size_t run = prefix_run();
    // Size threshold: amortization has saturated.
    if (run >= options_.max_batch) {
      cut(out, options_.max_batch);
      return Poll::kBatch;
    }
    // Kind switch inside pending_: the prefix run cannot grow any further
    // (commit order forbids merging across the switch) — cut it now.
    if (run > 0 && run < pending_.size()) {
      cut(out, run);
      return Poll::kBatch;
    }
    const bool end = queue_.closed() && queue_.depth() == 0;
    if (run > 0 && (force || end)) {
      cut(out, run);
      return Poll::kBatch;
    }
    if (end) return Poll::kClosed;
    const auto now = Clock::now();
    if (run > 0) {
      // Linger threshold, measured from the oldest waiting update's
      // ENQUEUE tick — time spent in the ring counts against the window.
      const auto flush_at =
          pending_.front().enqueued +
          effective_linger(queue_.depth() + pending_.size());
      if (now >= flush_at) {
        cut(out, run);
        return Poll::kBatch;
      }
      if (now >= deadline) return Poll::kTimeout;
      scratch_.clear();
      const std::size_t got =
          queue_.pop_wait(scratch_, room - pending_.size(),
                          std::min(deadline, flush_at), kicks);
      for (UpdateQueue::Queued& q : scratch_) pending_.push_back(std::move(q));
      if (got == 0 && Clock::now() < flush_at && Clock::now() < deadline) {
        return Poll::kTimeout;  // a kick(): let the caller re-read its flags
      }
      continue;
    }
    // Nothing pending: sleep for arrivals until the caller's deadline.
    if (now >= deadline) return Poll::kTimeout;
    scratch_.clear();
    const std::size_t got = queue_.pop_wait(scratch_, room, deadline, kicks);
    if (got == 0) {
      if (queue_.closed() && queue_.depth() == 0) return Poll::kClosed;
      return Poll::kTimeout;  // deadline or kick
    }
    for (UpdateQueue::Queued& q : scratch_) pending_.push_back(std::move(q));
  }
}

// --------------------------------------------------------------- ingestor

Ingestor::Ingestor(engine::Engine& engine, dynamic::DynamicGraph& graph,
                   engine::Session& session, const IngestorOptions& options)
    : engine_(engine),
      graph_(graph),
      session_(session),
      options_(options),
      queue_(options.queue_bound, options.admission),
      batcher_(queue_, BatcherOptions{options.max_batch, options.linger,
                                      options.adaptive_linger}),
      paused_(options.start_paused) {
  options_.publish_every = std::max<std::size_t>(1, options_.publish_every);
  if (options_.idle_publish.count() <= 0) {
    options_.idle_publish =
        std::max(4 * batcher_.options().linger, std::chrono::microseconds(
                                                    std::chrono::milliseconds(1)));
  }
  publish_ = [](engine::Session& s) {
    s.refresh();
    return true;
  };
  applied_epoch_.store(graph_.epoch(), std::memory_order_release);
  published_epoch_.store(graph_.epoch(), std::memory_order_release);
  thread_ = std::thread([this] { run(); });
}

Ingestor::~Ingestor() { stop(); }

std::size_t Ingestor::submit(const Update* updates, std::size_t count) {
  return queue_.push(updates, count);
}

std::size_t Ingestor::submit(const std::vector<Update>& updates) {
  return queue_.push(updates);
}

std::size_t Ingestor::insert(const std::vector<graph::Edge>& edges,
                             std::uint32_t producer) {
  std::vector<Update> updates(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    updates[i] = Update{edges[i], UpdateKind::kInsert, producer, 0};
  }
  return queue_.push(updates);
}

std::size_t Ingestor::erase(const std::vector<graph::Edge>& edges,
                            std::uint32_t producer) {
  std::vector<Update> updates(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    updates[i] = Update{edges[i], UpdateKind::kErase, producer, 0};
  }
  return queue_.push(updates);
}

void Ingestor::set_publisher(PublishFn publish) {
  const std::lock_guard<std::mutex> lk(state_);
  publish_ = std::move(publish);
}

void Ingestor::resume() {
  {
    const std::lock_guard<std::mutex> lk(state_);
    paused_ = false;
  }
  state_cv_.notify_all();
}

// Quiesced = the ring is empty AND the ledger closes: accepted - shed ==
// applied. The ledger form is exact where a "carried by the batcher" mirror
// would not be — the writer can be mid-pop with updates drained from the
// ring but not yet cut, and only the ledger still counts those.
bool Ingestor::quiesced_locked() const {
  const UpdateQueue::Stats q = queue_.stats();
  return q.depth == 0 && q.accepted - q.shed == applied_;
}

void Ingestor::drain() {
  std::unique_lock<std::mutex> lk(state_);
  cut_now_ = true;
  lk.unlock();
  queue_.kick();
  lk.lock();
  state_cv_.wait(lk, [&] { return done_ || quiesced_locked(); });
  cut_now_ = false;
}

void Ingestor::flush() {
  std::unique_lock<std::mutex> lk(state_);
  cut_now_ = true;
  publish_now_ = true;
  lk.unlock();
  queue_.kick();
  lk.lock();
  // The writer clears publish_now_ after its forced attempt (success or
  // counted failure) once everything queued has applied.
  state_cv_.wait(lk, [&] { return done_ || !publish_now_; });
  cut_now_ = false;
}

void Ingestor::stop() {
  {
    const std::lock_guard<std::mutex> lk(state_);
    paused_ = false;
  }
  state_cv_.notify_all();
  queue_.close();  // wakes the writer and any kBlock producers
  if (thread_.joinable()) thread_.join();
}

std::size_t Ingestor::lag() const {
  const std::lock_guard<std::mutex> lk(state_);
  const UpdateQueue::Stats q = queue_.stats();
  // Saturating: the ring's ledger and published_applied_ live under
  // different locks, so a reader can observe published_applied_ from a
  // publish whose accepted-side increments it hasn't seen yet. The true
  // lag is never negative; a wrapped ~2^64 here would poison every
  // downstream staleness gauge (Dispatcher ingest_lag, degradation).
  return saturating_sub(saturating_sub(q.accepted, q.shed),
                        published_applied_);
}

IngestorStats Ingestor::stats() const {
  const std::lock_guard<std::mutex> lk(state_);
  const UpdateQueue::Stats q = queue_.stats();
  IngestorStats s;
  s.submitted = q.submitted;
  s.accepted = q.accepted;
  s.rejected = q.rejected;
  s.shed = q.shed;
  s.cancelled = q.cancelled;
  s.queue_depth = q.depth;
  s.max_queue_depth = q.max_depth;
  s.applied = applied_;
  s.applied_effective = applied_effective_;
  s.batches = batches_;
  s.insert_batches = insert_batches_;
  s.erase_batches = erase_batches_;
  s.max_batch = max_batch_seen_;
  s.publishes = publishes_;
  s.publish_failures = publish_failures_;
  s.graph_epoch = applied_epoch_.load(std::memory_order_acquire);
  s.published_epoch = published_epoch_.load(std::memory_order_acquire);
  s.lag = saturating_sub(saturating_sub(q.accepted, q.shed),
                         published_applied_);  // see lag()
  s.latency_ewma_us = latency_ewma_us_;
  return s;
}

void Ingestor::apply(const Batch& batch) {
  std::size_t effective = 0;
  if (batch.kind == UpdateKind::kInsert) {
    effective = graph_.insert_edges(engine_.device(), batch.edges);
  } else {
    effective = graph_.erase_edges(engine_.device(), batch.edges);
  }
  if (options_.on_apply) options_.on_apply(batch, graph_.epoch(), effective);
  {
    const std::lock_guard<std::mutex> lk(state_);
    applied_ += batch.raw_updates;
    applied_effective_ += effective;
    ++batches_;
    ++(batch.kind == UpdateKind::kInsert ? insert_batches_ : erase_batches_);
    max_batch_seen_ = std::max(max_batch_seen_, batch.raw_updates);
    ++batches_since_publish_;
    applied_epoch_.store(graph_.epoch(), std::memory_order_release);
    last_apply_ = Clock::now();
    oldest_unpublished_ = std::min(oldest_unpublished_, batch.oldest);
  }
  state_cv_.notify_all();
}

Ingestor::Clock::time_point Ingestor::next_deadline() const {
  const std::lock_guard<std::mutex> lk(state_);
  const auto now = Clock::now();
  if (cut_now_ || publish_now_) return now;
  const bool backlog = published_applied_ != applied_;
  if (!backlog) return now + std::chrono::hours(1);
  // A backlog's next time-based trigger: the pacing interval or the idle
  // flush, whichever lands first.
  auto due = last_apply_ + options_.idle_publish;
  if (batches_since_publish_ >= options_.publish_every) {
    // The count gate is already met, so the min-interval is the only time
    // gate left: wake the moment it opens — immediately when none is
    // configured. (Skipping this for a zero min-interval used to park the
    // writer until idle_publish with a publishable backlog in hand, e.g.
    // after a failed publish left batches_since_publish_ at the gate.)
    // After a FAILURE the retry is floored at kPublishRetryFloor so a
    // persistently failing hook retries at ~ms cadence instead of
    // hot-spinning the writer through publish attempts.
    auto interval = options_.publish_min_interval;
    if (last_publish_failed_ && interval < kPublishRetryFloor) {
      interval = std::chrono::microseconds(kPublishRetryFloor);
    }
    due = std::min(due, last_publish_ + interval);
  }
  return due;
}

void Ingestor::maybe_publish(bool force) {
  bool attempt = false;
  bool flushing = false;
  PublishFn publish;
  {
    const std::lock_guard<std::mutex> lk(state_);
    flushing = publish_now_ && quiesced_locked();
    const bool backlog = published_applied_ != applied_;
    if (backlog) {
      const auto now = Clock::now();
      const bool count_gate = batches_since_publish_ >= options_.publish_every;
      const bool time_gate =
          now - last_publish_ >= options_.publish_min_interval;
      const bool idle_gate = now - last_apply_ >= options_.idle_publish;
      attempt = force || flushing || (count_gate && time_gate) || idle_gate;
    }
    publish = publish_;
  }
  if (attempt) {
    bool ok = false;
    try {
      ok = publish(session_);
    } catch (...) {
      // A throwing publish hook is a FAILED publish, not a dead pipeline:
      // the previous epoch keeps serving (bounded staleness) and the next
      // pacing trigger retries. Same contract as Dispatcher::publish.
      ok = false;
    }
    const std::lock_guard<std::mutex> lk(state_);
    if (ok) {
      last_publish_failed_ = false;
      ++publishes_;
      published_epoch_.store(applied_epoch_.load(std::memory_order_acquire),
                             std::memory_order_release);
      published_applied_ = applied_;
      batches_since_publish_ = 0;
      last_publish_ = Clock::now();
      if (oldest_unpublished_ != Clock::time_point::max()) {
        const double us = static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                last_publish_ - oldest_unpublished_)
                .count());
        latency_ewma_us_ = latency_ewma_us_ <= 0.0
                               ? us
                               : 0.8 * latency_ewma_us_ + 0.2 * us;
        oldest_unpublished_ = Clock::time_point::max();
      }
    } else {
      ++publish_failures_;
      last_publish_failed_ = true;
      // Re-arm the time triggers from the FAILED attempt, so a persistently
      // failing publish retries at the pacing cadence (floored at
      // kPublishRetryFloor by next_deadline) instead of spinning the
      // writer thread through the timeout path.
      last_publish_ = Clock::now();
      last_apply_ = last_publish_;
    }
  }
  {
    const std::lock_guard<std::mutex> lk(state_);
    // flush() returns after one forced attempt, landed or counted failed.
    if (flushing) publish_now_ = false;
  }
  state_cv_.notify_all();
}

void Ingestor::run() {
  {
    std::unique_lock<std::mutex> lk(state_);
    state_cv_.wait(lk, [&] { return !paused_; });
  }
  Batch batch;
  for (;;) {
    // Read the kick count BEFORE the flags a drain()/flush() kick signals:
    // a kick landing after the flag read then still wakes the wait below.
    const std::uint64_t kicks = queue_.kicks();
    bool force_cut;
    {
      const std::lock_guard<std::mutex> lk(state_);
      force_cut = cut_now_ || publish_now_;
    }
    const Batcher::Poll poll =
        batcher_.next(batch, next_deadline(), force_cut, kicks);
    if (poll == Batcher::Poll::kBatch) {
      apply(batch);
      maybe_publish(/*force=*/false);
      continue;
    }
    if (poll == Batcher::Poll::kClosed) {
      // End of stream: everything accepted has applied; the final epoch
      // must land (stop()'s contract), pacing notwithstanding.
      maybe_publish(/*force=*/true);
      {
        const std::lock_guard<std::mutex> lk(state_);
        done_ = true;
      }
      state_cv_.notify_all();
      return;
    }
    // kTimeout (or a kick): re-evaluate the time-based publish triggers
    // and any drain()/flush() request.
    maybe_publish(/*force=*/false);
  }
}

}  // namespace emc::ingest
