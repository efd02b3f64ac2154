#include "serve/serve.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <iterator>
#include <tuple>
#include <unordered_map>

#include "ingest/ingest.hpp"
#include "util/failpoint.hpp"

namespace emc::serve {

std::string_view to_string(Status status) {
  switch (status) {
    case Status::kOk:
      return "ok";
    case Status::kTimeout:
      return "timeout";
    case Status::kOverloaded:
      return "overloaded";
    case Status::kCancelled:
      return "cancelled";
    case Status::kFaulted:
      return "faulted";
    case Status::kUnsupported:
      return "unsupported";
    case Status::kInvalidArgument:
      return "invalid_argument";
  }
  return "?";
}

namespace {

/// Per-round dedup keys: both payload element shapes pack into 64 bits.
/// Order-sensitive for pairs — (u,v) and (v,u) stay distinct, so the
/// cache never assumes a family is symmetric.
std::uint64_t dedup_key(NodeId v) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
}
std::uint64_t dedup_key(const std::pair<NodeId, NodeId>& p) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.first))
          << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.second));
}

}  // namespace

Dispatcher::Dispatcher(engine::View view, const DispatcherOptions& options)
    : options_(options), paused_(options.start_paused) {
  options_.workers = std::max(1u, options_.workers);
  options_.max_coalesce = std::max<std::size_t>(1, options_.max_coalesce);
  latest_epoch_ = view.epoch();
  num_nodes_ = view.num_nodes();
  view_ = adapt(std::move(view));
  threads_.reserve(options_.workers);
  for (unsigned t = 0; t < options_.workers; ++t) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

Dispatcher::~Dispatcher() { stop(); }

engine::View Dispatcher::adapt(engine::View view) const {
  if (!options_.degrade_to_host) return view;
  engine::Policy policy = view.policy();
  policy.host_fallback_when_busy = true;
  return view.with_policy(policy);
}

void Dispatcher::publish(engine::View view) {
  const std::lock_guard<std::mutex> lk(mutex_);
  latest_epoch_ = std::max(latest_epoch_, view.epoch());
  view_ = adapt(std::move(view));
  degraded_ = false;  // an explicit healthy View ends staleness mode
  ++stats_.views_published;
}

bool Dispatcher::publish(engine::Session& session) {
  try {
    // Diffing the session's replay/rebuild counters around the build
    // attributes this publish to the incremental or full pipeline (both
    // deltas are 0 when the epoch was already built — a cache hit).
    const std::uint64_t replays_before = session.publish_replays();
    const std::uint64_t rebuilds_before = session.publish_rebuilds();
    engine::View fresh = session.view();
    const std::lock_guard<std::mutex> lk(mutex_);
    stats_.publish_replays += session.publish_replays() - replays_before;
    stats_.publish_rebuilds += session.publish_rebuilds() - rebuilds_before;
    latest_epoch_ = std::max(latest_epoch_, fresh.epoch());
    view_ = adapt(std::move(fresh));
    degraded_ = false;
    ++stats_.views_published;
    return true;
  } catch (...) {
    // Epoch build failed (injected fault, allocation failure): the previous
    // View is untouched and keeps serving. Enter (or renew) bounded-
    // staleness mode; the graph's real epoch tells readers how far the
    // serving snapshot lags. The caller retries (an Ingestor at its next
    // trigger).
  }
  const std::lock_guard<std::mutex> lk(mutex_);
  ++stats_.publish_failures;
  latest_epoch_ = std::max(latest_epoch_, session.epoch());
  degraded_ = true;
  return false;
}

// LOCKING AUDIT (satellite of the incremental-publish PR): every call site
// reads latest_epoch_/ingestor_ under mutex_ — stats(), the two enqueue
// resolution points, and the drain Snapshot capture (computed BEFORE
// lk.unlock()). Keep it that
// way: an unlocked call would race publish()/attach_ingestor(). The TSan
// CI job runs test_serve (ctest -R "test_(serve|engine|ingest)") over
// exactly these paths.
std::uint64_t Dispatcher::latest_known_epoch() const {
  std::uint64_t latest = latest_epoch_;
  if (ingestor_ != nullptr) {
    latest = std::max(latest, ingestor_->graph_epoch());
  }
  return latest;
}

void Dispatcher::attach_ingestor(ingest::Ingestor& ingestor) {
  // The hook runs on the ingestor's writer thread; publish(Session&) takes
  // the dispatcher mutex internally, so no lock is held across the call.
  ingestor.set_publisher(
      [this](engine::Session& session) { return publish(session); });
  const std::lock_guard<std::mutex> lk(mutex_);
  ingestor_ = &ingestor;
}

engine::View Dispatcher::current_view() const {
  const std::lock_guard<std::mutex> lk(mutex_);
  return view_;
}

void Dispatcher::resume() {
  {
    const std::lock_guard<std::mutex> lk(mutex_);
    paused_ = false;
  }
  cv_.notify_all();
}

void Dispatcher::stop() {
  std::vector<std::thread> to_join;
  {
    const std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
    paused_ = false;
    to_join.swap(threads_);  // swap makes a second stop() a no-op
  }
  cv_.notify_all();
  for (std::thread& thread : to_join) thread.join();
}

DispatcherStats Dispatcher::stats() const {
  const std::lock_guard<std::mutex> lk(mutex_);
  DispatcherStats s = stats_;
  s.degraded = degraded_;
  // Saturating: publish(View) maintains latest_epoch_ >= view_.epoch()
  // with std::max at every assignment, but an attached ingestor's
  // graph_epoch() is NOT part of that invariant chain (a View published
  // out-of-band can outrun it), so the gauge clamps instead of wrapping.
  s.staleness = saturating_sub(latest_known_epoch(), view_.epoch());
  s.faults_injected = util::failpoint::total_fired();
  if (ingestor_ != nullptr) s.ingest_lag = ingestor_->lag();
  return s;
}

bool Dispatcher::pending_unclaimed() const {
  return std::apply(
      [](const auto&... lane) {
        return ((!lane.claimed && lane.total > 0) || ...);
      },
      lanes_);
}

bool Dispatcher::pending_none() const {
  return std::apply(
      [](const auto&... lane) { return ((lane.total == 0) && ...); }, lanes_);
}

template <typename Req>
void Dispatcher::take_round(Lane<Req>& lane, std::size_t max_take,
                            std::vector<Item<Req>>& live,
                            std::vector<Item<Req>>& expired) {
  const auto now = Clock::now();
  while (live.size() < max_take && lane.total > 0) {
    bool took = false;
    auto it = lane.subs.lower_bound(lane.cursor);
    for (std::size_t visited = 0;
         visited < lane.subs.size() && live.size() < max_take; ++visited) {
      if (it == lane.subs.end()) it = lane.subs.begin();
      auto& sub = it->second;
      // One fairness turn: up to `weight` LIVE items from this client.
      // Expired items are routed out for a kTimeout reply and consume
      // neither quota nor round capacity.
      std::uint32_t quota = sub.weight;
      while (!sub.queue.empty() && quota > 0 && live.size() < max_take) {
        Item<Req> item = std::move(sub.queue.front());
        sub.queue.pop_front();
        --lane.total;
        took = true;
        if (item.deadline <= now) {
          expired.push_back(std::move(item));
        } else {
          live.push_back(std::move(item));
          --quota;
        }
      }
      lane.cursor = it->first + 1;  // the next turn starts past this client
      ++it;
    }
    if (!took) break;
  }
  for (auto it = lane.subs.begin(); it != lane.subs.end();) {
    it = it->second.queue.empty() ? lane.subs.erase(it) : std::next(it);
  }
}

template <typename Req>
void Dispatcher::wait_for_round(std::unique_lock<std::mutex>& lk,
                                Lane<Req>& lane) {
  if (options_.coalesce_window.count() <= 0 || options_.max_coalesce <= 1 ||
      stop_) {
    return;
  }
  auto window =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          options_.coalesce_window);
  // Deep queue: latency is already queue-dominated, widen (more
  // amortization per kernel). Shallow queue: the window IS the latency,
  // shrink. Clamped so the knob's order of magnitude still governs.
  const double depth_scale =
      std::clamp(2.0 * static_cast<double>(lane.total) /
                     static_cast<double>(options_.max_coalesce),
                 0.25, 4.0);
  window = std::chrono::nanoseconds(
      std::llround(static_cast<double>(window.count()) * depth_scale));
  // Never wait past the earliest queued deadline minus the measured
  // round-service time. Sub fronts approximate "earliest" (oldest
  // submit per client) without an O(queued) scan.
  auto earliest = Clock::time_point::max();
  for (const auto& [client, sub] : lane.subs) {
    if (!sub.queue.empty()) {
      earliest = std::min(earliest, sub.queue.front().deadline);
    }
  }
  if (earliest != Clock::time_point::max()) {
    const auto service =
        std::chrono::nanoseconds(std::llround(round_ewma_ns_));
    const auto slack = std::chrono::duration_cast<std::chrono::nanoseconds>(
        earliest - Clock::now() - service);
    window = std::min(window, std::max(std::chrono::nanoseconds{0}, slack));
  }
  if (window.count() <= 0) return;
  const auto deadline = Clock::now() + window;
  // Let the round fill: a claimed lane is only drained by this worker,
  // other lanes stay fair game for the rest of the pool.
  cv_.wait_until(lk, deadline, [&] {
    return stop_ || lane.total >= options_.max_coalesce;
  });
}

template <typename Req>
void Dispatcher::drain(std::unique_lock<std::mutex>& lk, Lane<Req>& lane) {
  using Ans = engine::Served<Req>;
  using Family = engine::Family<Req>;
  constexpr bool kCoalesce = engine::Coalesced<Req>;
  if constexpr (kCoalesce) {
    lane.claimed = true;
    wait_for_round(lk, lane);
  }
  std::vector<Item<Req>> items;
  std::vector<Item<Req>> expired;
  take_round(lane, options_.max_coalesce, items, expired);
  lane.claimed = false;
  const std::size_t take = items.size();
  const Snapshot snap{view_,
                      saturating_sub(latest_known_epoch(), view_.epoch())};
  if (take > 0) ++stats_.rounds;
  stats_.answered += take;
  stats_.expired += expired.size();
  if (take > 1) stats_.coalesced_requests += take;
  stats_.max_round = std::max(stats_.max_round, take);
  if (snap.staleness > 0) stats_.stale_served += take;
  const auto round_start = Clock::now();
  lk.unlock();

  for (Item<Req>& item : expired) {
    item.promise.set_value(
        empty_reply<Ans>(Status::kTimeout, snap.view.epoch(), snap.staleness));
  }

  // A throwing round (injected fault, bad_alloc on a merged payload) fails
  // exactly its own requests — each resolves kFaulted with a definite
  // Reply; nothing escapes the worker thread, no future is abandoned.
  bool faulted = false;
  std::size_t cache_hits = 0;
  if (take > 0) {
    try {
      if constexpr (kCoalesce) {
        // One merged payload -> one View::run -> scatter the slices back.
        Req merged;
        auto& all = merged.*Family::payload;
        std::vector<std::size_t> cuts;
        cuts.reserve(items.size());
        for (Item<Req>& item : items) {
          const auto& part = item.request.*Family::payload;
          all.insert(all.end(), part.begin(), part.end());
          cuts.push_back(all.size());
        }
        // Per-round answer cache: Zipf-hot payload elements repeat within
        // a coalesced round, so the round computes each DISTINCT element
        // once and scatters the shared answer to every duplicate — the
        // kernel batch shrinks to the distinct count. Everything answered
        // in this round still comes from the same View::run, so an element
        // repeated across requests cannot observe two epochs.
        auto& uniq = merged.*Family::payload;  // compacted in place below
        std::vector<std::size_t> uniq_of(all.size());
        {
          std::unordered_map<std::uint64_t, std::size_t> index;
          index.reserve(all.size());
          std::size_t distinct = 0;
          for (std::size_t i = 0; i < all.size(); ++i) {
            const auto [it, inserted] =
                index.emplace(dedup_key(all[i]), distinct);
            if (inserted) uniq[distinct++] = all[i];
            uniq_of[i] = it->second;
          }
          cache_hits = all.size() - distinct;
          uniq.resize(distinct);
        }
        const Ans uniq_answers = snap.view.run(merged);
        Ans full(uniq_of.size());
        for (std::size_t i = 0; i < uniq_of.size(); ++i) {
          full[i] = uniq_answers[uniq_of[i]];
        }
        std::size_t begin = 0;
        for (std::size_t i = 0; i < items.size(); ++i) {
          Ans slice(full.begin() + static_cast<std::ptrdiff_t>(begin),
                    full.begin() + static_cast<std::ptrdiff_t>(cuts[i]));
          begin = cuts[i];
          items[i].promise.set_value(Reply<Ans>{std::move(slice),
                                                snap.view.epoch(), Status::kOk,
                                                snap.staleness});
        }
      } else {
        const Ans full = Family::broadcast(snap.view.run(Req{}));
        for (Item<Req>& item : items) {
          item.promise.set_value(
              Reply<Ans>{full, snap.view.epoch(), Status::kOk, snap.staleness});
        }
      }
    } catch (...) {
      faulted = true;
      for (Item<Req>& item : items) {
        item.promise.set_value(empty_reply<Ans>(
            Status::kFaulted, snap.view.epoch(), snap.staleness));
      }
    }
  }

  lk.lock();
  if (take > 0) {
    if constexpr (kCoalesce) {
      const double ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               round_start)
              .count());
      round_ewma_ns_ =
          round_ewma_ns_ <= 0.0 ? ns : 0.8 * round_ewma_ns_ + 0.2 * ns;
    }
    if (faulted) {
      stats_.answered -= take;
      stats_.faulted += take;
    } else {
      stats_.coalesce_cache_hits += cache_hits;
    }
  }
  cv_.notify_all();  // stopping workers wait for pending_none(); blocked
                     // submitters wait for lane space
}

void Dispatcher::serve_next(std::unique_lock<std::mutex>& lk) {
  // FIFO across lanes: the unclaimed lane holding the oldest request wins
  // (each lane's head is the oldest front across its client sub-queues).
  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  std::uint64_t best = kNone;
  std::size_t which = 0;
  std::size_t index = 0;
  const auto consider = [&](const auto& lane) {
    const std::uint64_t head = lane.claimed ? kNone : lane.head();
    if (head < best) {
      best = head;
      which = index;
    }
    ++index;
  };
  std::apply([&](const auto&... lane) { (consider(lane), ...); }, lanes_);
  if (best == kNone) return;
  index = 0;
  const auto serve = [&](auto& lane) {
    if (index++ == which) drain(lk, lane);
  };
  std::apply([&](auto&... lane) { (serve(lane), ...); }, lanes_);
}

void Dispatcher::worker_loop() {
  std::unique_lock<std::mutex> lk(mutex_);
  for (;;) {
    cv_.wait(lk, [&] {
      return (stop_ && pending_none()) || (!paused_ && pending_unclaimed());
    });
    if (!paused_ && pending_unclaimed()) {
      serve_next(lk);
      continue;
    }
    if (stop_ && pending_none()) return;
  }
}

}  // namespace emc::serve
