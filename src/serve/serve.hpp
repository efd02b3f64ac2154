// emc::serve — concurrent request serving on top of engine::View.
//
// The engine gives snapshot isolation (epoch-pinned Views); this layer
// gives it a front door for heavy traffic: clients submit() typed requests
// and get a std::future back, worker threads drain a queue of pending
// requests and answer them against the CURRENT View, and a writer thread
// publishes fresher Views as the graph advances — submission never blocks
// on graph updates, updates never block on in-flight answers.
//
// The throughput mechanism is REQUEST COALESCING. Point-query traffic
// arrives as many small batches (often single pairs); answered one by one
// on the device, each batch pays a full kernel launch — the exact
// left-edge-of-Figure-6 regime the paper shows is launch-bound. The
// dispatcher instead merges every queued request of the same family (up
// to `max_coalesce`, optionally waiting `coalesce_window` for stragglers)
// into ONE payload, answers it with one View::run — one bulk kernel, or
// one host loop — and scatters the answer slices back to the individual
// futures. K coalesced requests thus cost one launch instead of K, which
// is precisely the amortization the paper's batched-query figures predict;
// whole-graph families coalesce even harder, one answer broadcast to every
// waiter. Which families exist, which member a batch lane coalesces on and
// what a broadcast lane replies with are read off the engine's family
// registry (engine/families.hpp): the Dispatcher keeps one lane per
// registered family and names none of them.
//
// OVERLOAD AND FAILURE are first-class, not exceptional: every future
// resolves with a definite Reply whose Status says what happened —
//   kOk          answered normally
//   kTimeout     the request's deadline passed before a round took it
//   kOverloaded  a bounded lane was full (Reject) or the request was shed
//                to admit newer work (ShedOldest)
//   kCancelled   submitted after stop() began
//   kFaulted     the answering round threw (injected fault, real OOM);
//                the round fails exactly its own requests
//   kUnsupported the deployment cannot answer this family at all (e.g.
//                BFS levels against a sharded graph — see shard.hpp);
//                resolved immediately, never queued
//   kInvalidArgument the payload names a vertex id outside [0, num_nodes)
//                (negative ids included); checked once at submit, resolved
//                immediately, never queued — so one client's bad id can
//                never reach the kernels of a round it would have shared
// Lanes are BOUNDED (`queue_bound`; 0 = unbounded) with an
// explicit admission policy, and drained FAIRLY: each lane keeps one
// sub-queue per client (Ticket::client), and rounds take items by
// weighted round-robin across clients, so one hot tenant cannot starve
// the rest — ShedOldest likewise shed from the fattest client first.
// The coalescing window is deadline-aware: it widens when queues are deep
// (more amortization when latency is already queue-dominated), shrinks
// when they are shallow, and never waits past the earliest queued
// deadline minus the measured round-service time.
//
// GRACEFUL DEGRADATION: publish(Session&) makes one attempt to build the
// next epoch's View; when it fails the previous healthy View simply keeps
// serving and the dispatcher enters bounded-staleness mode — replies carry
// `staleness` (graph epochs the serving snapshot lags) so clients can
// decide, and recovery is the next successful publish. Retrying is the
// writer's job: an attached Ingestor re-arms its publish trigger after a
// failure (ingest/ingest.hpp), so there is one retry loop, not two. With
// `degrade_to_host`, device-routed answer batches that find the driver
// lock busy fall back to the identical-answer host loop instead of
// queueing behind a writer's kernel pipeline.
// Fault injection for all of the above: util/failpoint.hpp.
//
// Ordering/consistency: answers are computed against the View current at
// DRAIN time, whose epoch is reported in the Reply envelope — a client
// that must not see an epoch older than X checks reply.epoch. Requests of
// the same family AND client are answered FIFO; across clients the
// weighted round-robin decides; across families the oldest pending request
// picks which lane drains next.
//
// Threading: submit(), publish(), current_view() and stats() are safe from
// any thread. stop() (also run by the destructor) answers everything still
// queued, then joins the workers — no future is ever abandoned; a submit()
// racing stop() resolves immediately with Status::kCancelled.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "util/types.hpp"

namespace emc::ingest {
class Ingestor;  // serve sits above ingest; see attach_ingestor()
}

namespace emc::serve {

/// What happened to a submitted request (see the header comment).
enum class Status : std::uint8_t {
  kOk = 0,
  kTimeout,
  kOverloaded,
  kCancelled,
  kFaulted,
  kUnsupported,
  kInvalidArgument,
};

std::string_view to_string(Status status);

/// Answer envelope: the value plus the epoch of the View that served it.
/// `value` is meaningful only when `status == kOk` (expected-style);
/// `staleness` is how many graph epochs that View lagged the newest
/// published state at answer time — 0 except in bounded-staleness mode.
template <typename T>
struct Reply {
  T value{};
  std::uint64_t epoch = 0;
  Status status = Status::kOk;
  std::uint64_t staleness = 0;

  bool ok() const { return status == Status::kOk; }
};

/// What a full lane does to an incoming submit().
enum class Admission : std::uint8_t {
  kBlock = 0,    // wait for space (backpressure onto the caller)
  kReject,       // resolve the NEW request kOverloaded immediately
  kShedOldest,   // resolve the OLDEST queued request of the fattest
                 // client kOverloaded, admit the new one
};

/// Per-request envelope carried alongside the payload.
struct Ticket {
  /// Time budget from submit(); once passed, the request resolves
  /// kTimeout instead of being answered. 0 = the dispatcher's default_ttl.
  std::chrono::microseconds ttl{0};
  /// Fairness key: requests are drained round-robin ACROSS clients,
  /// FIFO within one. The default client 0 is just another tenant.
  std::uint64_t client = 0;
  /// Round-robin quantum for this client (items per fairness turn,
  /// clamped to >= 1). Last submit wins per (lane, client).
  std::uint32_t weight = 1;
};

struct DispatcherOptions {
  /// Worker threads draining the queue.
  unsigned workers = 2;
  /// After popping the first pending request of a type, wait up to this
  /// long for more of the same type to coalesce with (0 = merge only what
  /// is already queued — opportunistic coalescing, no added latency).
  std::chrono::microseconds coalesce_window{0};
  /// Largest number of requests merged into one answer round; 1 disables
  /// coalescing entirely (the per-request baseline bench_serve compares
  /// against).
  std::size_t max_coalesce = 4096;
  /// Construct with the workers parked; no request is drained until
  /// resume(). Lets tests/benches enqueue a burst first, making coalescing
  /// deterministic.
  bool start_paused = false;

  // --- overload / robustness knobs ---

  /// Per-lane queued-request bound. 0 = unbounded.
  std::size_t queue_bound = 0;
  /// Policy when a bounded lane is full.
  Admission admission = Admission::kBlock;
  /// Deadline for requests whose Ticket carries none. 0 = no deadline.
  std::chrono::microseconds default_ttl{0};
  /// Re-acquire each published View with host_fallback_when_busy set, so
  /// answer rounds degrade device-routed batches to the host loop instead
  /// of queueing on a busy driver lock.
  bool degrade_to_host = false;
};

/// One coherent snapshot (every counter below is updated under the same
/// dispatcher mutex stats() reads them under — the serve-layer analog of
/// the engine's atomic Counters).
struct DispatcherStats {
  std::size_t submitted = 0;
  std::size_t answered = 0;  // resolved kOk
  /// Answer rounds (each is one View::run — one bulk kernel or host loop).
  std::size_t rounds = 0;
  /// Requests that shared their round with at least one other request.
  std::size_t coalesced_requests = 0;
  /// Payload elements a round answered WITHOUT computing: under Zipfian
  /// skew the same hot (u,v) pairs repeat within one coalesced round, so
  /// the merged payload is deduplicated before View::run and the shared
  /// answer is scattered to every duplicate. Counts duplicates elided,
  /// summed over rounds (the ROADMAP skew item's candidate fix).
  std::size_t coalesce_cache_hits = 0;
  std::size_t max_round = 0;  // largest round, in requests
  std::size_t views_published = 0;

  // --- overload / failure outcomes (submitted == answered + shed +
  //     rejected + expired + cancelled + faulted + unsupported + invalid
  //     once drained) ---
  std::size_t shed = 0;       // ShedOldest victims (kOverloaded)
  std::size_t rejected = 0;   // Reject admissions (kOverloaded)
  std::size_t expired = 0;    // deadline passed before a round (kTimeout)
  std::size_t cancelled = 0;  // submitted after stop() (kCancelled)
  std::size_t faulted = 0;    // round threw (kFaulted)
  /// Families the deployment cannot answer (kUnsupported). Always 0 for
  /// this Dispatcher — every engine family is served unsharded; the
  /// sharded façade folds its kUnsupported resolutions in here.
  std::size_t unsupported = 0;
  /// Requests whose payload named an out-of-range vertex id
  /// (kInvalidArgument); they never entered a lane.
  std::size_t invalid = 0;
  /// Requests answered while the serving View lagged the graph.
  std::size_t stale_served = 0;
  /// publish(Session&) calls whose build threw (each enters or renews
  /// bounded-staleness mode; the caller retries).
  std::size_t publish_failures = 0;
  /// How the epochs this dispatcher published were produced: by replaying
  /// the applied delta onto the previous epoch's artifacts (the insert-only
  /// fast path — delta-sized work) vs by the full rebuild pipeline
  /// (deletions, cross-heavy or oversized batches — n-sized work). A
  /// publish that found the epoch already built counts as neither.
  std::size_t publish_replays = 0;
  std::size_t publish_rebuilds = 0;
  /// Process-wide injected faults (util::failpoint::total_fired()).
  std::size_t faults_injected = 0;
  /// Deepest any lane has been at admission.
  std::size_t max_queue_depth = 0;
  /// Bounded-staleness mode: the last publish(Session&) failed; replies
  /// carry staleness = how far the serving epoch lags.
  bool degraded = false;
  std::uint64_t staleness = 0;
  /// With an attached Ingestor (attach_ingestor): accepted-but-unpublished
  /// updates in the write pipeline right now. 0 when none is attached.
  std::size_t ingest_lag = 0;
};

class Dispatcher {
 public:
  /// Starts `options.workers` drain threads answering against `view`.
  explicit Dispatcher(engine::View view,
                      const DispatcherOptions& options = {});
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Installs the View subsequent rounds answer against (the writer-side
  /// publish step). In-flight rounds finish on the View they took.
  void publish(engine::View view);

  /// Builds and installs the session's current epoch's View in one
  /// attempt. On success returns true and clears bounded-staleness mode.
  /// When the build throws (injected fault, real OOM), the PREVIOUS healthy
  /// View keeps serving, the dispatcher records how far it lags
  /// (`stats().staleness`), stamps that into every subsequent Reply, and
  /// returns false. The writer retries on its next publish.
  bool publish(engine::Session& session);

  /// Wires a streaming write pipeline into this dispatcher: the Ingestor's
  /// publish hook is rewired to this->publish(Session&) — so a failed epoch
  /// publish degrades into bounded staleness and the Ingestor's re-armed
  /// trigger retries it — and the
  /// dispatcher starts folding the ingestor's progress into its staleness
  /// accounting: replies' `staleness` measures against the newest APPLIED
  /// graph epoch (paced publishing shows up as bounded staleness, not as
  /// freshness), and stats().ingest_lag reports the pipeline's lag.
  /// Lifecycle: the Ingestor must be stop()ped before this dispatcher is
  /// destroyed and destroyed after it (declare the Ingestor first).
  void attach_ingestor(ingest::Ingestor& ingestor);

  engine::View current_view() const;

  /// Enqueues a request of any registered family and returns the future.
  /// Batch families merge with same-family neighbours; whole-graph families
  /// answer once per round and broadcast (the Bridges reply owns a COPY of
  /// the mask). The Ticket carries the request's deadline and fairness
  /// identity. Payload ids are checked against the graph's num_nodes
  /// first: a bad one resolves kInvalidArgument and never enters a lane.
  template <engine::Request Req>
  std::future<Reply<engine::Served<Req>>> submit(Req request,
                                                 Ticket ticket = {}) {
    const bool valid = engine::ids_in_range(request, num_nodes_);
    return enqueue(std::get<Lane<Req>>(lanes_), std::move(request), ticket,
                   valid);
  }

  /// Releases start_paused workers.
  void resume();

  /// Answers everything still queued, then joins the workers. Idempotent;
  /// the destructor calls it.
  void stop();

  DispatcherStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  template <typename Req>
  struct Item {
    std::uint64_t seq = 0;
    Req request;
    std::promise<Reply<engine::Served<Req>>> promise;
    Clock::time_point deadline = Clock::time_point::max();
  };

  /// One lane per registered family.
  template <typename Req>
  struct Lane {
    /// One FIFO per client; rounds take weighted round-robin across them.
    struct Sub {
      std::deque<Item<Req>> queue;
      std::uint32_t weight = 1;
    };
    std::map<std::uint64_t, Sub> subs;
    std::size_t total = 0;      // queued items across subs
    std::uint64_t cursor = 0;   // client the next fairness turn starts at
    bool claimed = false;  // a worker is waiting out the window on it

    /// Sequence number of the oldest queued item (~0 when empty).
    std::uint64_t head() const {
      std::uint64_t oldest = ~std::uint64_t{0};
      for (const auto& [client, sub] : subs) {
        if (!sub.queue.empty()) {
          oldest = std::min(oldest, sub.queue.front().seq);
        }
      }
      return oldest;
    }
  };

  /// Epoch/staleness pair captured under the lock when a round (or an
  /// immediate resolution) picks its View.
  struct Snapshot {
    engine::View view;
    std::uint64_t staleness = 0;
  };

  /// Admission: resolves the request immediately (invalid ids, stop,
  /// Reject) or queues it, shedding per the admission policy.
  template <typename Req>
  std::future<Reply<engine::Served<Req>>> enqueue(Lane<Req>& lane,
                                                  Req&& request,
                                                  const Ticket& ticket,
                                                  bool valid);

  /// Pops up to `max_take` live items by weighted round-robin across the
  /// lane's clients (FIFO within one), routing already-expired items to
  /// `expired` instead (they do not consume fairness quota or round
  /// capacity). Lock held.
  template <typename Req>
  void take_round(Lane<Req>& lane, std::size_t max_take,
                  std::vector<Item<Req>>& live,
                  std::vector<Item<Req>>& expired);

  /// The deadline-aware coalescing wait (lock held; see header comment).
  template <typename Req>
  void wait_for_round(std::unique_lock<std::mutex>& lk, Lane<Req>& lane);

  /// One answer round on `lane`; `lk` is held on entry and exit. A batch
  /// lane is claimed, optionally waits the coalescing window, merges up to
  /// max_coalesce payloads, answers them with ONE View::run outside the
  /// lock, and scatters the slices; a whole-graph lane takes its queued
  /// requests, answers ONCE, and broadcasts.
  template <typename Req>
  void drain(std::unique_lock<std::mutex>& lk, Lane<Req>& lane);

  /// Applies degrade_to_host to a freshly published view.
  engine::View adapt(engine::View view) const;

  void worker_loop();
  bool pending_unclaimed() const;
  bool pending_none() const;
  /// Serves the unclaimed lane whose head is the oldest pending request.
  void serve_next(std::unique_lock<std::mutex>& lk);
  /// A reply that carries no answer: the non-Ok resolutions.
  template <typename Value>
  static Reply<Value> empty_reply(Status status, std::uint64_t epoch,
                                  std::uint64_t staleness) {
    return Reply<Value>{Value{}, epoch, status, staleness};
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  engine::View view_;
  /// The graph's vertex count, fixed for its lifetime: submit()'s id bound.
  NodeId num_nodes_ = 0;
  DispatcherOptions options_;
  DispatcherStats stats_;
  std::uint64_t next_seq_ = 0;
  /// Newest graph epoch the writer has shown us (successful publishes AND
  /// failed publish(Session&) calls); staleness = latest_epoch_ - serving.
  std::uint64_t latest_epoch_ = 0;
  /// latest_epoch_, folded with an attached ingestor's newest applied
  /// epoch (lock held; one relaxed atomic read on the hot path).
  std::uint64_t latest_known_epoch() const;
  ingest::Ingestor* ingestor_ = nullptr;
  bool degraded_ = false;
  /// EWMA of round service time, the "p99 headroom" input to the adaptive
  /// window (nanoseconds).
  double round_ewma_ns_ = 0.0;
  bool paused_ = false;
  bool stop_ = false;

  engine::Families::Tuple<Lane> lanes_;

  std::vector<std::thread> threads_;
};

template <typename Req>
std::future<Reply<engine::Served<Req>>> Dispatcher::enqueue(
    Lane<Req>& lane, Req&& request, const Ticket& ticket, bool valid) {
  using Value = engine::Served<Req>;
  std::unique_lock<std::mutex> lk(mutex_);
  ++stats_.submitted;
  // The answer-free resolutions below report the CURRENT serving epoch —
  // the client learns what it would have been answered against.
  const auto resolve_now = [&](Status status, std::size_t& outcome) {
    ++outcome;
    const std::uint64_t epoch = view_.epoch();
    const std::uint64_t staleness = saturating_sub(latest_known_epoch(), epoch);
    lk.unlock();
    std::promise<Reply<Value>> promise;
    promise.set_value(empty_reply<Value>(status, epoch, staleness));
    return promise.get_future();
  };
  if (!valid) return resolve_now(Status::kInvalidArgument, stats_.invalid);
  // Shutdown race: a submit() after stop() began is REFUSED, not silently
  // worked on the caller thread after teardown started.
  if (stop_) return resolve_now(Status::kCancelled, stats_.cancelled);

  std::optional<Item<Req>> victim;
  if (options_.queue_bound > 0 && lane.total >= options_.queue_bound) {
    switch (options_.admission) {
      case Admission::kBlock:
        cv_.wait(lk, [&] {
          return stop_ || lane.total < options_.queue_bound;
        });
        if (stop_) return resolve_now(Status::kCancelled, stats_.cancelled);
        break;
      case Admission::kReject:
        return resolve_now(Status::kOverloaded, stats_.rejected);
      case Admission::kShedOldest: {
        // Shed from the FATTEST client (queued / weight) so a flood pays
        // for its own shedding and light tenants ride through untouched.
        auto fattest = lane.subs.end();
        double worst = -1.0;
        for (auto it = lane.subs.begin(); it != lane.subs.end(); ++it) {
          if (it->second.queue.empty()) continue;
          const double load = static_cast<double>(it->second.queue.size()) /
                              static_cast<double>(std::max<std::uint32_t>(
                                  1, it->second.weight));
          if (load > worst) {
            worst = load;
            fattest = it;
          }
        }
        victim.emplace(std::move(fattest->second.queue.front()));
        fattest->second.queue.pop_front();
        --lane.total;
        ++stats_.shed;
        break;
      }
    }
  }

  const auto ttl =
      ticket.ttl.count() > 0 ? ticket.ttl : options_.default_ttl;
  auto& sub = lane.subs[ticket.client];
  sub.weight = std::max<std::uint32_t>(1, ticket.weight);
  sub.queue.push_back(Item<Req>{
      next_seq_++, std::move(request), {},
      ttl.count() > 0 ? Clock::now() + ttl : Clock::time_point::max()});
  ++lane.total;
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, lane.total);
  std::future<Reply<Value>> future = sub.queue.back().promise.get_future();
  const std::uint64_t epoch = view_.epoch();
  const std::uint64_t staleness = saturating_sub(latest_known_epoch(), epoch);
  lk.unlock();
  cv_.notify_all();
  if (victim) {
    victim->promise.set_value(
        empty_reply<Value>(Status::kOverloaded, epoch, staleness));
  }
  return future;
}

}  // namespace emc::serve
