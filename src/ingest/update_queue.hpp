// emc::ingest — bounded multi-producer ring buffer of edge updates.
//
// The front door of the write path: producer threads push() tagged updates
// (insert/erase an edge, optionally stamped with a source timestamp), a
// single consumer (the Batcher) drains them in arrival order. The buffer is
// a fixed-capacity ring — under a producer storm it holds `bound` updates
// and applies an explicit ADMISSION policy, the write-side mirror of the
// Dispatcher's bounded lanes:
//
//   kBlock      the producer waits for space (backpressure — nothing is
//               ever dropped; close() wakes and cancels blocked pushes)
//   kReject     the overflowing updates are refused on the spot; push()
//               returns how many were accepted, the producer decides
//   kShedOldest the OLDEST queued update is evicted to admit the new one
//               (freshest-wins: under overload the stream degrades to a
//               recent suffix instead of an ancient prefix)
//
// Every admission outcome is counted, and the ledger balances:
//   submitted == accepted + rejected + cancelled        (at push)
//   accepted  == popped + shed + still-queued           (at any instant)
// which is what lets the Ingestor's Stats prove "every accepted update is
// applied exactly once" (see test_ingest.cpp).
//
// Each slot also records its ENQUEUE TICK (steady clock at admission); the
// Batcher's linger window and the Ingestor's end-to-end latency EWMA are
// measured from it, so queueing delay is part of the reported latency, not
// hidden before it.
//
// Threading: push()/stats()/depth()/close() are safe from any thread;
// pop_wait() is single-consumer (the Ingestor's writer thread). kick()
// wakes a consumer blocked in pop_wait() without enqueueing anything — the
// flush/stop paths use it to get the loop's attention.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "util/types.hpp"

namespace emc::ingest {

enum class UpdateKind : std::uint8_t { kInsert = 0, kErase };

/// What a full ring does to an incoming push() (see the header comment).
enum class Admission : std::uint8_t {
  kBlock = 0,
  kReject,
  kShedOldest,
};

/// One tagged edge update. `producer` is a provenance tag (which stream the
/// update came from — carried through, not interpreted); `source_ts_us` is
/// an optional caller-domain timestamp (e.g. the event time of a replayed
/// arrival schedule) that rides along for the caller's own lag accounting.
struct Update {
  graph::Edge edge{};
  UpdateKind kind = UpdateKind::kInsert;
  std::uint32_t producer = 0;
  std::uint64_t source_ts_us = 0;
};

class UpdateQueue {
 public:
  using Clock = std::chrono::steady_clock;

  /// An admitted update plus its enqueue tick.
  struct Queued {
    Update update;
    Clock::time_point enqueued;
  };

  /// One coherent snapshot (all counters read under the queue mutex).
  struct Stats {
    std::size_t submitted = 0;  // push()ed updates, any outcome
    std::size_t accepted = 0;   // admitted into the ring
    std::size_t rejected = 0;   // kReject refusals
    std::size_t shed = 0;       // kShedOldest evictions (were accepted)
    std::size_t cancelled = 0;  // pushed after close()
    std::size_t depth = 0;      // currently queued
    std::size_t max_depth = 0;  // deepest the ring has been
  };

  /// `bound` is clamped to >= 1; the ring never reallocates after this.
  UpdateQueue(std::size_t bound, Admission admission);

  UpdateQueue(const UpdateQueue&) = delete;
  UpdateQueue& operator=(const UpdateQueue&) = delete;

  /// Admits `count` updates in order under the ring's admission policy.
  /// Returns how many were ACCEPTED (== count except under kReject, or when
  /// close() raced a kBlock wait). One enqueue tick is taken per call.
  std::size_t push(const Update* updates, std::size_t count);
  std::size_t push(const std::vector<Update>& updates);

  /// Single-consumer pop: appends up to `max` queued updates to `out`,
  /// oldest first, blocking until at least one is available, the queue is
  /// closed, a kick() newer than `kick_mark` (default: the count at entry)
  /// arrives, or `deadline` passes. Returns the number popped (0 on
  /// timeout/kick/closed-and-empty).
  std::size_t pop_wait(std::vector<Queued>& out, std::size_t max,
                       Clock::time_point deadline,
                       std::optional<std::uint64_t> kick_mark = {});

  /// Wakes a pop_wait()ing consumer without enqueueing (it returns 0 and
  /// re-evaluates its control flags).
  void kick();
  /// kick() calls so far. A consumer reads it BEFORE the control flags a
  /// kick signals and waits with it as `kick_mark`, so a kick landing
  /// between that read and the wait is never lost.
  std::uint64_t kicks() const;

  /// Ends admission: subsequent pushes are cancelled, blocked pushes wake
  /// cancelled, and a draining consumer sees closed()+empty as the end of
  /// stream. Idempotent.
  void close();
  bool closed() const;

  std::size_t depth() const;
  std::size_t bound() const { return ring_.size(); }
  Admission admission() const { return admission_; }
  Stats stats() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_full_;   // producers blocked by kBlock
  std::condition_variable not_empty_;  // the consumer
  std::vector<Queued> ring_;           // fixed capacity == bound
  std::size_t head_ = 0;               // index of the oldest queued slot
  std::size_t size_ = 0;
  std::uint64_t kicks_ = 0;
  bool closed_ = false;
  Admission admission_;
  Stats stats_;
};

}  // namespace emc::ingest
