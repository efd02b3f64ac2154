// Execution context handed to every parallel algorithm in the library.
//
// In the paper, algorithms run either on the GPU (CUDA + moderngpu), on
// multi-core CPU (OpenMP), or on a single core. In this reproduction all
// three are instances of the same Context with different worker counts:
//
//   Context::sequential()  — single-core CPU baseline (1 worker, inline)
//   Context(k)             — multi-core CPU baseline (k workers)
//   Context::device()      — the "GPU": as many workers as the machine has,
//                            executing bulk kernels with a global barrier
//                            between them (see thread_pool.hpp)
//
// The distinction that matters for reproducing the paper's results is not
// the worker count but the *algorithm structure*: device algorithms are
// sequences of bulk data-parallel kernels with the paper's work/depth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

#include "device/arena.hpp"
#include "device/thread_pool.hpp"

namespace emc::device {

class Context {
 public:
  /// Creates a context with the given number of workers (0 means "use the
  /// EMC_WORKERS environment variable when it holds a valid positive count,
  /// else hardware concurrency") and a fixed per-kernel launch + barrier
  /// latency in seconds (CPU contexts use the default 0; see
  /// thread_pool.hpp for why the device charges one).
  explicit Context(unsigned workers = 0, double launch_overhead_seconds = 0.0);

  /// Single-worker context; all launches run inline on the caller.
  static Context sequential() { return Context(1); }

  /// Full-width context simulating the GPU: charges a per-kernel launch
  /// latency (EMC_KERNEL_LATENCY_US: integer microseconds in [0, 1e6],
  /// anything else keeps the default 50us — the GTX 980's ~5us
  /// launch+sync cost scaled to this simulator's throughput), the cost that
  /// makes level-synchronous BFS diameter-bound in the paper's Figures 9-11
  /// and small query batches wasteful in Figure 6.
  static Context device();

  /// The per-kernel latency device() charges (EMC_KERNEL_LATENCY_US or the
  /// 50us default) — exposed so callers building a custom-width device
  /// context (engine::EngineOptions::device_workers) keep the same model.
  static double device_launch_overhead();

  double launch_overhead() const { return pool_->launch_overhead(); }

  unsigned workers() const { return pool_->workers(); }
  ThreadPool& pool() const { return *pool_; }

  /// Scratch arena shared by every primitive running on this context (the
  /// device-memory pool of the simulation; see arena.hpp). Like the pool, it
  /// assumes one host thread drives the context at a time.
  Arena& arena() const { return *arena_; }

  /// Kernel launches issued on this context's pool so far.
  std::uint64_t launch_count() const { return pool_->launch_count(); }

  /// Driver lock for multi-threaded hosts. The pool's dispatch slot and the
  /// arena both assume ONE host thread drives the context at a time (the
  /// CUDA-stream shape); single-threaded programs satisfy that for free and
  /// never touch this. Concurrent drivers (emc::serve workers racing a
  /// writer's artifact builds or DynamicGraph updates) must hold this lock
  /// across each whole kernel pipeline — not per launch, since arena slots
  /// live across launches. Recursive, so self-locking entry points
  /// (DynamicGraph updates/snapshots) compose with callers that already
  /// hold it (a Session building artifacts). Copies of a Context share the
  /// lock along with the pool and arena.
  std::unique_lock<std::recursive_mutex> exclusive() const {
    return std::unique_lock<std::recursive_mutex>(*driver_mutex_);
  }

  /// Non-blocking exclusive(): returns a lock that owns the driver mutex iff
  /// it was free (check owns_lock()). Lets serve-layer callers detect a
  /// saturated device route and fall back to the host route instead of
  /// queueing behind a long kernel pipeline.
  std::unique_lock<std::recursive_mutex> try_exclusive() const {
    return std::unique_lock<std::recursive_mutex>(*driver_mutex_,
                                                  std::try_to_lock);
  }

  /// Default chunk grain for bulk launches: large enough to amortize
  /// scheduling, small enough to balance load.
  std::size_t grain_for(std::size_t n) const;

 private:
  std::shared_ptr<ThreadPool> pool_;  // shared so Context is cheaply copyable
  std::shared_ptr<Arena> arena_;
  std::shared_ptr<std::recursive_mutex> driver_mutex_;
};

}  // namespace emc::device
