#include "device/context.hpp"

#include <algorithm>
#include <thread>

#include "util/env.hpp"

namespace emc::device {

namespace {

unsigned default_workers() {
  // An invalid EMC_WORKERS (zero, negative, absurd, junk) falls back to
  // hardware concurrency instead of serializing or spawning thousands of
  // threads.
  constexpr std::int64_t kMaxWorkers = 4096;
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(
      util::env_int_or("EMC_WORKERS", hardware, 1, kMaxWorkers));
}

}  // namespace

Context::Context(unsigned workers, double launch_overhead_seconds)
    : pool_(std::make_shared<ThreadPool>(
          workers == 0 ? default_workers() : workers,
          launch_overhead_seconds)),
      arena_(std::make_shared<Arena>()),
      driver_mutex_(std::make_shared<std::recursive_mutex>()) {}

double Context::device_launch_overhead() {
  // Default 50us: the GTX 980's ~5us launch+sync latency scaled by the
  // roughly 10-100x throughput gap between that GPU and one CPU core, so
  // the latency-to-work ratio — which decides the diameter-bound behaviors
  // in Figures 6 and 9-11 — is preserved rather than the absolute number.
  // Override with EMC_KERNEL_LATENCY_US, integer microseconds in
  // [0, 1'000'000] (0 disables the model); anything else keeps 50.
  constexpr std::int64_t kDefaultUs = 50;
  return static_cast<double>(util::env_int_or("EMC_KERNEL_LATENCY_US",
                                              kDefaultUs, 0, 1'000'000)) *
         1e-6;
}

Context Context::device() { return Context(0, device_launch_overhead()); }

std::size_t Context::grain_for(std::size_t n) const {
  // Aim for ~4 chunks per worker so dynamic scheduling can balance load,
  // but never chunks smaller than 1024 elements.
  const std::size_t target_chunks = std::size_t{4} * workers();
  const std::size_t grain = (n + target_chunks - 1) / std::max<std::size_t>(
                                                          1, target_chunks);
  return std::max<std::size_t>(1024, grain);
}

}  // namespace emc::device
