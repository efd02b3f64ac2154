// Pure helpers of the end-to-end benchmark (bench_e2e.cpp): the percentile
// rule, the open-loop arrival schedules, and the update -> batch -> epoch ->
// publish mapping that turns writer-side records into per-update
// visibility latencies. Kept free of the library so helpers_test.cpp can
// pin them on hand-built inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace e2e {

/// A latency sample that never completed (non-kOk reply, update never made
/// visible): it misses every latency limit, so it sorts above all others.
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile (the smallest sample with at least q * n samples
/// at or below it) of `samples`, failures included as kMissed. 0 when empty.
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Samples strictly above the q-th percentile's rank.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it (so it is estimated, not extrapolated); 0 when even
/// the median has fewer.
inline double highest_reportable(std::size_t n) {
  double best = 0.0;
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (samples_beyond(n, q) >= 10) best = q;
  }
  return best;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// ------------------------------------------------------------ schedules

/// The harness's own generator: std::mt19937_64 is specified bit-exactly by
/// the standard, and the conversions below are written out, so a seed gives
/// the same schedule on every standard library.
class Prng {
 public:
  explicit Prng(std::uint64_t seed) : gen_(seed) {}
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(gen_() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, bound), bound > 0 (modulo bias is irrelevant
  /// at the bounds used here, all far below 2^32).
  std::uint64_t below(std::uint64_t bound) { return gen_() % bound; }

 private:
  std::mt19937_64 gen_;
};

/// One piece of a piecewise-constant arrival rate: Poisson at `rate`
/// arrivals per second over [begin_s, end_s).
struct Segment {
  double begin_s = 0.0;
  double end_s = 0.0;
  double rate = 0.0;
};

/// Arrival times (seconds, ascending) of an inhomogeneous Poisson process
/// with a piecewise-constant rate (Hohmann, arXiv:1901.10754): exponential
/// gaps by inversion, restarted at each segment boundary — exact, because
/// the process is memoryless.
inline std::vector<double> piecewise_poisson(const std::vector<Segment>& segments,
                                             Prng& rng) {
  std::vector<double> out;
  for (const Segment& s : segments) {
    if (s.rate <= 0.0) continue;
    double t = s.begin_s;
    for (;;) {
      t += -std::log1p(-rng.uniform()) / s.rate;
      if (t >= s.end_s) break;
      out.push_back(t);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// A burst of exactly `count` arrivals in [begin_s, begin_s + width_s): a
/// Poisson process conditioned on its count, i.e. sorted iid uniform times.
inline std::vector<double> fixed_burst(double begin_s, double width_s,
                                       std::size_t count, Prng& rng) {
  std::vector<double> out(count);
  for (double& t : out) t = begin_s + width_s * rng.uniform();
  std::sort(out.begin(), out.end());
  return out;
}

// ------------------------------------------------------------ visibility

/// One applied batch as the Ingestor's on_apply callback reports it.
struct AppliedBatch {
  std::size_t raw_updates = 0;     // queued updates the batch consumed
  std::uint64_t epoch_after = 0;   // graph epoch once it applied
  double apply_s = 0.0;            // when on_apply ran
};

/// One return of the publish hook.
struct PublishEvent {
  double return_s = 0.0;    // when Dispatcher::publish(Session&) returned
  std::uint64_t epoch = 0;  // epoch of the View it installed
  bool ok = true;           // false: the publish failed, nothing installed
};

inline constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Batch index of each of `num_updates` updates in submit order. With one
/// producer and blocking admission the ring is FIFO, so batches consume
/// consecutive runs of the submit sequence; kNone past the last batch.
inline std::vector<std::size_t> batch_of_update(
    std::size_t num_updates, const std::vector<AppliedBatch>& batches) {
  std::vector<std::size_t> out(num_updates, kNone);
  std::size_t at = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (std::size_t k = 0; k < batches[b].raw_updates && at < num_updates; ++k) {
      out[at++] = b;
    }
  }
  return out;
}

/// For each batch, the first successful publish that ran after it applied
/// and installed an epoch containing it; kNone if none did.
inline std::vector<std::size_t> publish_of_batch(
    const std::vector<AppliedBatch>& batches,
    const std::vector<PublishEvent>& publishes) {
  std::vector<std::size_t> out(batches.size(), kNone);
  std::size_t p = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    // Publishes are in time order and a later batch can only be covered by
    // a later publish, so the cursor never moves back.
    while (p < publishes.size() &&
           (!publishes[p].ok || publishes[p].return_s < batches[b].apply_s ||
            publishes[p].epoch < batches[b].epoch_after)) {
      ++p;
    }
    if (p < publishes.size()) out[b] = p;
  }
  return out;
}

/// Update-to-visible latency per update: from its due time to the return of
/// the publish that first installed a View containing it (kMissed if none).
inline std::vector<double> visibility(const std::vector<double>& due_s,
                                      const std::vector<AppliedBatch>& batches,
                                      const std::vector<PublishEvent>& publishes) {
  const std::vector<std::size_t> batch = batch_of_update(due_s.size(), batches);
  const std::vector<std::size_t> pub = publish_of_batch(batches, publishes);
  std::vector<double> out(due_s.size(), kMissed);
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    if (batch[i] == kNone || pub[batch[i]] == kNone) continue;
    out[i] = publishes[pub[batch[i]]].return_s - due_s[i];
  }
  return out;
}

// --------------------------------------------------------------- health

/// True when a backlog gauge, sampled evenly with `per_period` samples per
/// write period, stops draining: its minimum over the last period exceeds
/// its minimum over the first by more than `slack`. Bursts and stalls that
/// drain within their period are not growth.
inline bool growing(const std::vector<double>& samples, std::size_t per_period,
                    double slack) {
  if (per_period == 0 || samples.size() < 2 * per_period) return false;
  const double head = *std::min_element(samples.begin(), samples.begin() + per_period);
  const double tail = *std::min_element(samples.end() - per_period, samples.end());
  return tail > head + slack;
}

}  // namespace e2e
