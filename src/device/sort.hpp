// Least-significant-digit radix sort — the mgpu::mergesort stand-in.
//
// The Euler tour construction sorts the directed half-edge array by source
// (§2.1, "the costly sorting"): 32-bit node-id keys carrying a 32-bit
// half-edge id payload. Classic parallel LSD radix
// sort with the per-pass kernels fused, the way tuned GPU sorts (onesweep
// and friends) fuse them:
//
//   * kernel 0 reads the keys once, producing the digit-0 histograms AND
//     the per-chunk maximum key (so the pass count adapts to the bits
//     actually present without the separate reduce the old code paid);
//   * each pass is then ONE scatter kernel: while an element streams to its
//     slot, the kernel also bins the element's *next* digit into the
//     per-worker histogram of the output chunk the slot lands in, so the
//     following pass starts with its histograms already built. Per-worker
//     tables (via parallel_for_worker) keep the accumulation free of atomic
//     contention; the host merges them between passes, like the tiny
//     chunk-base scan it already does.
//
// Double buffers and histograms live in the context arena: steady-state
// sorting performs no allocations. 8-bit digits; the pass count follows the
// largest key, so a tour sort at n nodes runs ceil(log2(n) / 8) passes (3
// at 1M nodes) instead of 4 for a full 32-bit key.
#pragma once

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "device/arena.hpp"
#include "device/context.hpp"
#include "device/primitives.hpp"

namespace emc::device {

namespace detail {

constexpr int kDigitBits = 8;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;

template <typename Key>
int radix_passes_for(Key max_key) {
  constexpr int kMaxBits = static_cast<int>(sizeof(Key) * 8);
  int bits = 1;
  while (bits < kMaxBits && (max_key >> bits) != 0) ++bits;
  return (bits + kDigitBits - 1) / kDigitBits;
}

/// Turns per-chunk digit counts into stable scatter bases, in place.
/// Column-major (digit d then chunk c) so each chunk owns a contiguous span
/// per digit.
inline void scan_scatter_bases(std::size_t* counts, std::size_t num_chunks) {
  std::size_t running = 0;
  for (std::size_t d = 0; d < kBuckets; ++d) {
    for (std::size_t c = 0; c < num_chunks; ++c) {
      std::size_t& cell = counts[c * kBuckets + d];
      const std::size_t count = cell;
      cell = running;
      running += count;
    }
  }
}

/// One fused radix pass: stable scatter by the digit at `shift`, and (when
/// `next_counts` is non-null) histogram the digit at `shift + kDigitBits`
/// of every scattered element into its output chunk's per-worker table.
/// `Value == void*` sentinel is avoided by a separate overload; this one
/// moves keys plus values.
template <typename Key, typename Value>
void scatter_pass(const Context& ctx, std::size_t n, std::size_t grain,
                  const Key* key_in, Key* key_out, const Value* value_in,
                  Value* value_out, std::size_t* counts,
                  std::size_t* next_counts, int shift) {
  const int next_shift = shift + kDigitBits;
  ctx.pool().parallel_for_worker(
      n, grain,
      [&](unsigned worker, std::size_t begin, std::size_t end) {
        std::size_t* local = counts + (begin / grain) * kBuckets;
        std::size_t* next_local =
            next_counts ? next_counts + worker * ((n + grain - 1) / grain) *
                                            kBuckets
                        : nullptr;
        for (std::size_t i = begin; i < end; ++i) {
          const Key k = key_in[i];
          const std::size_t slot = local[(k >> shift) & (kBuckets - 1)]++;
          key_out[slot] = k;
          if constexpr (!std::is_void_v<Value>) {
            value_out[slot] = value_in[i];
          }
          if (next_local) {
            ++next_local[(slot / grain) * kBuckets +
                         ((k >> next_shift) & (kBuckets - 1))];
          }
        }
      });
}

/// Core LSD loop shared by sort_pairs and sort_keys. Value may be void.
template <typename Key, typename Value>
void radix_sort(const Context& ctx, Key* keys, Value* values, std::size_t n) {
  if (n <= 1) return;
  const std::size_t grain = ctx.grain_for(n);
  const std::size_t num_chunks = (n + grain - 1) / grain;
  const unsigned workers = ctx.workers();

  // Fusing the next pass's histogram into the scatter pays off while the
  // per-worker tables stay cache-resident; their size and the serial host
  // merge grow with workers x chunks (chunks itself ~4 x workers), so very
  // wide pools would spend more on the merge than the histogram kernel the
  // fusion removes. Past this budget, keep a separate histogram kernel.
  const std::size_t worker_table_cells = workers * num_chunks * kBuckets;
  const bool fuse_histograms =
      worker_table_cells * sizeof(std::size_t) <= (std::size_t{1} << 21);

  Arena::Scope scope(ctx.arena());
  Key* key_buf = scope.get<Key>(n);
  Value* value_buf = nullptr;
  if constexpr (!std::is_void_v<Value>) value_buf = scope.get<Value>(n);
  std::size_t* counts = scope.get<std::size_t>(num_chunks * kBuckets);
  std::size_t* worker_counts =
      fuse_histograms ? scope.get<std::size_t>(worker_table_cells) : nullptr;
  Key* chunk_max = scope.get<Key>(num_chunks);

  // Kernel 0: digit-0 histograms and the maximum key, one fused read.
  std::memset(counts, 0, num_chunks * kBuckets * sizeof(std::size_t));
  ctx.pool().parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
    std::size_t* local = counts + (begin / grain) * kBuckets;
    Key mx = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const Key k = keys[i];
      if (k > mx) mx = k;
      ++local[k & (kBuckets - 1)];
    }
    chunk_max[begin / grain] = mx;
  });
  Key max_key = 0;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    if (chunk_max[c] > max_key) max_key = chunk_max[c];
  }
  const int passes = radix_passes_for(max_key);

  Key* key_in = keys;
  Key* key_out = key_buf;
  Value* value_in = values;
  Value* value_out = value_buf;

  for (int pass = 0; pass < passes; ++pass) {
    scan_scatter_bases(counts, num_chunks);
    const bool histogram_next = pass + 1 < passes;
    std::size_t* next_counts =
        histogram_next && fuse_histograms ? worker_counts : nullptr;
    if (next_counts) {
      std::memset(next_counts, 0, worker_table_cells * sizeof(std::size_t));
    }
    scatter_pass(ctx, n, grain, key_in, key_out, value_in, value_out, counts,
                 next_counts, pass * kDigitBits);
    if (next_counts) {
      // Merge the per-worker tables into the next pass's chunk histograms.
      std::memset(counts, 0, num_chunks * kBuckets * sizeof(std::size_t));
      for (unsigned w = 0; w < workers; ++w) {
        const std::size_t* src = next_counts + w * num_chunks * kBuckets;
        for (std::size_t cell = 0; cell < num_chunks * kBuckets; ++cell) {
          counts[cell] += src[cell];
        }
      }
    } else if (histogram_next) {
      // Wide-pool fallback: classic standalone histogram of the scattered
      // output, one read pass.
      const int next_shift = (pass + 1) * kDigitBits;
      std::memset(counts, 0, num_chunks * kBuckets * sizeof(std::size_t));
      ctx.pool().parallel_for(
          n, grain, [&](std::size_t begin, std::size_t end) {
            std::size_t* local = counts + (begin / grain) * kBuckets;
            for (std::size_t i = begin; i < end; ++i) {
              ++local[(key_out[i] >> next_shift) & (kBuckets - 1)];
            }
          });
    }
    std::swap(key_in, key_out);
    if constexpr (!std::is_void_v<Value>) std::swap(value_in, value_out);
  }
  if (key_in != keys) {
    launch(ctx, n, [&](std::size_t i) {
      keys[i] = key_in[i];
      if constexpr (!std::is_void_v<Value>) values[i] = value_in[i];
    });
  }
}

}  // namespace detail

/// Sorts keys[0, n) ascending, permuting values alongside. Stable.
template <typename Key, typename Value>
void sort_pairs(const Context& ctx, Key* keys, Value* values, std::size_t n) {
  detail::radix_sort<Key, Value>(ctx, keys, values, n);
}

/// Sorts keys[0, n) ascending. Stable.
template <typename Key>
void sort_keys(const Context& ctx, Key* keys, std::size_t n) {
  detail::radix_sort<Key, void>(ctx, keys, nullptr, n);
}

/// Vector conveniences (the pointer forms are the primary API — they let
/// callers sort arena-resident scratch).
template <typename Key, typename Value>
void sort_pairs(const Context& ctx, std::vector<Key>& keys,
                std::vector<Value>& values) {
  sort_pairs(ctx, keys.data(), values.data(), keys.size());
}

template <typename Key>
void sort_keys(const Context& ctx, std::vector<Key>& keys) {
  sort_keys(ctx, keys.data(), keys.size());
}

}  // namespace emc::device
