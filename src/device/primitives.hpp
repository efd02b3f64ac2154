// Bulk data-parallel primitives — the moderngpu stand-in.
//
// The paper leans on the moderngpu library for sort, scan and segreduce
// ("Using the library throughout the implementation saves us the burden of
// low-level fine tuning", §2.2). This header provides the same primitive set
// over the thread-pool device simulation:
//
//   launch        — bulk kernel over [0, n)          (cta/thread grid)
//   launch_blocks — the same in fixed-size chunks    (one cta per block)
//   transform     — map                              (mgpu::transform)
//   reduce        — reduction                        (mgpu::reduce)
//   *_scan        — array prefix sums                (mgpu::scan)
//   gather/scatter
//   compact / compact_split / copy_if_index / copy_if — stream compaction
//                   (callback / both sides / indices / values)
//
// Tuning mirrors what the real library does for the GPU:
//   * scratch (reduce partials, scan chunk states) comes from the context's
//     arena, never from a per-call allocation;
//   * scans and compaction are SINGLE kernels using the chained-scan
//     ("decoupled lookback") structure — each chunk publishes its running
//     prefix and the next chunk picks it up in the same launch — instead of
//     the classic two-kernel upsweep/downsweep, halving the per-call
//     launch-overhead charge;
//   * the scan inner loop breaks the carry chain with tree partials and,
//     where the architecture allows, writes through non-temporal stores so
//     the output array does not pay a read-for-ownership.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <thread>
#include <type_traits>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "device/arena.hpp"
#include "device/context.hpp"

namespace emc::device {

/// Bulk kernel: runs f(i) for every i in [0, n).
template <typename F>
void launch(const Context& ctx, std::size_t n, F&& f) {
  ctx.pool().parallel_for(n, ctx.grain_for(n),
                          [&f](std::size_t begin, std::size_t end) {
                            for (std::size_t i = begin; i < end; ++i) f(i);
                          });
}

/// Bulk kernel over [0, n) in chunks of `block` elements: f(begin, end)
/// runs once per chunk, so a kernel that walks a sorted structure alongside
/// its range pays one search per chunk. launch's grain would run a few
/// hundred such chunks as one.
template <typename F>
void launch_blocks(const Context& ctx, std::size_t n, std::size_t block,
                   F&& f) {
  ctx.pool().parallel_for(n, block, [&f](std::size_t begin, std::size_t end) {
    f(begin, end);
  });
}

/// out[i] = f(i). `out` may alias inputs of f only elementwise.
template <typename T, typename F>
void transform(const Context& ctx, std::size_t n, T* out, F&& f) {
  launch(ctx, n, [&](std::size_t i) { out[i] = f(i); });
}

template <typename T>
void fill(const Context& ctx, std::size_t n, T* out, T value) {
  launch(ctx, n, [&](std::size_t i) { out[i] = value; });
}

template <typename T>
void iota(const Context& ctx, std::size_t n, T* out) {
  launch(ctx, n, [&](std::size_t i) { out[i] = static_cast<T>(i); });
}

namespace detail {

/// Per-chunk handoff cell for chained scans: `value` holds the inclusive
/// prefix over chunks [0..c] once `ready` is set. One cache line per chunk
/// so publishing never false-shares with a neighbor's spin.
template <typename T>
struct alignas(Arena::kAlign) ChunkState {
  T value;
  std::uint32_t ready;
};

/// Spin-then-yield: chunks are claimed in index order, so the predecessor is
/// always in flight, but its worker may be preempted on an oversubscribed
/// machine — yield keeps the wait bounded by a timeslice instead of burning
/// one.
inline void backoff(unsigned& spins) {
  if (++spins >= 64) {
    std::this_thread::yield();
    spins = 0;
  }
}

template <typename T>
bool chunk_ready(ChunkState<T>& state) {
  return std::atomic_ref<std::uint32_t>(state.ready).load(
             std::memory_order_acquire) != 0;
}

template <typename T>
void chunk_publish(ChunkState<T>& state, T value) {
  state.value = value;
  std::atomic_ref<std::uint32_t>(state.ready).store(1,
                                                    std::memory_order_release);
}

template <typename T>
T chunk_wait(ChunkState<T>& state) {
  unsigned spins = 0;
  std::atomic_ref<std::uint32_t> flag(state.ready);
  while (flag.load(std::memory_order_acquire) == 0) backoff(spins);
  return state.value;
}

template <typename T>
constexpr bool kStreamable =
    std::is_integral_v<T> && (sizeof(T) == 8 || sizeof(T) == 4);

/// Running prefix of in[0..count) written to out, starting from `carry`;
/// returns carry + sum(in). kInclusive picks out[i] = carry + sum(in[0..i])
/// versus sum(in[0..i)). The 4/8-wide blocks compute tree partials so the
/// loop-carried chain advances once per block, not once per element, and
/// `stream` (requires out not aliasing in) uses non-temporal stores to skip
/// the read-for-ownership on `out`.
template <bool kInclusive, typename T>
T prefix_block(const T* in, T* out, std::size_t count, T carry, bool stream) {
  std::size_t i = 0;
#if defined(__AVX2__)
  // In-register prefix via lane shifts (the classic Hillis-Steele step done
  // inside one vector), so the loop-carried chain is one broadcast+add per
  // vector instead of one add per element. Streaming variant additionally
  // skips the read-for-ownership on `out` with non-temporal stores.
  if constexpr (kStreamable<T>) {
    if (count >= 64) {
      constexpr std::size_t kLane = 32 / sizeof(T);
      if (stream) {
        // NT stores need 32-byte-aligned targets; peel scalar head.
        while ((reinterpret_cast<std::uintptr_t>(out + i) & 31) != 0) {
          const T v = in[i];
          if constexpr (kInclusive) {
            carry += v;
            out[i] = carry;
          } else {
            out[i] = carry;
            carry += v;
          }
          ++i;
        }
      }
      __m256i carry_v;
      if constexpr (sizeof(T) == 8) {
        carry_v = _mm256_set1_epi64x(static_cast<long long>(carry));
      } else {
        carry_v = _mm256_set1_epi32(static_cast<int>(carry));
      }
      const __m256i zero = _mm256_setzero_si256();
      for (; i + kLane <= count; i += kLane) {
        __m256i v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
        __m256i incl;
        if constexpr (sizeof(T) == 8) {
          v = _mm256_add_epi64(v, _mm256_slli_si256(v, 8));
          __m256i low = _mm256_permute4x64_epi64(v, 0x55);  // lane1 everywhere
          low = _mm256_blend_epi32(low, zero, 0x0F);        // only high 128
          v = _mm256_add_epi64(v, low);
          incl = _mm256_add_epi64(v, carry_v);
          __m256i store_v = incl;
          if constexpr (!kInclusive) {
            // Shift the inclusive prefix one lane up; lane 0 is the carry.
            store_v = _mm256_permute4x64_epi64(incl, 0x90);
            store_v = _mm256_blend_epi32(store_v, carry_v, 0x03);
          }
          if (stream) {
            _mm256_stream_si256(reinterpret_cast<__m256i*>(out + i), store_v);
          } else {
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), store_v);
          }
          carry_v = _mm256_permute4x64_epi64(incl, 0xFF);  // lane3 everywhere
        } else {
          v = _mm256_add_epi32(v, _mm256_slli_si256(v, 4));
          v = _mm256_add_epi32(v, _mm256_slli_si256(v, 8));
          __m256i low = _mm256_permutevar8x32_epi32(v, _mm256_set1_epi32(3));
          low = _mm256_blend_epi32(low, zero, 0x0F);
          v = _mm256_add_epi32(v, low);
          incl = _mm256_add_epi32(v, carry_v);
          __m256i store_v = incl;
          if constexpr (!kInclusive) {
            store_v = _mm256_permutevar8x32_epi32(
                incl, _mm256_set_epi32(6, 5, 4, 3, 2, 1, 0, 0));
            store_v = _mm256_blend_epi32(store_v, carry_v, 0x01);
          }
          if (stream) {
            _mm256_stream_si256(reinterpret_cast<__m256i*>(out + i), store_v);
          } else {
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), store_v);
          }
          carry_v = _mm256_permutevar8x32_epi32(incl, _mm256_set1_epi32(7));
        }
      }
      if (stream) _mm_sfence();
      if constexpr (sizeof(T) == 8) {
        carry = static_cast<T>(_mm256_extract_epi64(carry_v, 0));
      } else {
        carry = static_cast<T>(_mm256_extract_epi32(carry_v, 0));
      }
    }
  }
#else
  (void)stream;
#endif
  // Tree-partial tail/fallback; reads the whole 4-block before writing it,
  // which also makes the in == out case safe.
  for (; i + 4 <= count; i += 4) {
    const T s0 = in[i], s1 = s0 + in[i + 1];
    const T s2 = in[i + 2], s3 = s2 + in[i + 3];
    if constexpr (kInclusive) {
      out[i] = carry + s0;
      out[i + 1] = carry + s1;
      out[i + 2] = carry + s1 + s2;
      out[i + 3] = carry + s1 + s3;
    } else {
      out[i] = carry;
      out[i + 1] = carry + s0;
      out[i + 2] = carry + s1;
      out[i + 3] = carry + s1 + s2;
    }
    carry += s1 + s3;
  }
  for (; i < count; ++i) {
    const T v = in[i];  // read before write: supports in == out
    if constexpr (kInclusive) {
      carry += v;
      out[i] = carry;
    } else {
      out[i] = carry;
      carry += v;
    }
  }
  return carry;
}

/// The chained-lookback protocol shared by scans and compaction: ONE kernel
/// whose chunks are claimed in index order. A chunk whose predecessor has
/// already published its running prefix (always true with one worker, the
/// common case under in-order dynamic scheduling) runs `emit` directly;
/// otherwise it computes its own contribution with `aggregate` so the wait
/// overlaps useful work, publishes early so successors unblock, then emits
/// over its (cache-warm) range.
///
/// aggregate(begin, end) -> the chunk's contribution alone;
/// emit(begin, end, base) -> processes the chunk given the prefix `base`
/// over all earlier chunks and returns base + contribution. Returns the
/// grand total. This is subtle lock-free code — keep every user on this one
/// copy.
template <typename T, typename AggregateFn, typename EmitFn>
T chunk_lookback(const Context& ctx, std::size_t n, AggregateFn&& aggregate,
                 EmitFn&& emit) {
  if (n == 0) return T{};
  const std::size_t grain = ctx.grain_for(n);
  const std::size_t num_chunks = (n + grain - 1) / grain;
  Arena::Scope scope(ctx.arena());
  auto* state = scope.get<ChunkState<T>>(num_chunks);
  for (std::size_t c = 0; c < num_chunks; ++c) state[c].ready = 0;
  ctx.pool().parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
    const std::size_t c = begin / grain;
    T base{};
    if (c != 0) {
      if (chunk_ready(state[c - 1])) {
        base = state[c - 1].value;
      } else {
        const T local = aggregate(begin, end);
        base = chunk_wait(state[c - 1]);
        chunk_publish(state[c], static_cast<T>(base + local));
        emit(begin, end, base);
        return;
      }
    }
    chunk_publish(state[c], emit(begin, end, base));
  });
  return state[num_chunks - 1].value;
}

template <bool kInclusive, typename T>
T chained_scan(const Context& ctx, const T* in, std::size_t n, T* out) {
  const bool stream = in != out;
  return chunk_lookback<T>(
      ctx, n,
      [&](std::size_t begin, std::size_t end) {
        T local{};
        for (std::size_t i = begin; i < end; ++i) local += in[i];
        return local;
      },
      [&](std::size_t begin, std::size_t end, T base) {
        return prefix_block<kInclusive>(in + begin, out + begin, end - begin,
                                        base, stream);
      });
}

}  // namespace detail

/// Reduction of f(i) over [0, n) with operator `op` and identity `init`.
template <typename T, typename F, typename Op>
T reduce(const Context& ctx, std::size_t n, T init, F&& f, Op&& op) {
  if (n == 0) return init;
  const std::size_t grain = ctx.grain_for(n);
  const std::size_t num_chunks = (n + grain - 1) / grain;
  Arena::Scope scope(ctx.arena());
  T* partial = scope.get<T>(num_chunks);
  ctx.pool().parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
    T acc = init;
    for (std::size_t i = begin; i < end; ++i) acc = op(acc, f(i));
    partial[begin / grain] = acc;
  });
  T total = init;
  for (std::size_t c = 0; c < num_chunks; ++c) total = op(total, partial[c]);
  return total;
}

/// Sum of values[0, n).
template <typename T>
T reduce_sum(const Context& ctx, const T* values, std::size_t n) {
  return reduce(
      ctx, n, T{0}, [&](std::size_t i) { return values[i]; },
      [](T a, T b) { return a + b; });
}

/// Exclusive prefix sum: out[i] = sum of in[0..i). Returns the grand total.
/// in == out aliasing is allowed.
template <typename T>
T exclusive_scan(const Context& ctx, const T* in, std::size_t n, T* out) {
  return detail::chained_scan<false>(ctx, in, n, out);
}

/// Inclusive prefix sum: out[i] = sum of in[0..i]. Returns the grand total.
/// in == out aliasing is allowed.
template <typename T>
T inclusive_scan(const Context& ctx, const T* in, std::size_t n, T* out) {
  return detail::chained_scan<true>(ctx, in, n, out);
}

/// out[i] = in[index[i]].
template <typename T, typename I>
void gather(const Context& ctx, const T* in, const I* index, std::size_t n,
            T* out) {
  launch(ctx, n, [&](std::size_t i) { out[i] = in[index[i]]; });
}

/// out[index[i]] = in[i]. Indices must be distinct.
template <typename T, typename I>
void scatter(const Context& ctx, const T* in, const I* index, std::size_t n,
             T* out) {
  launch(ctx, n, [&](std::size_t i) { out[index[i]] = in[i]; });
}

/// Stream compaction's one kernel: for each i in [0, n) with pred(i) true,
/// in increasing order, calls emit(slot, i) with slot its rank among the
/// selected. Returns the count. Single chained kernel (the flag/scan/scatter
/// trio fused): each chunk learns how many indices earlier chunks selected,
/// then emits its own. pred must be pure — a chunk that has to wait
/// evaluates it twice; emit runs exactly once per selected index, so it may
/// also do the selected element's work (the CC's crossing-edge rounds
/// propose hooks from it).
template <typename Pred, typename Emit>
std::size_t compact(const Context& ctx, std::size_t n, Pred&& pred,
                    Emit&& emit) {
  return detail::chunk_lookback<std::size_t>(
      ctx, n,
      [&](std::size_t begin, std::size_t end) {
        std::size_t local = 0;
        for (std::size_t i = begin; i < end; ++i) local += pred(i) ? 1 : 0;
        return local;
      },
      [&](std::size_t begin, std::size_t end, std::size_t base) {
        for (std::size_t i = begin; i < end; ++i) {
          if (pred(i)) emit(base++, i);
        }
        return base;
      });
}

/// Two-sided stream compaction, one chained kernel like compact(): for each
/// i in [0, n) in increasing order, calls emit(slot, i) when pred(i) holds
/// and reject(slot, i) when it does not, each slot the index's rank among
/// its own side. Returns the selected count.
template <typename Pred, typename Emit, typename Reject>
std::size_t compact_split(const Context& ctx, std::size_t n, Pred&& pred,
                          Emit&& emit, Reject&& reject) {
  return detail::chunk_lookback<std::size_t>(
      ctx, n,
      [&](std::size_t begin, std::size_t end) {
        std::size_t local = 0;
        for (std::size_t i = begin; i < end; ++i) local += pred(i) ? 1 : 0;
        return local;
      },
      [&](std::size_t begin, std::size_t end, std::size_t base) {
        for (std::size_t i = begin; i < end; ++i) {
          if (pred(i)) {
            emit(base++, i);
          } else {
            reject(i - base, i);
          }
        }
        return base;
      });
}

/// Stream compaction: writes the indices i in [0, n) with pred(i) true, in
/// increasing order, to `out_indices` (must have room for n entries).
/// Returns the number written.
template <typename I, typename Pred>
std::size_t copy_if_index(const Context& ctx, std::size_t n, Pred&& pred,
                          I* out_indices) {
  return compact(ctx, n, pred, [&](std::size_t slot, std::size_t i) {
    out_indices[slot] = static_cast<I>(i);
  });
}

/// Stream compaction by value: writes in[i] for every i in [0, n) with
/// pred(i) true, in increasing order, to `out` (room for the survivors).
/// Returns the number written.
template <typename T, typename Pred>
std::size_t copy_if(const Context& ctx, const T* in, std::size_t n,
                    Pred&& pred, T* out) {
  return compact(ctx, n, pred, [&](std::size_t slot, std::size_t i) {
    out[slot] = in[i];
  });
}

/// Device-style atomic min on a plain integer location.
template <typename T>
void atomic_min(T* location, T value) {
  std::atomic_ref<T> ref(*location);
  T current = ref.load(std::memory_order_relaxed);
  while (value < current &&
         !ref.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
  }
}

/// Device-style atomic max on a plain integer location.
template <typename T>
void atomic_max(T* location, T value) {
  std::atomic_ref<T> ref(*location);
  T current = ref.load(std::memory_order_relaxed);
  while (value > current &&
         !ref.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
  }
}

/// Device-style atomic compare-and-swap; returns the previous value.
template <typename T>
T atomic_cas(T* location, T expected, T desired) {
  std::atomic_ref<T> ref(*location);
  ref.compare_exchange_strong(expected, desired, std::memory_order_acq_rel);
  return expected;
}

}  // namespace emc::device
