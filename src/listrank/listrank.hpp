// List ranking — the PRAM building block at the heart of the Euler tour
// technique (§2.2).
//
// Input: a singly-linked list over elements [0, n), given as a successor
// array (`next[i]` is the element after i; next[tail] = kNoEdge), plus the
// head element. Output: rank[i] = distance from the head (head gets 0).
//
// Three implementations, matching the paper's discussion:
//   rank_sequential — single pointer walk, the CPU baseline.
//   rank_wyllie     — classical pointer jumping: O(log n) rounds of
//                     full-width doubling, O(n log n) work. Kept as the
//                     ablation baseline ("performs much better than the
//                     classical pointer jumping technique").
//   rank_wei_jaja   — the GPU-optimized algorithm of Wei & JáJá [64]:
//                     random splitters cut the list into ~s sublists, each
//                     walked sequentially in parallel; a short sequential
//                     pass orders the sublists; a final flat kernel adds
//                     each element's sublist offset. O(n) work, two bulk
//                     phases.
//
// list_prefix_* computes inclusive prefix sums of arbitrary per-element
// values in list order — the "prefix sum on the tour" operation that the
// §2.2 optimization replaces with array scans.
#pragma once

#include <cstdint>
#include <vector>

#include "device/context.hpp"
#include "util/types.hpp"

namespace emc::listrank {

/// rank[i] = distance of i from head along `next`. Elements not on the list
/// keep an unspecified value. Requires a nil-terminated, acyclic list.
void rank_sequential(const std::vector<EdgeId>& next, EdgeId head,
                     std::vector<EdgeId>& rank);

/// Wyllie pointer jumping. Double-buffered: no data races, log2(n) barriers.
void rank_wyllie(const device::Context& ctx, const std::vector<EdgeId>& next,
                 EdgeId head, std::vector<EdgeId>& rank);

/// Wei-JáJá two-phase ranking. `num_sublists` 0 picks ~n/64 (clamped), the
/// empirically good regime from the original paper. Unlike the two above,
/// the list must visit every element of [0, n) (an Euler tour's does).
void rank_wei_jaja(const device::Context& ctx, const std::vector<EdgeId>& next,
                   EdgeId head, std::vector<EdgeId>& rank,
                   std::size_t num_sublists = 0, std::uint64_t seed = 0x5eed);

/// Inclusive prefix sums of `values` in list order, written to out[i] for
/// every list element i: out[i] = sum of values of head..i inclusive.
void prefix_sequential(const std::vector<EdgeId>& next, EdgeId head,
                       const std::vector<std::int64_t>& values,
                       std::vector<std::int64_t>& out);

/// Same, parallel (Wei-JáJá structure with value accumulation); the list
/// must visit every element, as for rank_wei_jaja.
void prefix_wei_jaja(const device::Context& ctx,
                     const std::vector<EdgeId>& next, EdgeId head,
                     const std::vector<std::int64_t>& values,
                     std::vector<std::int64_t>& out,
                     std::size_t num_sublists = 0, std::uint64_t seed = 0x5eed);

}  // namespace emc::listrank
