#include "listrank/listrank.hpp"

#include <algorithm>
#include <cassert>

#include "device/arena.hpp"
#include "device/primitives.hpp"
#include "util/rng.hpp"

namespace emc::listrank {

void rank_sequential(const std::vector<EdgeId>& next, EdgeId head,
                     std::vector<EdgeId>& rank) {
  rank.resize(next.size());
  EdgeId r = 0;
  for (EdgeId i = head; i != kNoEdge; i = next[i]) rank[i] = r++;
}

void rank_wyllie(const device::Context& ctx, const std::vector<EdgeId>& next,
                 EdgeId head, std::vector<EdgeId>& rank) {
  const std::size_t n = next.size();
  rank.resize(n);
  if (n == 0) return;
  // dist[i] = number of hops from i to the tail, computed by doubling;
  // rank-from-head then follows as dist[head] - dist[i]. All four doubling
  // buffers are arena scratch.
  device::Arena::Scope scope(ctx.arena());
  EdgeId* dist = scope.get<EdgeId>(n);
  EdgeId* dist_next = scope.get<EdgeId>(n);
  EdgeId* jump = scope.get<EdgeId>(n);
  EdgeId* jump_next = scope.get<EdgeId>(n);
  device::launch(ctx, n, [&](std::size_t i) {
    jump[i] = next[i];
    dist[i] = next[i] == kNoEdge ? EdgeId{0} : EdgeId{1};
  });
  bool live = true;
  while (live) {
    // One doubling round. Double-buffered so reads see a consistent epoch —
    // this is the global barrier a GPU kernel boundary provides.
    std::atomic<int> any_live{0};
    device::launch(ctx, n, [&](std::size_t i) {
      const EdgeId j = jump[i];
      if (j == kNoEdge) {
        dist_next[i] = dist[i];
        jump_next[i] = kNoEdge;
      } else {
        dist_next[i] = dist[i] + dist[j];
        jump_next[i] = jump[j];
        if (jump[j] != kNoEdge) any_live.store(1, std::memory_order_relaxed);
      }
    });
    std::swap(dist, dist_next);
    std::swap(jump, jump_next);
    live = any_live.load(std::memory_order_relaxed) != 0;
  }
  const EdgeId head_dist = dist[head];
  device::transform(ctx, n, rank.data(),
                    [&](std::size_t i) { return head_dist - dist[i]; });
}

namespace {

/// Shared skeleton of the Wei-JáJá algorithm. `WeightFn(i)` gives the weight
/// contributed by element i; we compute the *inclusive* prefix in `out` when
/// inclusive=true, and the 0-based hop rank when the weight is identically 1
/// and inclusive=false (head rank 0).
template <typename Value, typename WeightFn>
void wei_jaja_generic(const device::Context& ctx,
                      const std::vector<EdgeId>& next, EdgeId head,
                      WeightFn&& weight, bool inclusive,
                      std::vector<Value>& out, std::size_t num_sublists,
                      std::uint64_t seed) {
  const std::size_t n = next.size();
  out.resize(n);
  if (n == 0) return;

  if (num_sublists == 0) num_sublists = std::max<std::size_t>(1, n / 64);
  num_sublists = std::min(num_sublists, n);

  device::Arena::Scope scope(ctx.arena());

  // --- Splitter selection. The head must be a splitter; the rest are random
  // (duplicates collapse, which only reduces the sublist count). The single
  // host pass that compacts the marked elements also records each splitter's
  // sublist index in `owner`, replacing the scatter kernel the old code
  // launched.
  std::uint8_t* is_splitter = scope.get<std::uint8_t>(n);
  std::fill(is_splitter, is_splitter + n, 0);
  is_splitter[head] = 1;
  util::Rng rng(seed);
  for (std::size_t s = 1; s < num_sublists; ++s) {
    is_splitter[rng.below(n)] = 1;
  }
  EdgeId* splitters = scope.get<EdgeId>(num_sublists);
  EdgeId* owner = scope.get<EdgeId>(n);
  std::size_t s = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (is_splitter[i]) {
      owner[i] = static_cast<EdgeId>(s);
      splitters[s++] = static_cast<EdgeId>(i);
    }
  }

  // --- Phase 1: walk each sublist sequentially, in parallel over sublists.
  // Records each element's inclusive within-sublist prefix and, past the
  // splitter, its sublist in `owner`; then the sublist's total and which
  // sublist follows it on the global list.
  Value* local = scope.get<Value>(n);
  Value* sublist_total = scope.get<Value>(s);
  EdgeId* next_sublist = scope.get<EdgeId>(s);
  device::launch(ctx, s, [&](std::size_t k) {
    EdgeId i = splitters[k];
    Value acc{0};
    while (true) {
      acc += weight(static_cast<std::size_t>(i));
      local[i] = acc;
      const EdgeId succ = next[i];
      if (succ == kNoEdge) {
        next_sublist[k] = kNoEdge;
        break;
      }
      if (is_splitter[succ]) {
        next_sublist[k] = owner[succ];
        break;
      }
      owner[succ] = static_cast<EdgeId>(k);
      i = succ;
    }
    sublist_total[k] = acc;
  });

  // --- Phase 2: sequential scan over the (short) chain of sublists, in
  // global list order starting from the head's sublist.
  Value* sublist_offset = scope.get<Value>(s);
  {
    Value acc{0};
    EdgeId k = owner[head];
    std::size_t visited = 0;
    while (k != kNoEdge) {
      sublist_offset[k] = acc;
      acc += sublist_total[k];
      k = next_sublist[k];
      assert(++visited <= s && "cycle in list");
      (void)visited;
    }
  }

  // --- Phase 3: one flat kernel adds each element's sublist offset; the
  // owner ids from phase 1 spare a second pointer-chasing walk. The
  // inclusive-to-0-based conversion folds into the same kernel.
  const Value bias = inclusive ? Value{0} : Value{1};
  device::launch(ctx, n, [&](std::size_t i) {
    out[i] = local[i] + sublist_offset[owner[i]] - bias;
  });
}

}  // namespace

void rank_wei_jaja(const device::Context& ctx, const std::vector<EdgeId>& next,
                   EdgeId head, std::vector<EdgeId>& rank,
                   std::size_t num_sublists, std::uint64_t seed) {
  wei_jaja_generic<EdgeId>(
      ctx, next, head, [](std::size_t) { return EdgeId{1}; },
      /*inclusive=*/false, rank, num_sublists, seed);
}

void prefix_sequential(const std::vector<EdgeId>& next, EdgeId head,
                       const std::vector<std::int64_t>& values,
                       std::vector<std::int64_t>& out) {
  out.resize(next.size());
  std::int64_t acc = 0;
  for (EdgeId i = head; i != kNoEdge; i = next[i]) {
    acc += values[i];
    out[i] = acc;
  }
}

void prefix_wei_jaja(const device::Context& ctx,
                     const std::vector<EdgeId>& next, EdgeId head,
                     const std::vector<std::int64_t>& values,
                     std::vector<std::int64_t>& out, std::size_t num_sublists,
                     std::uint64_t seed) {
  wei_jaja_generic<std::int64_t>(
      ctx, next, head, [&](std::size_t i) { return values[i]; },
      /*inclusive=*/true, out, num_sublists, seed);
}

}  // namespace emc::listrank
