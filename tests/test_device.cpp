#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <numeric>
#include <utility>
#include <vector>

#include "device/context.hpp"
#include "device/primitives.hpp"
#include "device/union_find.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace emc::device {
namespace {

// Most primitive tests run under several worker counts: even on a 1-core
// machine the multi-worker pool exercises the chunking/barrier logic.
class DeviceParam
    : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t>> {
 protected:
  Context ctx_{std::get<0>(GetParam())};
  std::size_t n_ = std::get<1>(GetParam());
};

INSTANTIATE_TEST_SUITE_P(
    WorkersAndSizes, DeviceParam,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{2}, std::size_t{17},
                                         std::size_t{1000},
                                         std::size_t{100'000})));

TEST_P(DeviceParam, LaunchCoversEveryIndexOnce) {
  std::vector<int> hits(n_, 0);
  launch(ctx_, n_, [&](std::size_t i) {
    std::atomic_ref<int>(hits[i]).fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n_; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST_P(DeviceParam, TransformMapsIndices) {
  std::vector<std::int64_t> out(n_);
  transform(ctx_, n_, out.data(),
            [](std::size_t i) { return static_cast<std::int64_t>(i * i); });
  for (std::size_t i = 0; i < n_; ++i) {
    ASSERT_EQ(out[i], static_cast<std::int64_t>(i * i));
  }
}

TEST_P(DeviceParam, FillAndIota) {
  std::vector<int> a(n_, -1), b(n_, -1);
  fill(ctx_, n_, a.data(), 7);
  iota(ctx_, n_, b.data());
  for (std::size_t i = 0; i < n_; ++i) {
    ASSERT_EQ(a[i], 7);
    ASSERT_EQ(b[i], static_cast<int>(i));
  }
}

TEST_P(DeviceParam, ReduceMatchesAccumulate) {
  util::Rng rng(n_ + 1);
  std::vector<std::int64_t> values(n_);
  for (auto& v : values) v = static_cast<std::int64_t>(rng.below(1000)) - 500;
  const auto expected =
      std::accumulate(values.begin(), values.end(), std::int64_t{0});
  EXPECT_EQ(reduce_sum(ctx_, values.data(), n_), expected);
}

TEST_P(DeviceParam, ReduceMax) {
  util::Rng rng(n_ + 2);
  std::vector<std::int64_t> values(n_);
  for (auto& v : values) v = static_cast<std::int64_t>(rng.below(1 << 20));
  const auto expected =
      n_ == 0 ? std::int64_t{-1}
              : *std::max_element(values.begin(), values.end());
  const auto got = reduce(
      ctx_, n_, std::int64_t{-1}, [&](std::size_t i) { return values[i]; },
      [](std::int64_t a, std::int64_t b) { return std::max(a, b); });
  EXPECT_EQ(got, expected);
}

TEST_P(DeviceParam, ExclusiveScanMatchesReference) {
  util::Rng rng(n_ + 3);
  std::vector<std::int64_t> in(n_), out(n_), expected(n_);
  for (auto& v : in) v = static_cast<std::int64_t>(rng.below(100));
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    expected[i] = acc;
    acc += in[i];
  }
  const auto total = exclusive_scan(ctx_, in.data(), n_, out.data());
  EXPECT_EQ(total, acc);
  EXPECT_EQ(out, expected);
}

TEST_P(DeviceParam, InclusiveScanMatchesReference) {
  util::Rng rng(n_ + 4);
  std::vector<std::int64_t> in(n_), out(n_), expected(n_);
  for (auto& v : in) v = static_cast<std::int64_t>(rng.below(100)) - 50;
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    acc += in[i];
    expected[i] = acc;
  }
  const auto total = inclusive_scan(ctx_, in.data(), n_, out.data());
  EXPECT_EQ(total, acc);
  EXPECT_EQ(out, expected);
}

TEST_P(DeviceParam, ExclusiveScanInPlace) {
  util::Rng rng(n_ + 5);
  std::vector<std::int64_t> data(n_), expected(n_);
  for (auto& v : data) v = static_cast<std::int64_t>(rng.below(10));
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    expected[i] = acc;
    acc += data[i];
  }
  exclusive_scan(ctx_, data.data(), n_, data.data());
  EXPECT_EQ(data, expected);
}

TEST_P(DeviceParam, GatherScatterRoundTrip) {
  if (n_ == 0) return;
  util::Rng rng(n_ + 6);
  std::vector<std::int64_t> values(n_);
  for (std::size_t i = 0; i < n_; ++i) values[i] = static_cast<std::int64_t>(i);
  // Random permutation.
  std::vector<std::uint32_t> perm(n_);
  std::iota(perm.begin(), perm.end(), 0u);
  for (std::size_t i = n_; i > 1; --i) std::swap(perm[i - 1], perm[rng.below(i)]);

  std::vector<std::int64_t> scattered(n_), gathered(n_);
  scatter(ctx_, values.data(), perm.data(), n_, scattered.data());
  gather(ctx_, scattered.data(), perm.data(), n_, gathered.data());
  EXPECT_EQ(gathered, values);
}

TEST_P(DeviceParam, CopyIfIndexSelectsInOrder) {
  std::vector<std::uint32_t> out(n_);
  const std::size_t k = copy_if_index(
      ctx_, n_, [](std::size_t i) { return i % 3 == 0; }, out.data());
  std::size_t expected_count = (n_ + 2) / 3;
  EXPECT_EQ(k, expected_count);
  for (std::size_t j = 0; j < k; ++j) ASSERT_EQ(out[j], 3 * j);
}

TEST_P(DeviceParam, CopyIfKeepsSelectedValuesInOrder) {
  std::vector<std::uint64_t> in(n_);
  for (std::size_t i = 0; i < n_; ++i) in[i] = 7 * i + 1;
  std::vector<std::uint64_t> out(n_);
  const std::size_t k = device::copy_if(
      ctx_, in.data(), n_, [&](std::size_t i) { return in[i] % 5 != 0; },
      out.data());
  std::vector<std::uint64_t> expected;
  std::copy_if(in.begin(), in.end(), std::back_inserter(expected),
               [](std::uint64_t v) { return v % 5 != 0; });
  ASSERT_EQ(k, expected.size());
  out.resize(k);
  EXPECT_EQ(out, expected);
}

TEST_P(DeviceParam, UnionFindMatchesSequentialReference) {
  if (n_ == 0) return;
  // Random unions applied concurrently (one bulk kernel, all workers
  // hooking at once) must produce the same partition as a sequential
  // union-find over the same pairs — the min-id root rule makes the result
  // schedule-independent.
  util::Rng rng(n_ ^ 0x5eed);
  const std::size_t num_pairs = n_ / 2 + 3;
  std::vector<std::pair<NodeId, NodeId>> pairs(num_pairs);
  for (auto& [a, b] : pairs) {
    a = static_cast<NodeId>(rng.below(n_));
    b = static_cast<NodeId>(rng.below(n_));
  }
  std::vector<NodeId> uf(n_);
  uf_init(ctx_, uf.data(), n_);
  launch(ctx_, num_pairs, [&](std::size_t i) {
    uf_unite(uf.data(), pairs[i].first, pairs[i].second);
  });
  uf_flatten(ctx_, uf.data(), n_);

  std::vector<NodeId> ref(n_);
  std::iota(ref.begin(), ref.end(), 0);
  auto find = [&](NodeId x) {
    while (ref[x] != x) x = ref[x] = ref[ref[x]];
    return x;
  };
  for (const auto& [a, b] : pairs) {
    const NodeId ra = find(a), rb = find(b);
    // Hook larger onto smaller, mirroring the primitive's determinism rule.
    if (ra != rb) ref[std::max(ra, rb)] = std::min(ra, rb);
  }
  for (std::size_t v = 0; v < n_; ++v) {
    ASSERT_EQ(uf[v], find(static_cast<NodeId>(v))) << "node " << v;
  }
}

TEST(DevicePrimitives, UnionFindRootIsMinimumOfSet) {
  const Context ctx(4);
  constexpr std::size_t kN = 1000;
  std::vector<NodeId> uf(kN);
  uf_init(ctx, uf.data(), kN);
  // Chain unions submitted in adversarial (reverse) order still leave the
  // minimum as the root of the single merged set.
  launch(ctx, kN - 1, [&](std::size_t i) {
    const auto v = static_cast<NodeId>(kN - 1 - i);
    uf_unite(uf.data(), v, v - 1);
  });
  uf_flatten(ctx, uf.data(), kN);
  for (std::size_t v = 0; v < kN; ++v) ASSERT_EQ(uf[v], 0);
}

TEST(DevicePrimitives, AtomicMinMax) {
  Context ctx(4);
  NodeId lo = kNodeInf;
  NodeId hi = -1;
  launch(ctx, 100'000, [&](std::size_t i) {
    atomic_min(&lo, static_cast<NodeId>(i ^ 0x5a5a));
    atomic_max(&hi, static_cast<NodeId>(i ^ 0x5a5a));
  });
  NodeId expected_lo = kNodeInf, expected_hi = -1;
  for (std::size_t i = 0; i < 100'000; ++i) {
    expected_lo = std::min(expected_lo, static_cast<NodeId>(i ^ 0x5a5a));
    expected_hi = std::max(expected_hi, static_cast<NodeId>(i ^ 0x5a5a));
  }
  EXPECT_EQ(lo, expected_lo);
  EXPECT_EQ(hi, expected_hi);
}

TEST(DevicePrimitives, AtomicCasClaimsOnce) {
  Context ctx(4);
  NodeId slot = kNoNode;
  std::atomic<int> winners{0};
  launch(ctx, 10'000, [&](std::size_t i) {
    if (atomic_cas(&slot, kNoNode, static_cast<NodeId>(i)) == kNoNode) {
      winners.fetch_add(1);
    }
  });
  EXPECT_EQ(winners.load(), 1);
  EXPECT_NE(slot, kNoNode);
}

TEST(Context, SequentialHasOneWorker) {
  EXPECT_EQ(Context::sequential().workers(), 1u);
}

TEST(Context, ExplicitWorkerCount) {
  EXPECT_EQ(Context(3).workers(), 3u);
}

TEST(Context, CopyShares) {
  Context a(2);
  Context b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(&a.pool(), &b.pool());
}

TEST(ThreadPool, NestedSequentialLaunchInsideParallel) {
  // Per-segment work inside a kernel must not deadlock the pool.
  Context ctx(2);
  std::vector<int> out(100, 0);
  launch(ctx, 100, [&](std::size_t i) {
    int acc = 0;
    for (int k = 0; k <= static_cast<int>(i); ++k) acc += k;
    out[i] = acc;
  });
  EXPECT_EQ(out[9], 45);
}

TEST(ThreadPool, ManySmallLaunches) {
  Context ctx(4);
  std::int64_t total = 0;
  for (int round = 0; round < 1000; ++round) {
    total += reduce(
        ctx, 10, std::int64_t{0},
        [](std::size_t i) { return static_cast<std::int64_t>(i); },
        [](std::int64_t a, std::int64_t b) { return a + b; });
  }
  EXPECT_EQ(total, 45'000);
}

// ------------------------------------------------- edge sizes & arena reuse

// Chunking boundaries the arena/chained-scan rework could regress: below
// one grain, exactly at grain multiples, and one element either side.
TEST(DevicePrimitives, ScanAndReduceAtGrainBoundaries) {
  for (const unsigned workers : {1u, 2u, 4u}) {
    Context ctx(workers);
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{1023}, std::size_t{1024},
          std::size_t{1025}, std::size_t{2048}, std::size_t{4096},
          std::size_t{4 * 1024 * workers}, std::size_t{4 * 1024 * workers + 1},
          std::size_t{200'000}}) {
      util::Rng rng(n + workers);
      std::vector<std::int64_t> in64(n);
      std::vector<NodeId> in32(n);
      for (std::size_t i = 0; i < n; ++i) {
        in64[i] = static_cast<std::int64_t>(rng.below(1000)) - 500;
        in32[i] = static_cast<NodeId>(rng.below(1000)) - 500;
      }
      // int64 exclusive + int32 inclusive: covers both SIMD lane widths.
      std::vector<std::int64_t> out64(n), ref64(n);
      std::vector<NodeId> out32(n), ref32(n);
      std::int64_t acc64 = 0;
      NodeId acc32 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        ref64[i] = acc64;
        acc64 += in64[i];
        acc32 += in32[i];
        ref32[i] = acc32;
      }
      ASSERT_EQ(exclusive_scan(ctx, in64.data(), n, out64.data()), acc64)
          << "workers=" << workers << " n=" << n;
      ASSERT_EQ(out64, ref64) << "workers=" << workers << " n=" << n;
      ASSERT_EQ(inclusive_scan(ctx, in32.data(), n, out32.data()), acc32)
          << "workers=" << workers << " n=" << n;
      ASSERT_EQ(out32, ref32) << "workers=" << workers << " n=" << n;
      ASSERT_EQ(reduce_sum(ctx, in64.data(), n), acc64);
      // In-place exclusive over the int32 input as well.
      std::vector<NodeId> ref32ex(n);
      NodeId acc32ex = 0;
      for (std::size_t i = 0; i < n; ++i) {
        ref32ex[i] = acc32ex;
        acc32ex += in32[i];
      }
      exclusive_scan(ctx, in32.data(), n, in32.data());
      ASSERT_EQ(in32, ref32ex) << "workers=" << workers << " n=" << n;
    }
  }
}

// Back-to-back primitive calls with different scratch types and sizes must
// reuse the arena: after a warm-up cycle, the block count stops growing —
// steady state performs zero allocations.
TEST(Arena, SteadyStateReusesBlocksAcrossMixedCalls) {
  Context ctx(2);
  util::Rng rng(42);
  std::vector<std::int64_t> big(150'000);
  std::vector<NodeId> small(10'000);
  std::vector<std::int64_t> out64(big.size());
  std::vector<NodeId> out32(small.size());
  std::vector<std::uint32_t> picked(big.size());
  const auto cycle = [&] {
    inclusive_scan(ctx, big.data(), big.size(), out64.data());
    exclusive_scan(ctx, small.data(), small.size(), out32.data());
    reduce_sum(ctx, big.data(), big.size());
    copy_if_index(
        ctx, big.size(), [](std::size_t i) { return i % 7 == 0; },
        picked.data());
  };
  for (auto& v : big) v = static_cast<std::int64_t>(rng.below(100));
  for (auto& v : small) v = static_cast<NodeId>(rng.below(100));
  cycle();
  cycle();  // warm-up: high-water mark found, blocks consolidated
  const std::size_t warmed = ctx.arena().block_allocations();
  for (int round = 0; round < 5; ++round) cycle();
  EXPECT_EQ(ctx.arena().block_allocations(), warmed);
  EXPECT_GT(ctx.arena().capacity(), 0u);
}

TEST(Arena, ScopedSlotsAreDistinctAndNestable) {
  Arena arena;
  Arena::Scope outer(arena);
  std::int64_t* a = outer.get<std::int64_t>(100);
  std::uint8_t* b = outer.get<std::uint8_t>(33);
  std::fill(a, a + 100, 7);
  std::fill(b, b + 33, std::uint8_t{9});
  {
    Arena::Scope inner(arena);
    NodeId* c = inner.get<NodeId>(1000);
    std::fill(c, c + 1000, 3);
  }
  // Slots handed out before the nested scope survive it untouched.
  std::int64_t* d = outer.get<std::int64_t>(50);
  std::fill(d, d + 50, 8);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a[i], 7);
  for (int i = 0; i < 33; ++i) ASSERT_EQ(b[i], 9);
}

// Closing the outermost scope merges a fragmented block chain into one
// block. That allocation runs inside ~Scope, so a failed one (a simulated
// device OOM) must leave the arena empty and usable, never throw.
TEST(Arena, FailedConsolidationLeavesTheArenaEmptyAndUsable) {
  namespace failpoint = util::failpoint;
  failpoint::disable_all();
  Arena arena;
  ASSERT_TRUE(failpoint::configure(failpoint::kArenaAlloc, "3"));
  {
    Arena::Scope scope(arena);
    scope.get<std::int64_t>(10'000);  // hit 1: the first block
    scope.get<std::int64_t>(20'000);  // hit 2: a second block
  }  // hit 3: the consolidation fires
  EXPECT_EQ(failpoint::fired(failpoint::kArenaAlloc), 1u);
  failpoint::disable_all();
  EXPECT_EQ(arena.capacity(), 0u);
  Arena::Scope scope(arena);
  std::int64_t* slot = scope.get<std::int64_t>(100);
  std::fill(slot, slot + 100, 5);
  EXPECT_EQ(slot[99], 5);
}

TEST(ThreadPool, LaunchCounterCountsEveryKernel) {
  Context ctx(2);
  const std::uint64_t before = ctx.launch_count();
  launch(ctx, 10'000, [](std::size_t) {});
  std::vector<int> buf(10'000);
  fill(ctx, buf.size(), buf.data(), 1);
  EXPECT_EQ(ctx.launch_count() - before, 2u);
  // Chained scans and compaction are single launches; the old
  // two-kernel/four-kernel shapes would fail these.
  std::vector<std::int64_t> in(50'000, 1), out(in.size());
  const std::uint64_t scans = ctx.launch_count();
  inclusive_scan(ctx, in.data(), in.size(), out.data());
  EXPECT_EQ(ctx.launch_count() - scans, 1u);
  std::vector<std::uint32_t> idx(in.size());
  const std::uint64_t compact = ctx.launch_count();
  copy_if_index(
      ctx, in.size(), [](std::size_t i) { return i % 2 == 0; }, idx.data());
  EXPECT_EQ(ctx.launch_count() - compact, 1u);
}

}  // namespace
}  // namespace emc::device
