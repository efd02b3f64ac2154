// Tests of the benchmark's own helpers (harness.hpp): the percentile rule,
// the open-loop schedules, and the update -> batch -> epoch -> publish
// visibility mapping on hand-built traces.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "harness.hpp"

namespace {

using namespace e2e;

TEST(Percentile, NearestRank) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(percentile(v, 0.5), 3);
  EXPECT_EQ(percentile(v, 0.2), 1);
  EXPECT_EQ(percentile(v, 0.21), 2);
  EXPECT_EQ(percentile(v, 1.0), 5);
  EXPECT_EQ(percentile({}, 0.5), 0);
}

TEST(Percentile, FailuresCountAsInfinite) {
  std::vector<double> v(99, 1.0);
  v.push_back(kMissed);
  EXPECT_EQ(percentile(v, 0.99), 1.0);  // the 99th of 100 still succeeded
  v.push_back(kMissed);
  EXPECT_TRUE(std::isinf(percentile(v, 0.99)));  // now a failure is ranked
  EXPECT_EQ(percentile(v, 0.5), 1.0);
}

TEST(Percentile, HighestReportableKeepsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(highest_reportable(19), 0.0);
  EXPECT_EQ(highest_reportable(20), 0.5);
  EXPECT_EQ(highest_reportable(100), 0.9);
  EXPECT_EQ(highest_reportable(999), 0.9);
  EXPECT_EQ(highest_reportable(1000), 0.99);
  EXPECT_EQ(highest_reportable(10000), 0.999);
}

TEST(Schedule, SameSeedSameArrivals) {
  const std::vector<Segment> segs = {{0.0, 1.0, 500.0}, {1.0, 1.5, 4000.0},
                                     {1.5, 3.0, 500.0}};
  Prng a(42), b(42), c(43);
  const auto x = piecewise_poisson(segs, a);
  EXPECT_EQ(x, piecewise_poisson(segs, b));
  EXPECT_NE(x, piecewise_poisson(segs, c));
  EXPECT_TRUE(std::is_sorted(x.begin(), x.end()));
}

TEST(Schedule, CountsStayWithinBounds) {
  const std::vector<Segment> segs = {{0.0, 2.0, 1000.0}, {2.0, 2.5, 8000.0},
                                     {2.5, 4.0, 0.0}};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Prng rng(seed);
    const auto t = piecewise_poisson(segs, rng);
    // Per segment: Poisson(mean) stays within mean +- 6 sqrt(mean).
    const double means[3] = {2000.0, 4000.0, 0.0};
    for (int s = 0; s < 3; ++s) {
      const auto n = std::count_if(t.begin(), t.end(), [&](double x) {
        return x >= segs[s].begin_s && x < segs[s].end_s;
      });
      EXPECT_LE(std::abs(static_cast<double>(n) - means[s]), 6 * std::sqrt(means[s]) + 1e-9)
          << "seed " << seed << " segment " << s;
    }
  }
}

TEST(Schedule, FixedBurstHasExactCountInsideItsWindow) {
  Prng rng(7);
  const auto t = fixed_burst(2.0, 0.001, 1024, rng);
  ASSERT_EQ(t.size(), 1024u);
  EXPECT_TRUE(std::is_sorted(t.begin(), t.end()));
  EXPECT_GE(t.front(), 2.0);
  EXPECT_LT(t.back(), 2.001);
}

TEST(Visibility, MapsUpdatesThroughBatchesAndEpochsToPublishes) {
  // Updates 0-2 land in batch 0 (epoch 1), 3-4 in batch 1 (epoch 2, which
  // publishes only after a failed attempt), 5 in batch 2 (epoch 2 again: a
  // no-op batch), 6 is never applied.
  const std::vector<double> due = {0.0, 0.1, 0.2, 1.0, 1.1, 2.0, 3.0};
  const std::vector<AppliedBatch> batches = {
      {3, 1, 0.5}, {2, 2, 1.5}, {1, 2, 2.5}};
  const std::vector<PublishEvent> publishes = {
      {0.6, 1, true},   // covers batch 0
      {1.6, 2, false},  // failed: installs nothing
      {1.9, 2, true},   // covers batch 1
      {2.7, 2, true}};  // first publish after batch 2 applied
  const auto batch = batch_of_update(due.size(), batches);
  EXPECT_EQ(batch, (std::vector<std::size_t>{0, 0, 0, 1, 1, 2, kNone}));
  const auto pub = publish_of_batch(batches, publishes);
  EXPECT_EQ(pub, (std::vector<std::size_t>{0, 2, 3}));
  const auto v = visibility(due, batches, publishes);
  EXPECT_DOUBLE_EQ(v[0], 0.6);
  EXPECT_DOUBLE_EQ(v[2], 0.4);
  EXPECT_DOUBLE_EQ(v[3], 0.9);
  EXPECT_DOUBLE_EQ(v[5], 0.7);
  EXPECT_TRUE(std::isinf(v[6]));
}

TEST(Visibility, AnEpochPublishedBeforeTheApplyDoesNotCount) {
  // A publish at epoch 3 returning before the batch that reaches epoch 3
  // applied cannot contain it.
  const std::vector<AppliedBatch> batches = {{1, 3, 1.0}};
  const std::vector<PublishEvent> publishes = {{0.9, 3, true}, {1.2, 3, true}};
  EXPECT_EQ(publish_of_batch(batches, publishes), (std::vector<std::size_t>{1}));
}

TEST(Health, GrowingBacklogIsFlaggedBoundedIsNot) {
  // Three samples per period: a backlog that never drains...
  EXPECT_TRUE(growing({0, 1, 2, 3, 4, 5, 6, 7, 8}, 3, 1.0));
  // ...versus bursts (or stalls) that drain within their period, even when
  // the last one is the largest.
  EXPECT_FALSE(growing({0, 5, 0, 0, 5, 0, 0, 900, 0}, 3, 1.0));
  EXPECT_FALSE(growing({1, 2, 3}, 3, 0.0));  // too few samples to tell
}

}  // namespace
