// Determinism and exactness of the log2-bucket histogram that backs
// TimerStat: percentiles must be bit-identical regardless of insertion
// order or recording-thread interleaving, bucket bounds must bracket
// their values, snapshots must merge the shards exactly, and the TimerStat
// wrapper must report the same numbers as the raw histogram.
#include "obs/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace nano::obs {
namespace {

TEST(Log2Histogram, BucketBoundsBracketTheValue) {
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> exponent(-25.0, 12.0);
  for (int i = 0; i < 10000; ++i) {
    const double v = std::exp2(exponent(rng));
    const int bucket = Log2Histogram::bucketIndex(v);
    ASSERT_GT(bucket, 0) << v;
    ASSERT_LT(bucket, Log2Histogram::kBucketCount - 1) << v;
    EXPECT_LE(Log2Histogram::bucketLowerBound(bucket), v) << v;
    EXPECT_GT(Log2Histogram::bucketUpperBound(bucket), v) << v;
  }
}

TEST(Log2Histogram, PowersOfTwoAreBucketLowerBounds) {
  for (int e = -20; e <= 10; ++e) {
    const double v = std::exp2(e);
    const int bucket = Log2Histogram::bucketIndex(v);
    EXPECT_EQ(Log2Histogram::bucketLowerBound(bucket), v);
  }
}

TEST(Log2Histogram, ZeroNegativeAndNanLandInBucketZero) {
  EXPECT_EQ(Log2Histogram::bucketIndex(0.0), 0);
  EXPECT_EQ(Log2Histogram::bucketIndex(-3.5), 0);
  EXPECT_EQ(Log2Histogram::bucketIndex(std::nan("")), 0);
  EXPECT_EQ(Log2Histogram::bucketLowerBound(0), 0.0);
}

TEST(Log2Histogram, HugeValuesOverflowToTheLastBucket) {
  EXPECT_EQ(Log2Histogram::bucketIndex(1e30), Log2Histogram::kBucketCount - 1);
  Log2Histogram h;
  h.record(1e30);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1);
  EXPECT_EQ(s.max, 1e30);  // min/max stay exact even for overflow samples
}

TEST(Log2Histogram, PercentilesAreExactForDistinctBuckets) {
  Log2Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 100);
  EXPECT_DOUBLE_EQ(s.total, 5050.0);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 100.0);
  // ceil-rank lower-bound percentiles: p50 is the 50th smallest sample's
  // bucket floor. 32 sub-buckets resolve 1..100 to within ~3%.
  EXPECT_NEAR(s.percentile(0.50), 50.0, 1.0);
  EXPECT_NEAR(s.percentile(0.99), 99.0, 1.5);
  EXPECT_EQ(s.percentile(0.0), s.percentile(1e-9));  // rank clamps to 1
}

TEST(Log2Histogram, PercentilesAreBitIdenticalAcrossInsertionOrders) {
  std::vector<double> samples;
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> dist(-6.0, 2.0);
  for (int i = 0; i < 50000; ++i) samples.push_back(dist(rng));

  Log2Histogram forward;
  for (double v : samples) forward.record(v);

  std::shuffle(samples.begin(), samples.end(), rng);
  Log2Histogram shuffled;
  for (double v : samples) shuffled.record(v);

  const auto a = forward.snapshot();
  const auto b = shuffled.snapshot();
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    // Bit-identical, not approximately equal: the percentile is a pure
    // function of the sample multiset.
    EXPECT_EQ(a.percentile(q), b.percentile(q)) << q;
  }
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.buckets, b.buckets);
}

TEST(Log2Histogram, PercentilesAreBitIdenticalAcrossThreadCounts) {
  std::vector<double> samples;
  std::mt19937_64 rng(11);
  std::lognormal_distribution<double> dist(-8.0, 1.5);
  for (int i = 0; i < 40000; ++i) samples.push_back(dist(rng));

  Log2Histogram serial;
  for (double v : samples) serial.record(v);

  for (int threads : {2, 8}) {
    Log2Histogram parallel;
    std::vector<std::thread> workers;
    const std::size_t chunk = samples.size() / static_cast<std::size_t>(threads);
    for (int t = 0; t < threads; ++t) {
      const std::size_t begin = static_cast<std::size_t>(t) * chunk;
      const std::size_t end =
          t == threads - 1 ? samples.size() : begin + chunk;
      workers.emplace_back([&parallel, &samples, begin, end] {
        for (std::size_t i = begin; i < end; ++i) parallel.record(samples[i]);
      });
    }
    for (auto& w : workers) w.join();

    const auto a = serial.snapshot();
    const auto b = parallel.snapshot();
    EXPECT_EQ(a.buckets, b.buckets) << threads << " threads";
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      EXPECT_EQ(a.percentile(q), b.percentile(q))
          << threads << " threads, q=" << q;
    }
  }
}

TEST(Log2Histogram, SnapshotsMerge) {
  // snapshot() sums the shards bucket-wise: samples recorded from two
  // threads land in two shards and come back as one view.
  Log2Histogram h;
  std::thread([&h] {
    for (int i = 0; i < 100; ++i) h.record(0.001);
  }).join();
  std::thread([&h] {
    for (int i = 0; i < 300; ++i) h.record(0.004);
  }).join();

  const auto merged = h.snapshot();
  EXPECT_EQ(merged.count, 400);
  EXPECT_DOUBLE_EQ(merged.total, 100 * 0.001 + 300 * 0.004);
  EXPECT_EQ(merged.min, 0.001);
  EXPECT_EQ(merged.max, 0.004);
  // Percentiles report bucket floors, so compare against those.
  EXPECT_EQ(merged.percentile(0.10),
            Log2Histogram::bucketLowerBound(Log2Histogram::bucketIndex(0.001)));
  EXPECT_EQ(merged.percentile(0.90),
            Log2Histogram::bucketLowerBound(Log2Histogram::bucketIndex(0.004)));
}

TEST(Log2Histogram, EmptySnapshotIsAllZeros) {
  Log2Histogram h;
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.total, 0.0);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.percentile(0.5), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(TimerStatWrapper, ReportsTheHistogramNumbers) {
  TimerStat t;
  for (int i = 0; i < 1000; ++i) t.record(1.0);
  const TimerStat::Snapshot s = t.snapshot();
  EXPECT_EQ(s.count, 1000);
  EXPECT_DOUBLE_EQ(s.total, 1000.0);
  // 1.0 is a power of two: its bucket lower bound is exactly itself, so
  // every percentile is exactly 1.0 (the determinism fix for the old
  // reservoir TimerStat).
  EXPECT_DOUBLE_EQ(s.p50, 1.0);
  EXPECT_DOUBLE_EQ(s.p90, 1.0);
  EXPECT_DOUBLE_EQ(s.p99, 1.0);
  EXPECT_DOUBLE_EQ(s.p999, 1.0);

  const Log2Histogram::Snapshot h = t.histogramSnapshot();
  EXPECT_EQ(h.count, s.count);
  EXPECT_EQ(h.percentile(0.5), s.p50);
}

}  // namespace
}  // namespace nano::obs
