// Deterministic fixed-log2-bucket histogram for latency-style samples.
//
// Values are binned into base-2 octaves split into 32 linear sub-buckets
// (~3.1% worst-case relative bucket width). Bucket counts are exact
// integers, so any percentile is a pure function of the recorded sample
// multiset: identical samples give bit-identical p50/p90/p99/p999 no
// matter the insertion order, the thread interleaving, or the
// NANO_EXEC_THREADS setting — unlike a sampling reservoir.
//
// Recording is lock-free: each thread is assigned (round-robin) one of a
// small fixed set of shards and updates it with relaxed atomic adds;
// snapshot() merges the shards by summing bucket counts, which is
// order-independent. Shards are allocated lazily, so a histogram touched
// by one thread pays one shard of memory.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

namespace nano::obs {

class Log2Histogram {
 public:
  Log2Histogram() = default;
  ~Log2Histogram();

  Log2Histogram(const Log2Histogram&) = delete;
  Log2Histogram& operator=(const Log2Histogram&) = delete;

  /// Record one sample. Thread-safe, lock-free, relaxed ordering.
  void record(double value);

  // Bucket layout: index 0 holds zero/negative/NaN samples; the last
  // index collects overflow (>= 2^kMaxExponent). In between, a value
  // v = m * 2^e (frexp form, m in [0.5, 1)) lands in octave e with linear
  // sub-bucket floor((m - 0.5) * 2 * kSubBuckets).
  static constexpr int kSubBuckets = 32;
  static constexpr int kMinExponent = -30;  ///< 2^-31 s ~ 0.47 ns resolution
  static constexpr int kMaxExponent = 14;   ///< covers values up to 16384
  static constexpr int kBucketCount =
      (kMaxExponent - kMinExponent + 1) * kSubBuckets + 2;

  /// Bucket a value falls into; total function (NaN and negatives -> 0).
  static int bucketIndex(double value);
  /// Inclusive lower bound of a bucket — the deterministic representative
  /// value percentiles report. bucket 0 -> 0.0.
  static double bucketLowerBound(int index);
  /// Exclusive upper bound (lower bound of the next bucket).
  static double bucketUpperBound(int index);

  /// Merged, immutable view of the histogram: the shards summed
  /// bucket-wise.
  struct Snapshot {
    std::int64_t count = 0;
    double total = 0.0;  ///< exact per-shard sums; shard order is fixed
    double min = 0.0;
    double max = 0.0;
    std::vector<std::uint64_t> buckets;  ///< dense, kBucketCount entries

    /// Deterministic quantile: the lower bound of the bucket holding the
    /// ceil(q * count)-th smallest sample. 0 when empty.
    [[nodiscard]] double percentile(double q) const;
    [[nodiscard]] double mean() const {
      return count > 0 ? total / static_cast<double>(count) : 0.0;
    }
  };
  [[nodiscard]] Snapshot snapshot() const;

 private:
  static constexpr int kShards = 8;

  struct Shard {
    std::array<std::atomic<std::uint64_t>, kBucketCount> buckets{};
    std::atomic<std::int64_t> count{0};
    std::atomic<double> total{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  };

  Shard& shard();

  std::array<std::atomic<Shard*>, kShards> shards_{};
};

}  // namespace nano::obs
