#include "obs/histogram.h"

#include <algorithm>
#include <cmath>

namespace nano::obs {

namespace {

/// Round-robin shard assignment: spreads recording threads evenly without
/// hashing thread ids (which cluster on some platforms).
unsigned threadShardSlot() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

void atomicMin(std::atomic<double>& target, double value) {
  double cur = target.load(std::memory_order_relaxed);
  while (value < cur &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void atomicMax(std::atomic<double>& target, double value) {
  double cur = target.load(std::memory_order_relaxed);
  while (value > cur &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

Log2Histogram::~Log2Histogram() {
  for (auto& slot : shards_) delete slot.load(std::memory_order_relaxed);
}

int Log2Histogram::bucketIndex(double value) {
  if (!(value > 0.0)) return 0;  // zero, negatives, and NaN
  int exp = 0;
  const double mantissa = std::frexp(value, &exp);  // value = m * 2^exp
  if (exp > kMaxExponent) return kBucketCount - 1;  // overflow bucket
  if (exp < kMinExponent) exp = kMinExponent;       // clamp into smallest octave
  int sub = static_cast<int>((mantissa - 0.5) * (2 * kSubBuckets));
  sub = std::clamp(sub, 0, kSubBuckets - 1);
  return 1 + (exp - kMinExponent) * kSubBuckets + sub;
}

double Log2Histogram::bucketLowerBound(int index) {
  if (index <= 0) return 0.0;
  if (index >= kBucketCount - 1) return std::ldexp(1.0, kMaxExponent);
  const int exp = kMinExponent + (index - 1) / kSubBuckets;
  const int sub = (index - 1) % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, exp - 1);
}

double Log2Histogram::bucketUpperBound(int index) {
  if (index < 0) return 0.0;
  if (index >= kBucketCount - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return bucketLowerBound(index + 1);
}

Log2Histogram::Shard& Log2Histogram::shard() {
  auto& slot = shards_[threadShardSlot() % kShards];
  Shard* existing = slot.load(std::memory_order_acquire);
  if (existing != nullptr) return *existing;
  Shard* fresh = new Shard();
  if (slot.compare_exchange_strong(existing, fresh,
                                   std::memory_order_acq_rel)) {
    return *fresh;
  }
  delete fresh;  // another thread won the install race
  return *existing;
}

void Log2Histogram::record(double value) {
  Shard& s = shard();
  s.buckets[static_cast<std::size_t>(bucketIndex(value))].fetch_add(
      1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.total.fetch_add(value, std::memory_order_relaxed);
  atomicMin(s.min, value);
  atomicMax(s.max, value);
}

Log2Histogram::Snapshot Log2Histogram::snapshot() const {
  Snapshot out;
  out.buckets.assign(kBucketCount, 0);
  double minSeen = std::numeric_limits<double>::infinity();
  double maxSeen = -std::numeric_limits<double>::infinity();
  for (const auto& slot : shards_) {
    const Shard* s = slot.load(std::memory_order_acquire);
    if (s == nullptr) continue;
    for (int i = 0; i < kBucketCount; ++i) {
      out.buckets[static_cast<std::size_t>(i)] +=
          s->buckets[static_cast<std::size_t>(i)].load(
              std::memory_order_relaxed);
    }
    out.count += s->count.load(std::memory_order_relaxed);
    out.total += s->total.load(std::memory_order_relaxed);
    minSeen = std::min(minSeen, s->min.load(std::memory_order_relaxed));
    maxSeen = std::max(maxSeen, s->max.load(std::memory_order_relaxed));
  }
  if (out.count > 0) {
    out.min = minSeen;
    out.max = maxSeen;
  }
  return out;
}

double Log2Histogram::Snapshot::percentile(double q) const {
  if (count <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) return bucketLowerBound(static_cast<int>(i));
  }
  return bucketLowerBound(kBucketCount - 1);
}

}  // namespace nano::obs
