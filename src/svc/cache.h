// Sharded LRU result cache with in-flight deduplication. Keys are the
// canonical request strings from svc/request.h (the content hash picks the
// shard and the bucket; the full key string guards against hash
// collisions). When several callers ask for the same key concurrently,
// exactly one computes and the rest block on its shared future — the
// "thundering herd" of identical sweep queries costs one evaluation.
// find() is the non-computing, non-blocking probe the service answers
// cache hits with on the thread that parsed them.
//
// Instrumented: svc/cache_hits, svc/cache_misses, svc/cache_evictions,
// svc/dedup_joins counters and the svc/cache_size gauge.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/journal.h"
#include "svc/request.h"

namespace nano::svc {

class ResultCache {
 public:
  /// `capacity` is the total cached entries across all shards (0 disables
  /// caching AND deduplication: every call computes). Shard count is
  /// rounded up to a power of two; per-shard capacity is capacity/shards,
  /// at least 1.
  explicit ResultCache(std::size_t capacity, int shards = 8);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Return the outcome for `key`, computing it with `compute` on a miss.
  /// Concurrent callers with an equal key share one computation; callers
  /// joining an in-flight computation block until it finishes. `compute`
  /// must be a pure function of the key (the service's evaluate() is) and
  /// must not throw — a throwing compute poisons the waiters with the
  /// same exception and caches nothing.
  ///
  /// `trace` attributes the hit/miss/dedup-join journal events to the
  /// calling request; `dedupJoinNs` (when non-null) receives the
  /// nanoseconds this caller spent blocked on another caller's in-flight
  /// computation (0 on hits and misses).
  Outcome getOrCompute(const std::string& key,
                       const std::function<Outcome()>& compute,
                       const obs::TraceContext& trace = {},
                       std::int64_t* dedupJoinNs = nullptr);

  /// The cached outcome for `key`, or null when it is absent or still being
  /// computed. Never computes and never waits; a hit counts, traces and
  /// refreshes the entry exactly like getOrCompute()'s hit.
  std::shared_ptr<const Outcome> find(const std::string& key,
                                      const obs::TraceContext& trace = {});

  /// Entries currently cached (sums the shards; racy but monotonic
  /// per-shard — for tests and gauges).
  [[nodiscard]] std::size_t size() const;

  /// Drop every cached entry (in-flight computations are unaffected).
  void clear();

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] int shardCount() const { return static_cast<int>(shards_.size()); }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const Outcome> outcome;
  };
  using LruList = std::list<Entry>;

  struct Shard {
    std::mutex mutex;
    LruList lru;  ///< front = most recently used
    std::unordered_map<std::string, LruList::iterator> index;
    std::unordered_map<std::string,
                       std::shared_future<std::shared_ptr<const Outcome>>>
        inflight;
  };

  Shard& shardFor(std::uint64_t hash) {
    return *shards_[hash & (shards_.size() - 1)];
  }
  /// The hit branch shared by find() and getOrCompute(); caller holds the
  /// shard lock.
  static std::shared_ptr<const Outcome> hitLocked(
      Shard& shard, const std::string& key, const obs::TraceContext& trace);

  std::size_t capacity_;
  std::size_t perShardCapacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace nano::svc
