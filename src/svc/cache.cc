#include "svc/cache.h"

#include "obs/obs.h"

namespace nano::svc {

namespace {

std::size_t roundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

ResultCache::ResultCache(std::size_t capacity, int shards)
    : capacity_(capacity) {
  const std::size_t shardCount = roundUpPow2(
      static_cast<std::size_t>(shards < 1 ? 1 : shards));
  perShardCapacity_ = capacity_ / shardCount;
  if (capacity_ > 0 && perShardCapacity_ == 0) perShardCapacity_ = 1;
  shards_.reserve(shardCount);
  for (std::size_t i = 0; i < shardCount; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<const Outcome> ResultCache::hitLocked(
    Shard& shard, const std::string& key, const obs::TraceContext& trace) {
  const auto hit = shard.index.find(key);
  if (hit == shard.index.end()) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, hit->second);
  NANO_OBS_COUNT("svc/cache_hits", 1);
  obs::traceInstant("svc", "cache.hit", trace);
  return hit->second->outcome;
}

std::shared_ptr<const Outcome> ResultCache::find(
    const std::string& key, const obs::TraceContext& trace) {
  if (capacity_ == 0) return nullptr;
  Shard& shard = shardFor(fnv1a64(key));
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return hitLocked(shard, key, trace);
}

Outcome ResultCache::getOrCompute(const std::string& key,
                                  const std::function<Outcome()>& compute,
                                  const obs::TraceContext& trace,
                                  std::int64_t* dedupJoinNs) {
  if (capacity_ == 0) return compute();

  Shard& shard = shardFor(fnv1a64(key));
  std::promise<std::shared_ptr<const Outcome>> promise;
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    if (const auto hit = hitLocked(shard, key, trace)) return *hit;
    if (auto flight = shard.inflight.find(key);
        flight != shard.inflight.end()) {
      // Someone else is computing this key: wait outside the shard lock.
      auto future = flight->second;
      lock.unlock();
      NANO_OBS_COUNT("svc/dedup_joins", 1);
      const std::int64_t joinBegin = obs::timingNowNs();
      const Outcome result = *future.get();
      const std::int64_t joinEnd = obs::timingNowNs();
      if (joinBegin > 0) {
        if (dedupJoinNs != nullptr) *dedupJoinNs = joinEnd - joinBegin;
        obs::traceComplete("svc", "cache.dedup_join", trace, joinBegin,
                           joinEnd - joinBegin);
        if (obs::enabled()) {
          obs::MetricsRegistry::instance()
              .timer("svc/phase/dedup_join")
              .record(static_cast<double>(joinEnd - joinBegin) * 1e-9);
        }
      }
      return result;
    }
    shard.inflight.emplace(key, promise.get_future().share());
  }

  NANO_OBS_COUNT("svc/cache_misses", 1);
  obs::traceInstant("svc", "cache.miss", trace);
  std::shared_ptr<const Outcome> result;
  try {
    result = std::make_shared<const Outcome>(compute());
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.inflight.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }

  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.inflight.erase(key);
    // Double-check: a clear() between unlock and here leaves no entry; a
    // racing insert of the same key is impossible (we owned the in-flight
    // slot), so a plain insert is safe.
    shard.lru.push_front(Entry{key, result});
    shard.index.emplace(key, shard.lru.begin());
    while (shard.lru.size() > perShardCapacity_) {
      shard.index.erase(shard.lru.back().key);
      shard.lru.pop_back();
      NANO_OBS_COUNT("svc/cache_evictions", 1);
    }
  }
  promise.set_value(result);
  if (obs::enabled()) {
    NANO_OBS_GAUGE("svc/cache_size", static_cast<double>(size()));
  }
  return *result;
}

std::size_t ResultCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->lru.size();
  }
  return total;
}

void ResultCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
  }
}

}  // namespace nano::svc
