#include "serve/shard_cache.hpp"

#include <optional>

#include "common/error.hpp"
#include "sweep/cache.hpp"

namespace hetsched::serve {

ShardedScenarioCache::ShardedScenarioCache(std::size_t shards,
                                           const sweep::ResultCache* disk)
    : flights_(shards), disk_(disk) {}

ShardedScenarioCache::Lookup ShardedScenarioCache::get_or_compute(
    const std::string& key, const ComputeFn& compute,
    std::string_view caller_trace) {
  HS_REQUIRE(compute != nullptr, "get_or_compute without a compute function");
  // Counted on entry, so a lookup whose flight fails still counts as a hit
  // or (from inside the owner's compute) a miss.
  lookups_.fetch_add(1);
  bool disk_hit = false;
  SingleFlight<std::string>::Lookup flight = flights_.get_or_compute(
      key,
      [this, &key, &compute, &disk_hit] {
        misses_.fetch_add(1);
        if (disk_ != nullptr) {
          if (std::optional<std::string> stored = disk_->load(key)) {
            disk_hits_.fetch_add(1, std::memory_order_relaxed);
            disk_hit = true;
            return *std::move(stored);
          }
        }
        computes_.fetch_add(1, std::memory_order_relaxed);
        return compute();
      },
      caller_trace);

  if (flight.owner && !disk_hit && disk_ != nullptr) {
    std::lock_guard<std::mutex> lock(dirty_mutex_);
    dirty_.emplace_back(key, flight.value);
  }
  return {std::move(flight.value), !flight.owner, disk_hit, flight.joined,
          std::move(flight.leader)};
}

std::size_t ShardedScenarioCache::flush() {
  if (disk_ == nullptr) return 0;
  std::vector<std::pair<std::string, ValuePtr>> dirty;
  {
    std::lock_guard<std::mutex> lock(dirty_mutex_);
    dirty.swap(dirty_);
  }
  std::size_t written = 0;
  for (const auto& [key, value] : dirty) {
    if (disk_->store(key, *value)) {
      flushed_.fetch_add(1, std::memory_order_relaxed);
      ++written;
    } else {
      dropped_flushes_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return written;
}

ShardCacheCounters ShardedScenarioCache::counters() const {
  // Misses first: each miss is counted after its lookup (both sequentially
  // consistent), so hits never reads negative mid-flight.
  const std::int64_t misses = misses_.load();
  return {lookups_.load() - misses,
          misses,
          disk_hits_.load(std::memory_order_relaxed),
          computes_.load(std::memory_order_relaxed),
          flushed_.load(std::memory_order_relaxed),
          dropped_flushes_.load(std::memory_order_relaxed)};
}

}  // namespace hetsched::serve
