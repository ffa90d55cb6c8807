#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/single_flight.hpp"

namespace hetsched::sweep {
class ResultCache;
}  // namespace hetsched::sweep

/// Sharded in-memory scenario cache for the serve daemon.
///
/// A SingleFlight table (common/single_flight.hpp) sharded by the FNV-1a
/// digest of the canonical request key, so concurrent requests for distinct
/// keys proceed on distinct locks and concurrent identical requests join
/// one computation. The table's failure rule applies: an answer that throws
/// is never cached, and the next request for that key retries.
///
/// The cache fronts an optional on-disk sweep::ResultCache: an owner first
/// consults the store (a hit there is a disk_hit, no computation), and
/// entries computed in memory are flushed back on Server shutdown so the
/// next daemon generation starts warm.
namespace hetsched::serve {

struct ShardCacheCounters {
  /// Lookups served by an existing in-memory entry (including waiting on a
  /// computation already in flight, whether or not it succeeds).
  std::int64_t hits = 0;
  /// Lookups that had to create the entry (owner path, failed computes
  /// included). hits + misses == total lookups, always.
  std::int64_t misses = 0;
  /// Owner lookups satisfied by the on-disk store.
  std::int64_t disk_hits = 0;
  /// Owner lookups that ran the compute function.
  std::int64_t computes = 0;
  /// Entries written to the on-disk store by flush().
  std::int64_t flushed = 0;
  /// flush() attempts the store rejected (best effort, reuse lost only).
  std::int64_t dropped_flushes = 0;
};

class ShardedScenarioCache {
 public:
  using ValuePtr = std::shared_ptr<const std::string>;
  using ComputeFn = std::function<std::string()>;

  struct Lookup {
    ValuePtr value;
    /// True when this lookup did not own the computation (served from the
    /// map, a completed entry, or a computation already in flight).
    bool hit = false;
    /// True when the owning lookup loaded the value from the disk store.
    bool disk_hit = false;
    /// True when this lookup blocked on a computation still in flight
    /// (single-flight join) rather than reading a completed entry.
    bool joined_flight = false;
    /// Trace id of the request that owns/owned the computation (empty for
    /// owner lookups and entries whose owner recorded none). A joiner's
    /// request tree parents its wait under this leader.
    std::string leader_trace_id;
  };

  /// `disk` may be null (pure in-memory cache); when set it must outlive
  /// this object. `shards` is clamped to at least 1.
  explicit ShardedScenarioCache(std::size_t shards = 8,
                                const sweep::ResultCache* disk = nullptr);

  ShardedScenarioCache(const ShardedScenarioCache&) = delete;
  ShardedScenarioCache& operator=(const ShardedScenarioCache&) = delete;

  /// Returns the cached value for `key`, invoking `compute` at most once
  /// per key at a time across all threads (single-flight). A compute that
  /// throws reaches the owner and every waiter of that flight, and a later
  /// request retries. `caller_trace` (optional) is recorded as the flight's
  /// leader so joiners can parent their wait to the owning request's trace.
  Lookup get_or_compute(const std::string& key, const ComputeFn& compute,
                        std::string_view caller_trace = {});

  /// Writes every entry computed in memory since the last flush to the
  /// disk store (no-op without one). Returns the number written.
  std::size_t flush();

  std::size_t shard_count() const { return flights_.shard_count(); }
  /// Shard index `key` maps to (exposed for request-tree details).
  std::size_t shard_index(const std::string& key) const {
    return flights_.shard_index(key);
  }
  /// Total resident entries across shards.
  std::size_t entries() const { return flights_.entries(); }
  ShardCacheCounters counters() const;

 private:
  SingleFlight<std::string> flights_;
  const sweep::ResultCache* disk_;
  /// Keys computed here (not disk-loaded) and not yet flushed, with their
  /// values.
  std::mutex dirty_mutex_;
  std::vector<std::pair<std::string, ValuePtr>> dirty_;
  /// Every get_or_compute call; hits are lookups_ - misses_.
  std::atomic<std::int64_t> lookups_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> disk_hits_{0};
  std::atomic<std::int64_t> computes_{0};
  std::atomic<std::int64_t> flushed_{0};
  std::atomic<std::int64_t> dropped_flushes_{0};
};

}  // namespace hetsched::serve
