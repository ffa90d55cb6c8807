#pragma once

#include <algorithm>
#include <chrono>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/strings.hpp"

namespace hetsched {

/// Single-flight memo table. The first caller of a key owns its flight and
/// runs the compute; concurrent callers of that key join the flight and
/// block on its result instead of racing their own compute. Ownership is
/// decided under a shard mutex and the compute runs outside it, so distinct
/// keys never serialize each other and a compute may look up other keys
/// (never its own: it would wait on itself). Keys map to shards by fnv1a64;
/// values stay resident for the table's lifetime.
///
/// Failure rule: a compute that throws erases its slot under the shard
/// lock, then publishes the exception. The owner and every caller already
/// joined get the exception; a caller that arrives later starts a new
/// flight, so a failure is never cached.
///
/// No counters inside: callers count from Lookup::owner.
template <typename V>
class SingleFlight {
 public:
  using ValuePtr = std::shared_ptr<const V>;

  struct Lookup {
    ValuePtr value;
    /// This call ran the compute.
    bool owner = false;
    /// This call waited on a flight still in progress, rather than reading
    /// a finished entry.
    bool joined = false;
    /// The owner's tag (empty on the owner's own lookup).
    std::string leader;
  };

  /// `shards` is clamped to at least 1.
  explicit SingleFlight(std::size_t shards = 1)
      : shards_(std::max<std::size_t>(1, shards)) {}
  SingleFlight(const SingleFlight&) = delete;
  SingleFlight& operator=(const SingleFlight&) = delete;

  /// Returns the value for `key`, running `compute()` (which returns a V)
  /// unless a flight for `key` is resident. `tag` becomes the flight's
  /// leader when this call owns it.
  template <typename Compute>
  Lookup get_or_compute(const std::string& key, Compute&& compute,
                        std::string_view tag = {}) {
    Shard& shard = shards_[shard_index(key)];
    std::promise<ValuePtr> promise;
    std::shared_future<ValuePtr> flight;
    Lookup lookup;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      const auto [it, inserted] = shard.flights.try_emplace(key);
      if (inserted) {
        it->second = {promise.get_future().share(), std::string(tag)};
        lookup.owner = true;
      } else {
        flight = it->second.future;
        lookup.leader = it->second.leader;
      }
    }
    if (!lookup.owner) {
      // Sampled before the blocking get, so a wait on a live compute reads
      // differently from a read of a finished entry.
      lookup.joined = flight.wait_for(std::chrono::seconds(0)) !=
                      std::future_status::ready;
      lookup.value = flight.get();  // rethrows the owner's exception
      return lookup;
    }
    try {
      lookup.value =
          std::make_shared<const V>(std::forward<Compute>(compute)());
    } catch (...) {
      {  // Erase first, so no later caller is handed this failure.
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.flights.erase(key);
      }
      promise.set_exception(std::current_exception());
      throw;
    }
    promise.set_value(lookup.value);
    return lookup;
  }

  std::size_t shard_count() const { return shards_.size(); }

  /// fnv1a64(key) % shard_count(); one shard skips the hash.
  std::size_t shard_index(const std::string& key) const {
    if (shards_.size() == 1) return 0;
    return static_cast<std::size_t>(fnv1a64(key) % shards_.size());
  }

  /// Resident entries across shards, flights in progress included.
  std::size_t entries() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      total += shard.flights.size();
    }
    return total;
  }

 private:
  struct Flight {
    std::shared_future<ValuePtr> future;
    std::string leader;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, Flight> flights;
  };

  std::vector<Shard> shards_;
};

}  // namespace hetsched
