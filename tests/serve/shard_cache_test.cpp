#include "serve/shard_cache.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sweep/cache.hpp"

namespace hetsched::serve {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

TEST(ShardedScenarioCacheTest, ComputesOncePerKeyAndServesHitsAfter) {
  ShardedScenarioCache cache(4);
  int computes = 0;
  const auto compute = [&computes] {
    ++computes;
    return std::string("value");
  };

  const ShardedScenarioCache::Lookup first =
      cache.get_or_compute("k", compute);
  EXPECT_FALSE(first.hit);
  EXPECT_EQ(*first.value, "value");
  const ShardedScenarioCache::Lookup second =
      cache.get_or_compute("k", compute);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(*second.value, "value");
  EXPECT_EQ(computes, 1);

  const ShardCacheCounters counters = cache.counters();
  EXPECT_EQ(counters.hits, 1);
  EXPECT_EQ(counters.misses, 1);
  EXPECT_EQ(counters.computes, 1);
  EXPECT_EQ(counters.disk_hits, 0);
}

TEST(ShardedScenarioCacheTest, ConcurrentHammerIsSingleFlight) {
  // Many threads, few keys, slow computes: the counters must balance
  // (hits + misses == lookups) at one compute per key. The single-flight
  // contract itself is tested on SingleFlight (tests/common).
  constexpr int kThreads = 16;
  constexpr int kKeys = 5;
  constexpr int kRoundsPerThread = 40;

  ShardedScenarioCache cache(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        const std::string key = "key-" + std::to_string((t + round) % kKeys);
        cache.get_or_compute(key, [&key] {
          // Widen the race window so waiters really pile onto the
          // owner's flight.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          return key;
        });
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const ShardCacheCounters counters = cache.counters();
  EXPECT_EQ(counters.hits + counters.misses, kThreads * kRoundsPerThread);
  EXPECT_EQ(counters.misses, counters.disk_hits + counters.computes);
  EXPECT_EQ(counters.computes, kKeys) << "single-flight violated";
}

TEST(ShardedScenarioCacheTest, ThrowingComputeRetriesInsteadOfCaching) {
  ShardedScenarioCache cache(2);
  int attempts = 0;
  const auto failing = [&attempts]() -> std::string {
    ++attempts;
    throw std::runtime_error("flaky");
  };
  EXPECT_THROW(cache.get_or_compute("k", failing), std::runtime_error);
  EXPECT_EQ(cache.entries(), 0u) << "a failure must not occupy the slot";
  // The next request retries (and may succeed).
  const ShardedScenarioCache::Lookup lookup =
      cache.get_or_compute("k", [] { return std::string("recovered"); });
  EXPECT_FALSE(lookup.hit);
  EXPECT_EQ(*lookup.value, "recovered");
  EXPECT_EQ(attempts, 1);

  // A failed lookup is real traffic: it counts as a miss and a compute, so
  // the counters still balance against the two lookups made.
  const ShardCacheCounters counters = cache.counters();
  EXPECT_EQ(counters.misses, 2);
  EXPECT_EQ(counters.hits, 0);
  EXPECT_EQ(counters.computes, 2);
  EXPECT_EQ(counters.hits + counters.misses, 2);
}

TEST(ShardedScenarioCacheTest, DiskStoreFrontsComputation) {
  const fs::path dir = fresh_dir("shard_cache_disk_test");
  sweep::ResultCache disk(dir.string());
  ASSERT_TRUE(disk.store("warm-key", "stored-bytes"));

  ShardedScenarioCache cache(4, &disk);
  const ShardedScenarioCache::Lookup warm = cache.get_or_compute(
      "warm-key", []() -> std::string { ADD_FAILURE(); return ""; });
  EXPECT_TRUE(warm.disk_hit);
  EXPECT_FALSE(warm.hit) << "the owning lookup is still a shard miss";
  EXPECT_EQ(*warm.value, "stored-bytes");

  const ShardCacheCounters counters = cache.counters();
  EXPECT_EQ(counters.disk_hits, 1);
  EXPECT_EQ(counters.computes, 0);
  fs::remove_all(dir);
}

TEST(ShardedScenarioCacheTest, FlushWarmsTheNextGeneration) {
  const fs::path dir = fresh_dir("shard_cache_flush_test");
  {
    sweep::ResultCache disk(dir.string());
    ShardedScenarioCache cache(4, &disk);
    cache.get_or_compute("a", [] { return std::string("A"); });
    cache.get_or_compute("b", [] { return std::string("B"); });
    cache.get_or_compute("a", [] { return std::string("never"); });
    EXPECT_EQ(cache.flush(), 2u);
    EXPECT_EQ(cache.flush(), 0u) << "flush must not rewrite clean entries";
    EXPECT_EQ(cache.counters().flushed, 2);
  }
  // A fresh cache over the same store answers from disk, no computation.
  sweep::ResultCache disk(dir.string());
  ShardedScenarioCache restarted(4, &disk);
  const ShardedScenarioCache::Lookup lookup = restarted.get_or_compute(
      "a", []() -> std::string { ADD_FAILURE(); return ""; });
  EXPECT_TRUE(lookup.disk_hit);
  EXPECT_EQ(*lookup.value, "A");
  // Disk-loaded entries are clean: nothing to flush back.
  EXPECT_EQ(restarted.flush(), 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hetsched::serve
