#include "common/single_flight.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

/// The contract the sweep memo and the serve cache share: one compute per
/// key, joiners get the owner's value or exception, failures never cached.
namespace hetsched {
namespace {

using Flights = SingleFlight<std::string>;

void spin_until(const std::atomic<bool>& flag) {
  while (!flag.load()) std::this_thread::yield();
}

/// Runs `owner` (which claims a flight and holds it until `release`), then
/// `count` threads running `join` against that open flight; the 100 ms
/// after they start covers the microseconds a lookup takes to block.
template <typename Owner, typename Join>
void run_joined_flight(Flights& flights, std::atomic<bool>& release,
                       int count, Owner owner, Join join) {
  std::thread owner_thread(owner);
  while (flights.entries() == 0) std::this_thread::yield();
  std::atomic<int> started{0};
  std::vector<std::thread> joiners;
  for (int j = 0; j < count; ++j) {
    joiners.emplace_back([&] {
      started.fetch_add(1);
      join();
    });
  }
  while (started.load() < count) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  release.store(true);
  owner_thread.join();
  for (std::thread& thread : joiners) thread.join();
}

TEST(SingleFlight, HammerComputesOncePerKey) {
  constexpr int kThreads = 16;
  constexpr int kKeys = 5;
  constexpr int kRounds = 40;
  Flights flights(4);
  std::atomic<int> computes{0}, owners{0}, others{0}, wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const std::string id = std::to_string((t + round) % kKeys);
        const Flights::Lookup lookup =
            flights.get_or_compute("key-" + id, [&computes, &id] {
              computes.fetch_add(1);
              // Widen the race window so callers pile onto live flights.
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
              return "value-" + id;
            });
        (lookup.owner ? owners : others).fetch_add(1);
        if (*lookup.value != "value-" + id) wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(computes.load(), kKeys) << "single-flight violated";
  EXPECT_EQ(owners.load(), kKeys);
  EXPECT_EQ(owners.load() + others.load(), kThreads * kRounds);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(flights.entries(), static_cast<std::size_t>(kKeys));
}

TEST(SingleFlight, DistinctKeysComputeIndependently) {
  Flights flights;
  int computes = 0;
  const auto make = [&computes] { return std::to_string(++computes); };
  EXPECT_TRUE(flights.get_or_compute("a", make).owner);
  EXPECT_TRUE(flights.get_or_compute("b", make).owner);
  const Flights::Lookup again = flights.get_or_compute("a", make);
  EXPECT_FALSE(again.owner);
  EXPECT_FALSE(again.joined) << "a finished entry is read, not joined";
  EXPECT_EQ(*again.value, "1");
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(flights.entries(), 2u);
}

TEST(SingleFlight, ShardIndexIsStableAndInRange) {
  const Flights flights(8);
  ASSERT_EQ(flights.shard_count(), 8u);
  for (const std::string key : {"a", "b", "longer-key", ""}) {
    EXPECT_EQ(flights.shard_index(key), flights.shard_index(key));
    EXPECT_EQ(flights.shard_index(key), fnv1a64(key) % 8);
  }
  // Zero shards clamps to one instead of dividing by zero.
  const Flights one(0);
  EXPECT_EQ(one.shard_count(), 1u);
  EXPECT_EQ(one.shard_index("anything"), 0u);
}

TEST(SingleFlight, ThrowingComputeVacatesTheSlot) {
  Flights flights(2);
  const auto failing = []() -> std::string { throw std::runtime_error("x"); };
  EXPECT_THROW(flights.get_or_compute("k", failing), std::runtime_error);
  EXPECT_EQ(flights.entries(), 0u) << "a failure must not occupy the slot";
  // The next call starts a new flight instead of replaying the failure.
  const Flights::Lookup retry =
      flights.get_or_compute("k", [] { return std::string("recovered"); });
  EXPECT_TRUE(retry.owner);
  EXPECT_EQ(*retry.value, "recovered");
}

TEST(SingleFlight, JoinersOfAFailingFlightGetTheOwnersException) {
  // Only the owner throws this type. It holds no string: joiners share the
  // one exception object, and ThreadSanitizer cannot see libstdc++'s COW
  // string refcount.
  struct OwnerFailure {};
  constexpr int kJoiners = 6;
  Flights flights;
  std::atomic<bool> release{false};
  std::atomic<int> joiner_computes{0}, owner_errors{0};
  run_joined_flight(
      flights, release, kJoiners,
      [&] {
        EXPECT_THROW(flights.get_or_compute("k",
                                            [&]() -> std::string {
                                              spin_until(release);
                                              throw OwnerFailure{};
                                            }),
                     OwnerFailure);
      },
      [&] {
        try {
          flights.get_or_compute("k", [&] {
            joiner_computes.fetch_add(1);
            return std::string("joiner");
          });
        } catch (const OwnerFailure&) {
          owner_errors.fetch_add(1);
        }
      });
  EXPECT_EQ(joiner_computes.load(), 0) << "a joiner ran its own compute";
  EXPECT_EQ(owner_errors.load(), kJoiners);
  EXPECT_EQ(flights.entries(), 0u);
}

TEST(SingleFlight, JoinersSeeTheLeadersTag) {
  Flights flights;
  std::atomic<bool> release{false};
  Flights::Lookup owner;
  Flights::Lookup joiner;
  run_joined_flight(
      flights, release, 1,
      [&] {
        owner = flights.get_or_compute(
            "k", [&] { spin_until(release); return std::string("v"); },
            "leader-trace");
      },
      [&] {
        joiner = flights.get_or_compute(
            "k", [] { return std::string("never"); }, "joiner-trace");
      });
  EXPECT_TRUE(owner.owner);
  EXPECT_TRUE(owner.leader.empty());
  EXPECT_FALSE(joiner.owner);
  EXPECT_TRUE(joiner.joined);
  EXPECT_EQ(joiner.leader, "leader-trace");
  EXPECT_EQ(*joiner.value, "v");
}

}  // namespace
}  // namespace hetsched
