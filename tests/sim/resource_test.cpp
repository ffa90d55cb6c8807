#include "sim/resource.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace hetsched::sim {
namespace {

TEST(Resource, ImmediateStartWhenIdle) {
  Resource r("gpu");
  const BusySpan span = r.reserve(100, 50);
  EXPECT_EQ(span.start, 100);
  EXPECT_EQ(span.end, 150);
  EXPECT_EQ(r.available_at(), 150);
}

TEST(Resource, QueuesBehindEarlierReservation) {
  Resource r("gpu");
  r.reserve(0, 100);
  const BusySpan span = r.reserve(20, 30);
  EXPECT_EQ(span.start, 100);  // waits for the earlier job
  EXPECT_EQ(span.end, 130);
}

TEST(Resource, IdleGapPreserved) {
  Resource r("gpu");
  r.reserve(0, 10);
  const BusySpan span = r.reserve(100, 10);
  EXPECT_EQ(span.start, 100);  // arrives after the resource went idle
  EXPECT_EQ(span.end, 110);
}

TEST(Resource, BusyTimeAccumulates) {
  // Back-to-back requests arriving together keep the lane busy for the sum
  // of their durations.
  Resource r("lane");
  r.reserve(0, 25);
  r.reserve(0, 25);
  const BusySpan last = r.reserve(0, 50);
  EXPECT_EQ(last.start, 50);
  EXPECT_EQ(r.available_at(), 100);
}

TEST(Resource, ZeroDurationReservation) {
  Resource r("lane");
  const BusySpan span = r.reserve(5, 0);
  EXPECT_EQ(span.start, 5);
  EXPECT_EQ(span.end, 5);
  EXPECT_EQ(r.available_at(), 5);
}

TEST(Resource, RejectsNegativeArguments) {
  Resource r("lane");
  EXPECT_THROW(r.reserve(-1, 10), InvalidArgument);
  EXPECT_THROW(r.reserve(0, -10), InvalidArgument);
}

TEST(Resource, FifoOrderIndependentOfDuration) {
  Resource r("gpu");
  const BusySpan first = r.reserve(0, 100);
  const BusySpan second = r.reserve(0, 1);
  EXPECT_LT(first.start, second.start);  // no overtaking
  EXPECT_EQ(second.start, first.end);
}

}  // namespace
}  // namespace hetsched::sim
