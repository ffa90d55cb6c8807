#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "sim/trace_stats.hpp"

namespace hetsched::sim {
namespace {

TEST(TraceRecorder, EmptyMakespanIsZero) {
  TraceRecorder trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.makespan(), 0);
}

TEST(TraceRecorder, MakespanIsLatestEnd) {
  TraceRecorder trace;
  trace.record("gpu0", "a", TraceKind::kCompute, 0, 100);
  trace.record("cpu.t0", "b", TraceKind::kCompute, 50, 80);
  EXPECT_EQ(trace.makespan(), 100);
}

// The recorder only records; per-lane and per-kind sums come from
// analyze_trace.
TEST(TraceRecorder, LaneTimeFiltersByLaneAndKind) {
  TraceRecorder trace;
  trace.record("gpu0", "k", TraceKind::kCompute, 0, 10);
  trace.record("gpu0", "t", TraceKind::kTransferH2D, 10, 30);
  trace.record("cpu.t0", "k", TraceKind::kCompute, 0, 5);
  const TraceStats stats = analyze_trace(trace);
  ASSERT_EQ(stats.lanes.size(), 2u);  // sorted by name; no cpu.t1 lane
  EXPECT_EQ(stats.lanes[0].lane, "cpu.t0");
  EXPECT_EQ(stats.lanes[0].compute, 5);
  EXPECT_EQ(stats.lanes[0].transfer, 0);
  EXPECT_EQ(stats.lanes[1].lane, "gpu0");
  EXPECT_EQ(stats.lanes[1].compute, 10);
  EXPECT_EQ(stats.lanes[1].transfer, 20);
}

TEST(TraceRecorder, TotalTimeSumsAcrossLanes) {
  TraceRecorder trace;
  trace.record("a", "x", TraceKind::kCompute, 0, 10);
  trace.record("b", "y", TraceKind::kCompute, 0, 15);
  const TraceStats stats = analyze_trace(trace);
  EXPECT_EQ(stats.total_compute, 25);
  EXPECT_EQ(stats.total_sync, 0);
}

TEST(TraceRecorder, ChromeJsonShape) {
  TraceRecorder trace;
  trace.record("gpu0", "kernel \"x\"", TraceKind::kCompute, 0,
               2 * kMicrosecond);
  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\\\"x\\\""), std::string::npos);  // escaped quote
  EXPECT_NE(json.find("\"dur\":2"), std::string::npos);  // microseconds
  EXPECT_NE(json.find("\"tid\":\"gpu0\""), std::string::npos);

  // Control characters in a label or lane name still export valid JSON.
  const std::string label = "a\tb\x01";
  trace.record("lane\n1", label, TraceKind::kCompute, 0, kMicrosecond);
  const json::Value parsed = json::Value::parse(trace.to_chrome_json());
  const json::Value& event = parsed.at("traceEvents").as_array().at(1);
  EXPECT_EQ(event.at("name").as_string(), label);
  EXPECT_EQ(event.at("tid").as_string(), "lane\n1");
}

TEST(TraceRecorder, KindNames) {
  EXPECT_STREQ(trace_kind_name(TraceKind::kCompute), "compute");
  EXPECT_STREQ(trace_kind_name(TraceKind::kTransferH2D), "h2d");
  EXPECT_STREQ(trace_kind_name(TraceKind::kTransferD2H), "d2h");
  EXPECT_STREQ(trace_kind_name(TraceKind::kOverhead), "overhead");
  EXPECT_STREQ(trace_kind_name(TraceKind::kSync), "sync");
}

TEST(TraceRecorder, ClearEmptiesEvents) {
  TraceRecorder trace;
  trace.record("a", "x", TraceKind::kCompute, 0, 10);
  trace.clear();
  EXPECT_TRUE(trace.empty());
}

}  // namespace
}  // namespace hetsched::sim
