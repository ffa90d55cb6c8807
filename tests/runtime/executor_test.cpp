#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "hw/platform.hpp"
#include "runtime/schedulers/breadth_first.hpp"
#include "sim/trace_stats.hpp"
#include "tests/runtime/test_kernels.hpp"

namespace hetsched::rt {
namespace {

using testing::kItemBytes;
using testing::make_inplace_kernel;
using testing::make_map_kernel;

constexpr hw::DeviceId kCpu = hw::kCpuDevice;
constexpr hw::DeviceId kGpu = 1;

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : exec_(hw::make_reference_platform()) {}

  Executor exec_;
};

TEST_F(ExecutorTest, SingleGpuTaskRunsWithTransfers) {
  const auto in = exec_.register_buffer("in", 1000 * kItemBytes);
  const auto out = exec_.register_buffer("out", 1000 * kItemBytes);
  exec_.register_kernel(make_map_kernel("map", in, out));

  Program program;
  program.submit(0, 0, 1000, kGpu);
  program.taskwait();
  const ExecutionReport report = exec_.execute_pinned(program);

  EXPECT_EQ(report.tasks_executed, 1u);
  EXPECT_EQ(report.devices[kGpu].instances, 1u);
  EXPECT_EQ(report.devices[kGpu].items_per_kernel.at(0), 1000);
  EXPECT_EQ(report.devices[kCpu].instances, 0u);
  // Input rode the link in; output flushed back at the barrier.
  EXPECT_EQ(report.transfers.h2d_count, 1u);
  EXPECT_EQ(report.transfers.h2d_bytes, 1000 * kItemBytes);
  EXPECT_EQ(report.transfers.d2h_count, 1u);
  EXPECT_EQ(report.transfers.d2h_bytes, 1000 * kItemBytes);
  EXPECT_EQ(report.barriers, 1u);
  EXPECT_GT(report.makespan, 0);
}

TEST_F(ExecutorTest, CpuTaskNeedsNoTransfers) {
  const auto in = exec_.register_buffer("in", 1000 * kItemBytes);
  const auto out = exec_.register_buffer("out", 1000 * kItemBytes);
  exec_.register_kernel(make_map_kernel("map", in, out));

  Program program;
  program.submit(0, 0, 1000, kCpu);
  program.taskwait();
  const ExecutionReport report = exec_.execute_pinned(program);
  EXPECT_EQ(report.transfers.h2d_count, 0u);
  EXPECT_EQ(report.transfers.d2h_count, 0u);
}

TEST_F(ExecutorTest, FunctionalExecutionProducesRealResults) {
  constexpr std::int64_t kN = 64;
  std::vector<float> data(kN, 1.0f);
  const auto buf = exec_.register_buffer("x", kN * kItemBytes);
  exec_.register_kernel(make_inplace_kernel(
      "inc", buf, [&data](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) data[i] += 1.0f;
      }));

  Program program;
  // Two dependent in-place updates split across devices.
  program.submit(0, 0, kN / 2, kCpu).submit(0, kN / 2, kN, kGpu);
  program.taskwait();
  program.submit(0, 0, kN, kGpu);
  program.taskwait();
  exec_.execute_pinned(program);

  for (float x : data) EXPECT_FLOAT_EQ(x, 3.0f);
}

TEST_F(ExecutorTest, DependentTasksRespectOrder) {
  constexpr std::int64_t kN = 32;
  std::vector<int> order;
  const auto a = exec_.register_buffer("a", kN * kItemBytes);
  const auto b = exec_.register_buffer("b", kN * kItemBytes);
  const auto c = exec_.register_buffer("c", kN * kItemBytes);
  exec_.register_kernel(make_map_kernel(
      "k0", a, b, [&order](std::int64_t, std::int64_t) { order.push_back(0); }));
  exec_.register_kernel(make_map_kernel(
      "k1", b, c, [&order](std::int64_t, std::int64_t) { order.push_back(1); }));

  Program program;
  program.submit(0, 0, kN, kGpu);
  program.submit(1, 0, kN, kCpu);  // RAW on buffer b, across devices
  program.taskwait();
  exec_.execute_pinned(program);

  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
}

TEST_F(ExecutorTest, CrossDeviceConsumerPullsDataBack) {
  const auto a = exec_.register_buffer("a", 100 * kItemBytes);
  const auto b = exec_.register_buffer("b", 100 * kItemBytes);
  const auto c = exec_.register_buffer("c", 100 * kItemBytes);
  exec_.register_kernel(make_map_kernel("k0", a, b));
  exec_.register_kernel(make_map_kernel("k1", b, c));

  Program program;
  program.submit(0, 0, 100, kGpu);  // writes b on the GPU
  program.submit(1, 0, 100, kCpu);  // reads b on the CPU -> D2H required
  program.taskwait();
  const ExecutionReport report = exec_.execute_pinned(program);
  // D2H for b (consumer) — and nothing else is dirty at the barrier except
  // b already home; so exactly one D2H before the compute, none at flush.
  EXPECT_EQ(report.transfers.d2h_count, 1u);
  EXPECT_EQ(report.transfers.d2h_bytes, 100 * kItemBytes);
}

TEST_F(ExecutorTest, LocalityAvoidsRedundantTransfers) {
  const auto a = exec_.register_buffer("a", 100 * kItemBytes);
  const auto b = exec_.register_buffer("b", 100 * kItemBytes);
  const auto c = exec_.register_buffer("c", 100 * kItemBytes);
  exec_.register_kernel(make_map_kernel("k0", a, b));
  exec_.register_kernel(make_map_kernel("k1", b, c));

  Program program;
  program.submit(0, 0, 100, kGpu);
  program.submit(1, 0, 100, kGpu);  // consumer on the same device
  program.taskwait();
  const ExecutionReport report = exec_.execute_pinned(program);
  // Only a rides in; b stays resident; b and c flush out.
  EXPECT_EQ(report.transfers.h2d_count, 1u);
  EXPECT_EQ(report.transfers.h2d_bytes, 100 * kItemBytes);
  EXPECT_EQ(report.transfers.d2h_bytes, 200 * kItemBytes);
}

TEST_F(ExecutorTest, CpuLanesRunConcurrently) {
  const auto a = exec_.register_buffer("a", 1200 * kItemBytes);
  const auto b = exec_.register_buffer("b", 1200 * kItemBytes);
  exec_.register_kernel(make_map_kernel("map", a, b));

  // 12 independent instances on a 12-lane CPU: makespan should be far below
  // 12x one instance (they run in parallel lanes).
  Program once;
  once.submit(0, 0, 100, kCpu);
  once.taskwait();
  const SimTime single = exec_.execute_pinned(once).makespan;

  Program many;
  many.submit_chunked(0, 0, 1200, 12);
  // Chunked submit leaves tasks unpinned; pin each to the CPU.
  Program pinned;
  for (const auto& op : many.ops())
    pinned.submit(op.submit.kernel, op.submit.begin, op.submit.end, kCpu);
  pinned.taskwait();
  const SimTime twelve = exec_.execute_pinned(pinned).makespan;

  EXPECT_LT(twelve, 4 * single);
}

TEST_F(ExecutorTest, GpuLaneSerializes) {
  const auto a = exec_.register_buffer("a", 200 * kItemBytes);
  const auto b = exec_.register_buffer("b", 200 * kItemBytes);
  exec_.register_kernel(make_map_kernel("map", a, b));

  Program program;
  program.submit(0, 0, 100, kGpu).submit(0, 100, 200, kGpu);
  program.taskwait();
  const ExecutionReport report = exec_.execute_pinned(program);
  // Two instances on one in-order lane: compute time accumulates on gpu.
  EXPECT_EQ(report.devices[kGpu].instances, 2u);
  EXPECT_GE(report.makespan, report.devices[kGpu].compute_time);
}

TEST_F(ExecutorTest, MakespanGrowsWithWork) {
  const auto a = exec_.register_buffer("a", 100000 * kItemBytes);
  const auto b = exec_.register_buffer("b", 100000 * kItemBytes);
  exec_.register_kernel(make_map_kernel("map", a, b));

  Program small;
  small.submit(0, 0, 1000, kCpu);
  small.taskwait();
  Program large;
  large.submit(0, 0, 100000, kCpu);
  large.taskwait();
  EXPECT_GT(exec_.execute_pinned(large).makespan,
            exec_.execute_pinned(small).makespan);
}

TEST_F(ExecutorTest, ExecutePinnedRejectsUnpinnedTasks) {
  const auto a = exec_.register_buffer("a", 100 * kItemBytes);
  const auto b = exec_.register_buffer("b", 100 * kItemBytes);
  exec_.register_kernel(make_map_kernel("map", a, b));
  Program program;
  program.submit(0, 0, 100);  // unpinned
  EXPECT_THROW(exec_.execute_pinned(program), InvalidArgument);
}

TEST_F(ExecutorTest, PinToMissingImplementationRejected) {
  const auto a = exec_.register_buffer("a", 100 * kItemBytes);
  const auto b = exec_.register_buffer("b", 100 * kItemBytes);
  KernelDef def = make_map_kernel("cpu-only", a, b);
  def.has_gpu_impl = false;
  exec_.register_kernel(std::move(def));
  Program program;
  program.submit(0, 0, 100, kGpu);
  EXPECT_THROW(exec_.execute_pinned(program), InvalidArgument);
}

TEST_F(ExecutorTest, ReportPartitionFractions) {
  const auto a = exec_.register_buffer("a", 1000 * kItemBytes);
  const auto b = exec_.register_buffer("b", 1000 * kItemBytes);
  exec_.register_kernel(make_map_kernel("map", a, b));
  Program program;
  program.submit(0, 0, 750, kGpu).submit(0, 750, 1000, kCpu);
  program.taskwait();
  const ExecutionReport report = exec_.execute_pinned(program);
  EXPECT_DOUBLE_EQ(report.partition_fraction(kGpu, 0), 0.75);
  EXPECT_DOUBLE_EQ(report.partition_fraction(kCpu, 0), 0.25);
  EXPECT_DOUBLE_EQ(report.overall_fraction(kGpu), 0.75);
}

TEST_F(ExecutorTest, RepeatedExecutionIsDeterministic) {
  const auto a = exec_.register_buffer("a", 5000 * kItemBytes);
  const auto b = exec_.register_buffer("b", 5000 * kItemBytes);
  exec_.register_kernel(make_map_kernel("map", a, b));
  Program program;
  program.submit(0, 0, 2000, kGpu).submit(0, 2000, 5000, kCpu);
  program.taskwait();
  const ExecutionReport r1 = exec_.execute_pinned(program);
  const ExecutionReport r2 = exec_.execute_pinned(program);
  EXPECT_EQ(r1.makespan, r2.makespan);
  EXPECT_EQ(r1.transfers.h2d_bytes, r2.transfers.h2d_bytes);
  EXPECT_EQ(r1.overhead_time, r2.overhead_time);
}

TEST_F(ExecutorTest, TraceRecordsComputeAndTransfers) {
  Executor exec(hw::make_reference_platform(), RuntimeCosts{},
                RuntimeOptions{.functional_execution = true,
                               .record_trace = true});
  const auto a = exec.register_buffer("a", 100 * kItemBytes);
  const auto b = exec.register_buffer("b", 100 * kItemBytes);
  exec.register_kernel(make_map_kernel("map", a, b));
  Program program;
  program.submit(0, 0, 100, kGpu);
  program.taskwait();
  const ExecutionReport report = exec.execute_pinned(program);
  const sim::TraceStats stats = sim::analyze_trace(report.trace);
  EXPECT_GT(stats.total_compute, 0);
  EXPECT_GT(stats.total_h2d, 0);
  EXPECT_GT(stats.total_d2h, 0);
  EXPECT_LE(report.trace.makespan(), report.makespan);
}

TEST_F(ExecutorTest, PeakResidencyTracked) {
  const auto a = exec_.register_buffer("a", 100 * kItemBytes);
  const auto b = exec_.register_buffer("b", 100 * kItemBytes);
  exec_.register_kernel(make_map_kernel("map", a, b));
  Program program;
  program.submit(0, 0, 100, kGpu);
  program.taskwait();
  const ExecutionReport report = exec_.execute_pinned(program);
  // GPU held input + output = 200 items worth of bytes at peak.
  EXPECT_EQ(report.peak_resident_bytes[kGpu], 200 * kItemBytes);
}

TEST_F(ExecutorTest, BarrierSerializesAgainstFollowingTasks) {
  constexpr std::int64_t kN = 100;
  const auto a = exec_.register_buffer("a", kN * kItemBytes);
  const auto b = exec_.register_buffer("b", kN * kItemBytes);
  exec_.register_kernel(make_map_kernel("map", a, b));

  Program with_sync;
  with_sync.submit(0, 0, kN, kGpu).taskwait().submit(0, 0, kN, kGpu);
  with_sync.taskwait();

  Program without_sync;
  without_sync.submit(0, 0, kN, kGpu).submit(0, 0, kN, kGpu);
  without_sync.taskwait();

  // The sync version flushes b home after each kernel (two D2H copies; the
  // unwritten input a stays cached on the GPU) and runs longer.
  const ExecutionReport sync_report = exec_.execute_pinned(with_sync);
  const ExecutionReport nosync_report = exec_.execute_pinned(without_sync);
  EXPECT_EQ(nosync_report.transfers.d2h_count, 1u);
  EXPECT_EQ(sync_report.transfers.d2h_count, 2u);
  EXPECT_GT(sync_report.makespan, nosync_report.makespan);
}

TEST(ExecutorConstruction, ValidatesBuffersAndKernels) {
  Executor exec(hw::make_reference_platform());
  EXPECT_THROW(exec.register_buffer("bad", 0), InvalidArgument);
  KernelDef def;  // no name, no accesses
  EXPECT_THROW(exec.register_kernel(def), InvalidArgument);
}

}  // namespace
}  // namespace hetsched::rt
