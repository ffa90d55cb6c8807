#include <gtest/gtest.h>

#include "hw/platform.hpp"
#include "runtime/executor.hpp"
#include "runtime/task_graph.hpp"
#include "tests/runtime/test_kernels.hpp"

/// Tests for the write-back eligibility query and the taskwait
/// flush+invalidate semantics — the two runtime behaviours DESIGN.md §7
/// identifies as load-bearing for the paper's figures.
namespace hetsched::rt {
namespace {

using testing::kItemBytes;
using testing::make_map_kernel;

constexpr hw::DeviceId kCpu = hw::kCpuDevice;
constexpr hw::DeviceId kGpu = 1;

class WritebackAnalysisTest : public ::testing::Test {
 protected:
  static constexpr mem::BufferId kA = 0, kB = 1, kC = 2;

  std::vector<KernelDef> kernels_{
      make_map_kernel("producer", kA, kB),  // reads A, writes B
      make_map_kernel("consumer", kB, kC),  // reads B, writes C
  };

  /// Eligibility of the WRITE access of task `id` (its last access).
  bool write_eligible(const TaskGraph& graph, TaskId id) {
    const TaskNode& node = graph.node(id);
    for (std::size_t a = 0; a < node.accesses.size(); ++a)
      if (node.accesses[a].writes()) return graph.writeback_eligible(id, a);
    return false;
  }
};

TEST_F(WritebackAnalysisTest, ProgramTailOutputIsEligible) {
  Program program;
  program.submit(0, 0, 100, kGpu);
  program.taskwait();
  TaskGraph graph(kernels_, program);
  // B is written and never touched again: eager write-back.
  EXPECT_TRUE(write_eligible(graph, 0));
}

TEST_F(WritebackAnalysisTest, KernelConsumedOutputStaysResident) {
  Program program;
  program.submit(0, 0, 100, kGpu);  // writes B
  program.submit(1, 0, 100, kGpu);  // reads B
  program.taskwait();
  TaskGraph graph(kernels_, program);
  EXPECT_FALSE(write_eligible(graph, 0));  // consumer will read it
  EXPECT_TRUE(write_eligible(graph, 1));   // C is a tail output
}

TEST_F(WritebackAnalysisTest, BarrierBeforeConsumerStillNotEligible) {
  // The intermediate taskwait flushes B synchronously (the expensive sync
  // the paper charges SP-Varied for); the write is NOT eagerly returned.
  Program program;
  program.submit(0, 0, 100, kGpu);
  program.taskwait();
  program.submit(1, 0, 100, kGpu);
  program.taskwait();
  TaskGraph graph(kernels_, program);
  EXPECT_FALSE(write_eligible(graph, 0));
}

TEST_F(WritebackAnalysisTest, HostOpConsumerIsEligible) {
  Program program;
  program.submit(0, 0, 100, kGpu);
  program.taskwait();
  program.host_op({{{kB, {0, 100 * kItemBytes}}, mem::AccessMode::kRead},
                   {{kA, {0, 100 * kItemBytes}}, mem::AccessMode::kWrite}});
  TaskGraph graph(kernels_, program);
  EXPECT_TRUE(write_eligible(graph, 0));  // host update needs it home
}

TEST_F(WritebackAnalysisTest, UnpinnedFollowsSamePolicy) {
  Program program;
  program.submit(0, 0, 100);  // dynamic
  program.submit(1, 0, 100);
  program.taskwait();
  TaskGraph graph(kernels_, program);
  EXPECT_FALSE(write_eligible(graph, 0));
  EXPECT_TRUE(write_eligible(graph, 1));
}

TEST_F(WritebackAnalysisTest, PartialOverlapCountsAsConflict) {
  Program program;
  program.submit(0, 0, 100, kGpu);   // writes B[0,100)
  program.submit(1, 50, 150, kGpu);  // reads B[50,150): overlaps
  program.taskwait();
  TaskGraph graph(kernels_, program);
  EXPECT_FALSE(write_eligible(graph, 0));
}

TEST_F(WritebackAnalysisTest, LaterWriteOnlyKernelKeepsOutputResident) {
  // WAW: a kernel that only writes the range decides like a reader would.
  std::vector<KernelDef> kernels = kernels_;
  kernels.push_back(make_map_kernel("overwrite", kC, kB));  // writes B only
  Program program;
  program.submit(0, 0, 100, kGpu);
  program.submit(2, 0, 100, kGpu);
  program.taskwait();
  TaskGraph graph(kernels, program);
  EXPECT_FALSE(write_eligible(graph, 0));
  EXPECT_TRUE(write_eligible(graph, 1));
}

TEST_F(WritebackAnalysisTest, ReadsAndEmptyWritesAreNeverEligible) {
  Program program;
  program.submit(0, 0, 100, kGpu);  // access 0 reads A, access 1 writes B
  program.host_op({{{kC, {0, 0}}, mem::AccessMode::kWrite}});
  TaskGraph graph(kernels_, program);
  EXPECT_FALSE(graph.writeback_eligible(0, 0));
  EXPECT_TRUE(graph.writeback_eligible(0, 1));
  // Nothing follows it, but an empty region has nothing to write back.
  EXPECT_FALSE(graph.writeback_eligible(1, 0));
}

TEST_F(WritebackAnalysisTest, KernelBeforeHostOpKeepsOutputResident) {
  Program program;
  program.submit(0, 0, 100, kGpu);  // writes B
  program.submit(1, 0, 100, kGpu);  // reads B before the host does
  program.taskwait();
  program.host_op({{{kB, {0, 100 * kItemBytes}}, mem::AccessMode::kRead}});
  TaskGraph graph(kernels_, program);
  EXPECT_FALSE(write_eligible(graph, 0));  // the first use decides
}

class InvalidationTest : public ::testing::Test {
 protected:
  InvalidationTest() : exec_(hw::make_reference_platform()) {
    in_ = exec_.register_buffer("in", 1000 * kItemBytes);
    out_ = exec_.register_buffer("out", 1000 * kItemBytes);
    kernel_ = exec_.register_kernel(make_map_kernel("map", in_, out_));
  }

  Executor exec_;
  mem::BufferId in_ = 0, out_ = 0;
  KernelId kernel_ = 0;
};

TEST_F(InvalidationTest, TaskwaitForcesReupload) {
  // Same kernel twice with an intermediate taskwait: the second instance
  // must re-upload its input (the taskwait dropped the device copy).
  Program program;
  program.submit(kernel_, 0, 1000, kGpu);
  program.taskwait();
  program.submit(kernel_, 0, 1000, kGpu);
  program.taskwait();
  const ExecutionReport report = exec_.execute_pinned(program);
  EXPECT_EQ(report.transfers.h2d_count, 2u);
  EXPECT_EQ(report.transfers.h2d_bytes, 2 * 1000 * kItemBytes);
}

TEST_F(InvalidationTest, NoBarrierMeansDataStaysResident) {
  Program program;
  program.submit(kernel_, 0, 1000, kGpu);
  program.submit(kernel_, 0, 1000, kGpu);
  program.taskwait();
  const ExecutionReport report = exec_.execute_pinned(program);
  EXPECT_EQ(report.transfers.h2d_count, 1u);
}

TEST_F(InvalidationTest, SyncCostScalesWithBarrierCount) {
  auto run_with_barriers = [&](int repeats, bool sync) {
    Program program;
    for (int i = 0; i < repeats; ++i) {
      program.submit(kernel_, 0, 1000, kGpu);
      if (sync) program.taskwait();
    }
    if (!sync) program.taskwait();
    return exec_.execute_pinned(program);
  };
  const ExecutionReport synced = run_with_barriers(4, true);
  const ExecutionReport unsynced = run_with_barriers(4, false);
  EXPECT_GT(synced.transfers.total_bytes(), unsynced.transfers.total_bytes());
  EXPECT_GT(synced.makespan, unsynced.makespan);
}

TEST_F(InvalidationTest, CpuSideUnaffectedByInvalidation) {
  Program program;
  program.submit(kernel_, 0, 1000, kCpu);
  program.taskwait();
  program.submit(kernel_, 0, 1000, kCpu);
  program.taskwait();
  const ExecutionReport report = exec_.execute_pinned(program);
  EXPECT_EQ(report.transfers.total_bytes(), 0);
}

}  // namespace
}  // namespace hetsched::rt
