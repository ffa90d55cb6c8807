#include "runtime/task_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "runtime/program.hpp"
#include "tests/runtime/test_kernels.hpp"

namespace hetsched::rt {
namespace {

using testing::make_inplace_kernel;
using testing::make_map_kernel;

bool has_edge(const TaskGraph& graph, TaskId from, TaskId to) {
  const auto succ = graph.successors(from);
  return std::find(succ.begin(), succ.end(), to) != succ.end();
}

std::vector<TaskId> successor_list(const TaskGraph& graph, TaskId id) {
  const auto succ = graph.successors(id);
  return {succ.begin(), succ.end()};
}

class TaskGraphTest : public ::testing::Test {
 protected:
  // Buffers are identified by arbitrary ids; the graph only needs sizes to
  // be consistent with accesses, which test kernels keep item-aligned.
  static constexpr mem::BufferId kA = 0, kB = 1, kC = 2;

  std::vector<KernelDef> kernels_{
      make_map_kernel("produce", kA, kB),    // kernel 0: reads A writes B
      make_map_kernel("consume", kB, kC),    // kernel 1: reads B writes C
      make_inplace_kernel("update", kB),     // kernel 2: inout B
  };
};

TEST_F(TaskGraphTest, IndependentTasksHaveNoEdges) {
  Program program;
  program.submit(0, 0, 100).submit(0, 100, 200);  // disjoint writes/reads
  TaskGraph graph(kernels_, program);
  EXPECT_EQ(graph.edge_count(), 0u);
  EXPECT_EQ(graph.initial_ready().size(), 2u);
}

TEST_F(TaskGraphTest, RawDependency) {
  Program program;
  program.submit(0, 0, 100);   // writes B[0,100)
  program.submit(1, 0, 100);   // reads B[0,100)
  TaskGraph graph(kernels_, program);
  EXPECT_TRUE(has_edge(graph, 0, 1));
  EXPECT_EQ(graph.node(1).predecessor_count, 1u);
  EXPECT_EQ(graph.initial_ready(), (std::vector<TaskId>{0}));
}

TEST_F(TaskGraphTest, RawOnlyOnOverlap) {
  Program program;
  program.submit(0, 0, 100);    // writes B[0,100)
  program.submit(1, 100, 200);  // reads B[100,200) — disjoint
  TaskGraph graph(kernels_, program);
  EXPECT_FALSE(has_edge(graph, 0, 1));
  EXPECT_EQ(graph.edge_count(), 0u);
}

TEST_F(TaskGraphTest, PartialOverlapCreatesEdge) {
  Program program;
  program.submit(0, 0, 100);
  program.submit(1, 50, 150);  // overlapping read [50,100)
  TaskGraph graph(kernels_, program);
  EXPECT_TRUE(has_edge(graph, 0, 1));
}

TEST_F(TaskGraphTest, WawDependency) {
  Program program;
  program.submit(0, 0, 100);
  program.submit(0, 0, 100);  // writes same range of B again
  TaskGraph graph(kernels_, program);
  EXPECT_TRUE(has_edge(graph, 0, 1));
}

TEST_F(TaskGraphTest, WarDependency) {
  Program program;
  program.submit(1, 0, 100);  // reads B
  program.submit(0, 0, 100);  // writes B -> WAR on the reader
  TaskGraph graph(kernels_, program);
  EXPECT_TRUE(has_edge(graph, 0, 1));
}

TEST_F(TaskGraphTest, InoutChainSerializes) {
  Program program;
  for (int i = 0; i < 4; ++i) program.submit(2, 0, 100);
  TaskGraph graph(kernels_, program);
  for (TaskId i = 0; i + 1 < 4; ++i) EXPECT_TRUE(has_edge(graph, i, i + 1));
  EXPECT_EQ(graph.initial_ready().size(), 1u);
}

TEST_F(TaskGraphTest, InoutDoesNotSelfDepend) {
  Program program;
  program.submit(2, 0, 100);
  TaskGraph graph(kernels_, program);
  EXPECT_EQ(graph.edge_count(), 0u);
}

TEST_F(TaskGraphTest, ReadersShareThenWriterWaitsForAll) {
  Program program;
  program.submit(0, 0, 100);  // t0 writes B
  program.submit(1, 0, 50);   // t1 reads B (disjoint C writes)
  program.submit(1, 50, 100); // t2 reads B
  program.submit(2, 0, 100);  // t3 writes B -> WAR on t1 and t2
  TaskGraph graph(kernels_, program);
  EXPECT_TRUE(has_edge(graph, 0, 1));
  EXPECT_TRUE(has_edge(graph, 0, 2));
  EXPECT_FALSE(has_edge(graph, 1, 2));  // readers are concurrent
  EXPECT_TRUE(has_edge(graph, 1, 3));
  EXPECT_TRUE(has_edge(graph, 2, 3));
}

TEST_F(TaskGraphTest, BarrierWaitsForEverything) {
  Program program;
  program.submit(0, 0, 100).submit(0, 100, 200).taskwait().submit(0, 200,
                                                                  300);
  TaskGraph graph(kernels_, program);
  ASSERT_EQ(graph.size(), 4u);
  const TaskId barrier = 2;
  EXPECT_TRUE(graph.node(barrier).is_barrier);
  EXPECT_TRUE(has_edge(graph, 0, barrier));
  EXPECT_TRUE(has_edge(graph, 1, barrier));
  EXPECT_TRUE(has_edge(graph, barrier, 3));
  EXPECT_EQ(graph.node(3).predecessor_count, 1u);
}

TEST_F(TaskGraphTest, ConsecutiveBarriersChain) {
  Program program;
  program.submit(0, 0, 100).taskwait().taskwait();
  TaskGraph graph(kernels_, program);
  EXPECT_TRUE(has_edge(graph, 1, 2));
}

TEST_F(TaskGraphTest, CrossBarrierDataDepsFlowThroughBarrier) {
  Program program;
  program.submit(0, 0, 100);  // writes B
  program.taskwait();
  program.submit(1, 0, 100);  // reads B: only the barrier edge is needed
  TaskGraph graph(kernels_, program);
  EXPECT_FALSE(has_edge(graph, 0, 2));
  EXPECT_TRUE(has_edge(graph, 1, 2));
  EXPECT_EQ(graph.node(2).predecessor_count, 1u);
}

TEST_F(TaskGraphTest, StreamStylePipelineHasPerChunkChains) {
  // Two kernels chunked over disjoint ranges: chunk i of the consumer
  // depends only on chunk i of the producer (inter-kernel parallelism).
  Program program;
  program.submit_chunked(0, 0, 400, 4);
  program.submit_chunked(1, 0, 400, 4);
  TaskGraph graph(kernels_, program);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(has_edge(graph, i, 4 + i));
    for (int j = 0; j < 4; ++j) {
      if (j != i) {
        EXPECT_FALSE(has_edge(graph, i, 4 + j));
      }
    }
  }
}

TEST_F(TaskGraphTest, PinnedDevicePropagates) {
  Program program;
  program.submit(0, 0, 100, hw::DeviceId{1});
  TaskGraph graph(kernels_, program);
  EXPECT_EQ(graph.node(0).pinned_device, hw::DeviceId{1});
}

TEST_F(TaskGraphTest, UnknownKernelRejected) {
  Program program;
  program.submit(99, 0, 100);
  EXPECT_THROW(TaskGraph(kernels_, program), InvalidArgument);
}

TEST_F(TaskGraphTest, CheckAcyclicPasses) {
  Program program;
  program.submit(0, 0, 100).submit(1, 0, 100).taskwait().submit(2, 0, 50);
  TaskGraph graph(kernels_, program);
  EXPECT_NO_THROW(graph.check_acyclic());
}

// The executor readies tasks by walking each node's successor list in
// order, so these pin that order, not just the edge set: one edge per
// (predecessor, successor) pair, lists ascending in submission order.

TEST_F(TaskGraphTest, ReaderOfTwoSpansOfOneWriterGetsOneEdge) {
  Program program;
  program.submit(0, 0, 100);   // t0 writes B[0,100)
  program.submit(0, 40, 60);   // t1 rewrites the middle: t0 keeps two spans
  program.submit(1, 0, 100);   // t2 reads t0, t1, t0
  TaskGraph graph(kernels_, program);
  EXPECT_EQ(successor_list(graph, 0), (std::vector<TaskId>{1, 2}));
  EXPECT_EQ(successor_list(graph, 1), (std::vector<TaskId>{2}));
  EXPECT_EQ(graph.node(2).predecessor_count, 2u);
  EXPECT_EQ(graph.edge_count(), 3u);
}

TEST_F(TaskGraphTest, RawWawWarOnOnePredecessorCollapse) {
  Program program;
  program.submit(2, 0, 100);  // t0: inout B
  program.submit(2, 0, 100);  // t1: RAW, WAW and WAR on t0
  TaskGraph graph(kernels_, program);
  EXPECT_EQ(successor_list(graph, 0), (std::vector<TaskId>{1}));
  EXPECT_EQ(graph.node(1).predecessor_count, 1u);
  EXPECT_EQ(graph.edge_count(), 1u);
}

TEST_F(TaskGraphTest, SuccessorListsStrictlyAscend) {
  Program program;
  program.submit_chunked(0, 0, 400, 4);   // t0-3 write B
  program.submit(2, 0, 400);              // t4 inout B over all of them
  program.submit_chunked(1, 0, 400, 4);   // t5-8 read B, write C
  program.host_op({{testing::item_region(kC, 0, 400),
                    mem::AccessMode::kReadWrite}});  // t9
  program.submit_chunked(2, 0, 400, 8);   // t10-17 WAR on t5-8, WAW on t4
  program.submit_chunked(1, 50, 350, 3);  // t18-20 read B, rewrite C
  program.taskwait();                     // t21
  program.submit_chunked(2, 0, 400, 2);   // t22-23
  program.submit_chunked(1, 0, 400, 5);   // t24-28
  TaskGraph graph(kernels_, program);

  std::vector<std::size_t> incoming(graph.size(), 0);
  std::size_t edges = 0;
  for (const TaskNode& node : graph.nodes()) {
    const auto succ = graph.successors(node.id);
    for (std::size_t k = 0; k < succ.size(); ++k) {
      EXPECT_GT(succ[k], node.id);
      if (k > 0) {
        EXPECT_LT(succ[k - 1], succ[k]);
      }
      ++incoming[succ[k]];
    }
    edges += succ.size();
  }
  for (const TaskNode& node : graph.nodes())
    EXPECT_EQ(incoming[node.id], node.predecessor_count) << node.id;
  EXPECT_EQ(edges, graph.edge_count());
  // t10 rewrites B[0,50): WAW on t4, WAR on the t5 reader of B[0,100).
  EXPECT_EQ(graph.successors(4).front(), 5u);
  EXPECT_TRUE(has_edge(graph, 4, 10));
  EXPECT_TRUE(has_edge(graph, 5, 10));
  EXPECT_TRUE(has_edge(graph, 5, 11));
}

TEST_F(TaskGraphTest, PartialOverwriteKeepsReaderRemainder) {
  Program program;
  program.submit(1, 0, 100);  // t0 reads B[0,100)
  program.submit(0, 40, 60);  // t1 writes the middle: WAR, t0 keeps 2 pieces
  program.submit(0, 0, 10);   // t2 hits the left remainder
  program.submit(0, 90, 100); // t3 hits the right remainder
  program.submit(0, 40, 60);  // t4: WAW on t1 only, t0's middle is gone
  program.submit(0, 20, 30);  // t5 hits what is left of the left piece
  TaskGraph graph(kernels_, program);
  EXPECT_EQ(successor_list(graph, 0), (std::vector<TaskId>{1, 2, 3, 5}));
  EXPECT_EQ(successor_list(graph, 1), (std::vector<TaskId>{4}));
  EXPECT_EQ(graph.node(4).predecessor_count, 1u);
  EXPECT_EQ(graph.edge_count(), 5u);
}

TEST_F(TaskGraphTest, TaskwaitAfterThreeBuffersLeavesNoCrossingDataEdge) {
  std::vector<KernelDef> kernels = kernels_;
  kernels.push_back(make_inplace_kernel("rescale", kA));  // kernel 3
  Program program;
  program.submit(3, 0, 100);  // t0 inout A
  program.submit(0, 0, 100);  // t1 A -> B
  program.submit(1, 0, 100);  // t2 B -> C
  program.taskwait();         // t3
  program.submit(3, 0, 100);  // t4: would be WAR on t1, WAW on t0
  program.submit(0, 0, 100);  // t5: would be WAW on t1, WAR on t2
  program.submit(1, 0, 100);  // t6: would be WAW on t2
  program.taskwait();         // t7
  program.submit(1, 0, 100);  // t8: B's writer t5 is behind t7
  TaskGraph graph(kernels, program);

  for (const TaskNode& node : graph.nodes())
    for (TaskId succ : graph.successors(node.id)) {
      EXPECT_FALSE(node.id < 3 && succ > 3) << node.id << " -> " << succ;
      EXPECT_FALSE(node.id < 7 && succ > 7) << node.id << " -> " << succ;
    }
  EXPECT_EQ(successor_list(graph, 3), (std::vector<TaskId>{4, 5, 6, 7}));
  EXPECT_EQ(graph.node(4).predecessor_count, 1u);
  EXPECT_EQ(graph.node(5).predecessor_count, 2u);  // barrier + t4
  EXPECT_EQ(graph.node(6).predecessor_count, 2u);  // barrier + t5
  EXPECT_EQ(graph.node(7).predecessor_count, 4u);  // t3 + t4..t6
  EXPECT_EQ(graph.node(8).predecessor_count, 1u);
}

TEST(ProgramBuilder, SubmitChunkedCoversRangeExactly) {
  Program program;
  program.submit_chunked(0, 0, 10, 3);
  ASSERT_EQ(program.task_count(), 3u);
  std::int64_t covered = 0;
  std::int64_t expected_begin = 0;
  for (const auto& op : program.ops()) {
    EXPECT_EQ(op.submit.begin, expected_begin);
    expected_begin = op.submit.end;
    covered += op.submit.items();
  }
  EXPECT_EQ(covered, 10);
}

TEST(ProgramBuilder, EmptySubmitIsDropped) {
  Program program;
  program.submit(0, 5, 5);
  EXPECT_EQ(program.task_count(), 0u);
}

TEST(ProgramBuilder, InvertedRangeRejected) {
  Program program;
  EXPECT_THROW(program.submit(0, 10, 5), InvalidArgument);
}

TEST(ProgramBuilder, TaskwaitCounted) {
  Program program;
  program.submit(0, 0, 1).taskwait().taskwait();
  EXPECT_EQ(program.taskwait_count(), 2u);
}

}  // namespace
}  // namespace hetsched::rt
