// Allocation budget of the task-graph build and the coherence planner.
// This translation unit replaces the global operator new/delete with
// counting versions, so every heap allocation the binary makes is counted;
// each test reads the count around the one call it budgets.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "apps/registry.hpp"
#include "hw/platform.hpp"
#include "mem/coherence.hpp"
#include "runtime/program.hpp"
#include "runtime/task_graph.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_allocation(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_allocation(size); }
void* operator new[](std::size_t size) { return counted_allocation(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_allocation(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept {
  std::free(block);
}
void operator delete(void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}
void operator delete[](void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}

namespace hetsched {
namespace {

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(AllocationBudget, TaskGraphBuildAllocatesUnderOncePerEightTasks) {
  // STREAM-Loop's chunked program at the paper size: 10 iterations of 4
  // kernels in m = 96 chunks each. Node and access creation append into
  // arrays that grow geometrically, so the build's allocations grow with
  // the logarithm of the task count.
  const auto app = apps::make_paper_app(apps::PaperApp::kStreamLoop,
                                        hw::make_reference_platform());
  const rt::Program program = app->build_program(
      [&](rt::Program& p, std::size_t index, rt::KernelId kernel) {
        p.submit_chunked(kernel, 0, app->items_of(index), 96);
      },
      /*sync_between_kernels=*/false);
  const std::size_t tasks = program.task_count();
  ASSERT_EQ(tasks, 3840u);

  const std::size_t before = allocations();
  const rt::TaskGraph graph(app->executor().kernels(), program);
  const std::size_t made = allocations() - before;

  EXPECT_EQ(graph.size(), program.ops().size());
  EXPECT_LT(made * 8, tasks) << made << " allocations for " << tasks
                             << " tasks";
}

TEST(AllocationBudget, PlanAcquireIntoReusedVectorAllocatesNothing) {
  // Fragmented validity over the host and two devices: each device holds
  // every fourth 64-byte stripe, and the host holds the rest.
  mem::CoherenceDirectory directory(3);
  const mem::BufferId buffer = directory.register_buffer("x", 4096);
  for (std::int64_t at = 0; at < 4096; at += 256) {
    directory.note_write({buffer, {at, at + 64}}, 1);
    directory.note_write({buffer, {at + 128, at + 192}}, 2);
  }
  const mem::Region region{buffer, {32, 4000}};

  std::vector<mem::TransferOp> plan;
  for (mem::SpaceId space = 0; space < 3; ++space) {
    SCOPED_TRACE(space);
    // The warm-up grows `plan` and the directory's scratch set.
    directory.plan_acquire(region, space, plan);
    const std::size_t warm_ops = plan.size();
    std::size_t device_sourced = 0;
    for (const mem::TransferOp& op : plan)
      if (op.src != mem::kHostSpace) ++device_sourced;
    ASSERT_GT(warm_ops, 16u);
    ASSERT_GT(device_sourced, 0u);

    const std::size_t before = allocations();
    directory.plan_acquire(region, space, plan);
    const std::size_t made = allocations() - before;

    EXPECT_EQ(plan.size(), warm_ops);
    EXPECT_EQ(made, 0u);
  }
}

}  // namespace
}  // namespace hetsched
