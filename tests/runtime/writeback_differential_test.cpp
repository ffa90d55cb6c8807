// Differential tests: the on-demand TaskGraph::writeback_eligible query
// against the eager analysis it replaced
// (tests/runtime/reference_writeback.hpp), on every access of every node.
// The executor writes an accelerator's output home at completion exactly
// when the query says so, so a changed answer would move simulated
// transfers and makespans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "common/rng.hpp"
#include "hw/platform.hpp"
#include "runtime/task_graph.hpp"
#include "tests/runtime/reference_writeback.hpp"
#include "tests/runtime/test_kernels.hpp"

namespace hetsched::rt {
namespace {

using testing::item_region;
using testing::make_inplace_kernel;
using testing::make_map_kernel;

constexpr std::int64_t kItems = 64;

/// Counts of compared accesses by answer, so a generator that stops
/// producing one side shows up as a failure rather than a vacuous pass.
struct Tally {
  std::size_t eligible = 0;
  std::size_t resident = 0;
};

void expect_matches_reference(const TaskGraph& graph, Tally& tally) {
  const std::vector<std::vector<bool>> expected =
      reference::writeback_eligible(graph.nodes());
  for (const TaskNode& node : graph.nodes()) {
    ASSERT_EQ(expected[node.id].size(),
              node.is_barrier ? 0 : node.accesses.size());
    for (std::size_t a = 0; a < expected[node.id].size(); ++a) {
      const bool eligible = graph.writeback_eligible(node.id, a);
      EXPECT_EQ(eligible, expected[node.id][a])
          << "task " << node.id << " access " << a;
      ++(eligible ? tally.eligible : tally.resident);
    }
  }
}

/// out[i] = f(x[i], y[i]): two reads and one write, item-aligned.
KernelDef make_two_input_kernel(mem::BufferId x, mem::BufferId y,
                                mem::BufferId out) {
  KernelDef def = make_map_kernel("combine", x, out);
  def.accesses = [x, y, out](std::int64_t begin, std::int64_t end,
                             std::vector<mem::RegionAccess>& accesses) {
    accesses.insert(accesses.end(), {
        {item_region(x, begin, end), mem::AccessMode::kRead},
        {item_region(y, begin, end), mem::AccessMode::kRead},
        {item_region(out, begin, end), mem::AccessMode::kWrite},
    });
  };
  return def;
}

/// A random item range in [0, kItems]; sometimes empty.
std::pair<std::int64_t, std::int64_t> draw_range(Rng& rng) {
  const std::int64_t a = rng.uniform_int(0, kItems);
  const std::int64_t b = rng.uniform_int(0, kItems);
  return {std::min(a, b), std::max(a, b)};
}

/// 3-4 buffers; map, in-place and two-input kernels over them; submits of
/// arbitrary (so often partially overlapping) ranges, pinned or not; host
/// ops with read, write and empty accesses; single and consecutive
/// taskwaits.
TaskGraph random_graph(std::uint64_t seed) {
  Rng rng(seed);
  const auto buffers = static_cast<mem::BufferId>(rng.uniform_int(3, 4));
  const auto buffer = [&] {
    return static_cast<mem::BufferId>(
        rng.uniform_int(0, static_cast<std::int64_t>(buffers) - 1));
  };
  const auto other_than = [&](mem::BufferId taken) {
    mem::BufferId b = buffer();
    while (b == taken) b = buffer();
    return b;
  };

  std::vector<KernelDef> kernels;
  const int kernel_count = static_cast<int>(rng.uniform_int(2, 5));
  for (int k = 0; k < kernel_count; ++k) {
    const mem::BufferId in = buffer();
    switch (rng.uniform_int(0, 2)) {
      case 0:
        kernels.push_back(make_map_kernel("map", in, other_than(in)));
        break;
      case 1:
        kernels.push_back(make_inplace_kernel("inplace", in));
        break;
      default:
        kernels.push_back(
            make_two_input_kernel(in, buffer(), other_than(in)));
        break;
    }
  }

  Program program;
  const int ops = static_cast<int>(rng.uniform_int(1, 40));
  for (int i = 0; i < ops; ++i) {
    const std::int64_t kind = rng.uniform_int(0, 9);
    if (kind <= 5) {
      const auto [begin, end] = draw_range(rng);
      const auto kernel = static_cast<KernelId>(
          rng.uniform_int(0, kernel_count - 1));
      if (rng.uniform() < 0.5) {
        program.submit(kernel, begin, end);
      } else {
        program.submit(kernel, begin, end,
                       static_cast<hw::DeviceId>(rng.uniform_int(0, 1)));
      }
    } else if (kind <= 7) {
      std::vector<mem::RegionAccess> accesses;
      const int count = static_cast<int>(rng.uniform_int(1, 3));
      for (int a = 0; a < count; ++a) {
        const auto [begin, end] = draw_range(rng);
        const auto mode = static_cast<mem::AccessMode>(rng.uniform_int(0, 2));
        accesses.push_back({item_region(buffer(), begin, end), mode});
      }
      program.host_op(std::move(accesses));
    } else {
      program.taskwait();
      if (kind == 9) program.taskwait();
    }
  }
  return TaskGraph(kernels, program);
}

TEST(WritebackDifferential, SeededRandomProgramsMatchReference) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    SCOPED_TRACE(seed);
    expect_matches_reference(random_graph(seed), tally);
  }
  EXPECT_GT(tally.eligible, 0u);
  EXPECT_GT(tally.resident, 0u);
}

TEST(WritebackDifferential, PaperAppChunkedProgramsMatchReference) {
  Tally tally;
  for (apps::PaperApp which : apps::all_paper_apps()) {
    const auto app = apps::make_paper_app(
        which, hw::make_reference_platform(), apps::test_config(which));
    for (bool sync : {false, true}) {
      for (int m : {1, 12, 96}) {
        SCOPED_TRACE(::testing::Message()
                     << app->name() << " sync=" << sync << " m=" << m);
        const Program program = app->build_program(
            [&](Program& p, std::size_t index, KernelId kernel) {
              p.submit_chunked(kernel, 0, app->items_of(index), m);
            },
            sync);
        expect_matches_reference(
            TaskGraph(app->executor().kernels(), program), tally);
      }
    }
  }
  EXPECT_GT(tally.eligible, 0u);
  EXPECT_GT(tally.resident, 0u);
}

}  // namespace
}  // namespace hetsched::rt
