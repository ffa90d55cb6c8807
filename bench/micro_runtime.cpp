/// Micro-benchmarks (google-benchmark) for the runtime primitives: how fast
/// the simulator itself is. These are the only wall-clock measurements in
/// bench/ — everything else reports virtual time.
#include <benchmark/benchmark.h>

#include "common/interval_set.hpp"
#include "common/range_map.hpp"
#include "common/rng.hpp"
#include "hw/platform.hpp"
#include "mem/coherence.hpp"
#include "runtime/executor.hpp"
#include "runtime/schedulers/breadth_first.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "tests/runtime/test_kernels.hpp"

namespace hetsched {
namespace {

void BM_EngineScheduleAndRun(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < events; ++i) {
      engine.schedule_at(static_cast<SimTime>(i % 97), [&sum, i] {
        sum += i;
      });
    }
    engine.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EngineScheduleAndRun)->Arg(1000)->Arg(100000);

void BM_ResourceReserve(benchmark::State& state) {
  sim::Resource resource("lane");
  SimTime now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(resource.reserve(now, 10));
    now += 5;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ResourceReserve);

void BM_IntervalSetInsertErase(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    IntervalSet set;
    for (int i = 0; i < 200; ++i) {
      const std::int64_t a = rng.uniform_int(0, 1 << 20);
      const std::int64_t b = a + rng.uniform_int(1, 4096);
      if (i % 3 == 2) {
        set.erase({a, b});
      } else {
        set.insert({a, b});
      }
    }
    benchmark::DoNotOptimize(set.measure());
  }
}
BENCHMARK(BM_IntervalSetInsertErase);

void BM_RangeMapAssignQuery(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    RangeMap<int> map;
    std::int64_t checksum = 0;
    for (int i = 0; i < 200; ++i) {
      const std::int64_t a = rng.uniform_int(0, 1 << 20);
      const std::int64_t b = a + rng.uniform_int(1, 4096);
      map.assign({a, b}, i);
      checksum += static_cast<std::int64_t>(map.query({a, b}).size());
    }
    benchmark::DoNotOptimize(checksum);
  }
}
BENCHMARK(BM_RangeMapAssignQuery);

void BM_CoherenceAcquireWriteFlush(benchmark::State& state) {
  for (auto _ : state) {
    mem::CoherenceDirectory directory(2);
    const mem::BufferId buf = directory.register_buffer("b", 1 << 24);
    for (std::int64_t chunk = 0; chunk < 64; ++chunk) {
      const Interval range{chunk << 18, (chunk + 1) << 18};
      for (const auto& op : directory.plan_acquire({buf, range}, 1))
        directory.apply(op);
      directory.note_write({buf, range}, 1);
    }
    const auto flush = directory.plan_flush_to_host();
    benchmark::DoNotOptimize(flush.size());
  }
}
BENCHMARK(BM_CoherenceAcquireWriteFlush);

void BM_TaskGraphBuild(benchmark::State& state) {
  const auto chunks = static_cast<int>(state.range(0));
  std::vector<rt::KernelDef> kernels;
  kernels.push_back(rt::testing::make_map_kernel("k0", 0, 1));
  kernels.push_back(rt::testing::make_map_kernel("k1", 1, 2));
  rt::Program program;
  program.submit_chunked(0, 0, 4096L * chunks, chunks);
  program.submit_chunked(1, 0, 4096L * chunks, chunks);
  program.taskwait();
  for (auto _ : state) {
    rt::TaskGraph graph(kernels, program);
    benchmark::DoNotOptimize(graph.edge_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (2 * chunks + 1));
}
BENCHMARK(BM_TaskGraphBuild)->Arg(12)->Arg(96)->Arg(768);

void BM_ExecutorFullRun(benchmark::State& state) {
  const auto chunks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    rt::Executor exec(hw::make_reference_platform());
    const auto in = exec.register_buffer("in", 4096L * chunks * 4);
    const auto out = exec.register_buffer("out", 4096L * chunks * 4);
    exec.register_kernel(rt::testing::make_map_kernel("map", in, out));
    rt::Program program;
    program.submit_chunked(0, 0, 4096L * chunks, chunks);
    program.taskwait();
    rt::BreadthFirstScheduler scheduler;
    const rt::ExecutionReport report = exec.execute(program, scheduler);
    benchmark::DoNotOptimize(report.makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          chunks);
}
BENCHMARK(BM_ExecutorFullRun)->Arg(12)->Arg(96);

void BM_ThreadPoolDispatch(benchmark::State& state) {
  rt::ThreadPool pool;
  for (auto _ : state) {
    std::atomic<int> counter{0};
    for (int i = 0; i < 256; ++i) {
      pool.enqueue([&counter] {
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
    pool.wait_idle();
    benchmark::DoNotOptimize(counter.load());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          256);
}
BENCHMARK(BM_ThreadPoolDispatch);

}  // namespace
}  // namespace hetsched

BENCHMARK_MAIN();
