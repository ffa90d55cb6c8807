#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "hw/platform.hpp"
#include "runtime/executor.hpp"
#include "runtime/schedulers/breadth_first.hpp"
#include "runtime/schedulers/perf_aware.hpp"

/// Randomized end-to-end property suite for the executor.
///
/// Generator: random programs over a handful of float buffers — map
/// kernels (out[i] = a*in[i] + b), in-place kernels, host ops, taskwaits,
/// random chunkings and random pinnings — executed under every scheduler.
///
/// Oracle: a sequential interpreter of the same program (kernels applied
/// in submission order). Because the dependency analyzer must serialize
/// every conflicting pair, ANY dependency-respecting execution order has to
/// produce exactly the oracle's numbers. This catches races in dependency
/// analysis, coherence bugs, premature host-op execution, and lost/dup
/// writes across the whole placement space.
namespace hetsched::rt {
namespace {

constexpr std::int64_t kItems = 512;
constexpr int kBuffers = 3;

struct GeneratedKernel {
  int src;       // buffer index read
  int dst;       // buffer index written (may equal src: in-place)
  float scale;
  float offset;
};

struct GeneratedProgram {
  std::vector<GeneratedKernel> kernels;
  struct Op {
    enum class Kind { kSubmit, kTaskwait, kHostScale } kind;
    int kernel = 0;               // kSubmit
    std::int64_t begin = 0, end = 0;
    std::optional<hw::DeviceId> pin;
    int host_buffer = 0;          // kHostScale
    float host_factor = 1.0f;
  };
  std::vector<Op> ops;
};

GeneratedProgram generate(Rng& rng, bool allow_pins) {
  GeneratedProgram gen;
  const int kernel_count = static_cast<int>(rng.uniform_int(2, 5));
  for (int k = 0; k < kernel_count; ++k) {
    GeneratedKernel kernel;
    kernel.src = static_cast<int>(rng.uniform_int(0, kBuffers - 1));
    kernel.dst = static_cast<int>(rng.uniform_int(0, kBuffers - 1));
    kernel.scale = static_cast<float>(rng.uniform(0.5, 1.5));
    kernel.offset = static_cast<float>(rng.uniform(-1.0, 1.0));
    gen.kernels.push_back(kernel);
  }
  const int op_count = static_cast<int>(rng.uniform_int(5, 25));
  for (int i = 0; i < op_count; ++i) {
    const double dice = rng.uniform();
    GeneratedProgram::Op op;
    if (dice < 0.70) {
      op.kind = GeneratedProgram::Op::Kind::kSubmit;
      op.kernel = static_cast<int>(
          rng.uniform_int(0, static_cast<int>(gen.kernels.size()) - 1));
      const std::int64_t a = rng.uniform_int(0, kItems);
      const std::int64_t b = rng.uniform_int(0, kItems);
      op.begin = std::min(a, b);
      op.end = std::max(a, b);
      if (allow_pins && rng.uniform() < 0.5) {
        op.pin = static_cast<hw::DeviceId>(rng.uniform_int(0, 1));
      }
    } else if (dice < 0.85) {
      op.kind = GeneratedProgram::Op::Kind::kTaskwait;
    } else {
      op.kind = GeneratedProgram::Op::Kind::kHostScale;
      op.host_buffer = static_cast<int>(rng.uniform_int(0, kBuffers - 1));
      op.host_factor = static_cast<float>(rng.uniform(0.9, 1.1));
    }
    gen.ops.push_back(op);
  }
  gen.ops.push_back({GeneratedProgram::Op::Kind::kTaskwait, 0, 0, 0,
                     std::nullopt, 0, 1.0f});
  return gen;
}

/// Sequential oracle: applies the ops in submission order.
std::vector<std::vector<float>> oracle(const GeneratedProgram& gen,
                                       std::vector<std::vector<float>> data) {
  for (const auto& op : gen.ops) {
    switch (op.kind) {
      case GeneratedProgram::Op::Kind::kSubmit: {
        const GeneratedKernel& k = gen.kernels[op.kernel];
        for (std::int64_t i = op.begin; i < op.end; ++i)
          data[k.dst][i] = k.scale * data[k.src][i] + k.offset;
        break;
      }
      case GeneratedProgram::Op::Kind::kHostScale: {
        for (auto& x : data[op.host_buffer]) x *= op.host_factor;
        break;
      }
      case GeneratedProgram::Op::Kind::kTaskwait:
        break;
    }
  }
  return data;
}

std::vector<std::vector<float>> initial_data(Rng& rng) {
  std::vector<std::vector<float>> data(kBuffers,
                                       std::vector<float>(kItems));
  for (auto& buffer : data)
    for (auto& x : buffer) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  return data;
}

/// Runs the generated program through the executor with live data.
struct RunResult {
  std::vector<std::vector<float>> data;
  ExecutionReport report;
};

RunResult run_generated(const GeneratedProgram& gen,
                        std::vector<std::vector<float>> data,
                        Scheduler& scheduler) {
  Executor exec(hw::make_reference_platform());
  auto live = std::make_shared<std::vector<std::vector<float>>>(
      std::move(data));

  std::vector<mem::BufferId> buffers;
  for (int b = 0; b < kBuffers; ++b)
    buffers.push_back(exec.register_buffer("b" + std::to_string(b),
                                           kItems * 4));

  std::vector<KernelId> kernel_ids;
  for (std::size_t k = 0; k < gen.kernels.size(); ++k) {
    const GeneratedKernel& g = gen.kernels[k];
    KernelDef def;
    def.name = "k" + std::to_string(k);
    def.traits.name = def.name;
    def.traits.flops_per_item = 4.0;
    def.traits.device_bytes_per_item = 8.0;
    const mem::BufferId src = buffers[g.src], dst = buffers[g.dst];
    def.accesses = [src, dst](std::int64_t begin, std::int64_t end,
                              std::vector<mem::RegionAccess>& out) {
      if (src == dst) {
        out.push_back(
            {{src, {begin * 4, end * 4}}, mem::AccessMode::kReadWrite});
      } else {
        out.push_back({{src, {begin * 4, end * 4}}, mem::AccessMode::kRead});
        out.push_back({{dst, {begin * 4, end * 4}}, mem::AccessMode::kWrite});
      }
    };
    def.body = [live, g](std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i)
        (*live)[g.dst][i] = g.scale * (*live)[g.src][i] + g.offset;
    };
    kernel_ids.push_back(exec.register_kernel(std::move(def)));
  }

  Program program;
  for (const auto& op : gen.ops) {
    switch (op.kind) {
      case GeneratedProgram::Op::Kind::kSubmit:
        program.submit(kernel_ids[op.kernel], op.begin, op.end, op.pin);
        break;
      case GeneratedProgram::Op::Kind::kTaskwait:
        program.taskwait();
        break;
      case GeneratedProgram::Op::Kind::kHostScale: {
        const mem::BufferId buffer = buffers[op.host_buffer];
        const float factor = op.host_factor;
        const int index = op.host_buffer;
        program.host_op(
            {{{buffer, {0, kItems * 4}}, mem::AccessMode::kReadWrite}},
            [live, index, factor] {
              for (auto& x : (*live)[index]) x *= factor;
            });
        break;
      }
    }
  }

  RunResult result;
  result.report = exec.execute(program, scheduler);
  result.data = *live;
  return result;
}

class ExecutorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExecutorFuzz, MatchesSequentialOracleUnderAllSchedulers) {
  Rng rng(GetParam());
  const bool allow_pins = rng.uniform() < 0.5;
  const GeneratedProgram gen = generate(rng, allow_pins);
  Rng data_rng(GetParam() ^ 0xDEADBEEF);
  const auto init = initial_data(data_rng);
  const auto expected = oracle(gen, init);

  BreadthFirstScheduler bf;
  PerfAwareScheduler perf;
  FifoScheduler fifo;
  Scheduler* schedulers[] = {&bf, &perf, &fifo};
  const char* names[] = {"breadth-first", "perf-aware", "fifo"};

  for (int s = 0; s < 3; ++s) {
    const RunResult run = run_generated(gen, init, *schedulers[s]);
    for (int b = 0; b < kBuffers; ++b) {
      for (std::int64_t i = 0; i < kItems; ++i) {
        ASSERT_FLOAT_EQ(run.data[b][i], expected[b][i])
            << "scheduler=" << names[s] << " buffer=" << b << " item=" << i;
      }
    }
    // Structural invariants.
    ASSERT_GT(run.report.makespan, 0);
    std::int64_t executed = 0, submitted = 0;
    for (const auto& device : run.report.devices)
      executed += device.total_items();
    for (const auto& op : gen.ops)
      if (op.kind == GeneratedProgram::Op::Kind::kSubmit)
        submitted += op.end - op.begin;
    ASSERT_EQ(executed, submitted) << names[s];
  }
}

TEST_P(ExecutorFuzz, DeterministicAcrossRepeats) {
  Rng rng(GetParam());
  const GeneratedProgram gen = generate(rng, true);
  Rng data_rng(GetParam() ^ 0xDEADBEEF);
  const auto init = initial_data(data_rng);

  BreadthFirstScheduler bf1, bf2;
  const RunResult a = run_generated(gen, init, bf1);
  const RunResult b = run_generated(gen, init, bf2);
  ASSERT_EQ(a.report.makespan, b.report.makespan);
  ASSERT_EQ(a.report.transfers.h2d_bytes, b.report.transfers.h2d_bytes);
  ASSERT_EQ(a.report.transfers.d2h_bytes, b.report.transfers.d2h_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorFuzz,
                         ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace hetsched::rt
