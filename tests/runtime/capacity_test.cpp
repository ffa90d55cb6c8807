#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "hw/platform.hpp"
#include "runtime/executor.hpp"
#include "runtime/report.hpp"
#include "tests/runtime/test_kernels.hpp"

/// Device memory capacity enforcement: LRU eviction with write-back of
/// dirty ranges, functional correctness under memory pressure, and the
/// working-set-too-large error.
namespace hetsched::rt {
namespace {

using testing::kItemBytes;
using testing::make_map_kernel;

constexpr hw::DeviceId kGpu = 1;
constexpr std::int64_t kItems = 1000;  // 4 KB per buffer

/// Reference platform with the GPU memory clamped to `bytes`.
hw::PlatformSpec tiny_gpu_platform(double bytes) {
  hw::PlatformSpec platform = hw::make_reference_platform();
  platform.accelerators[0].mem_capacity_gb = bytes / 1e9;
  return platform;
}

RuntimeOptions capacity_options() {
  RuntimeOptions options;
  options.enforce_memory_capacity = true;
  return options;
}

/// Two independent in/out pairs; each task touches 8 KB.
struct Fixture {
  explicit Fixture(double capacity_bytes)
      : exec(tiny_gpu_platform(capacity_bytes), RuntimeCosts{},
             capacity_options()) {
    a_in = exec.register_buffer("a_in", kItems * kItemBytes);
    a_out = exec.register_buffer("a_out", kItems * kItemBytes);
    b_in = exec.register_buffer("b_in", kItems * kItemBytes);
    b_out = exec.register_buffer("b_out", kItems * kItemBytes);
    ka = exec.register_kernel(make_map_kernel("ka", a_in, a_out));
    kb = exec.register_kernel(make_map_kernel("kb", b_in, b_out));
  }

  Executor exec;
  mem::BufferId a_in = 0, a_out = 0, b_in = 0, b_out = 0;
  KernelId ka = 0, kb = 0;
};

TEST(Capacity, NoEvictionWhenEverythingFits) {
  Fixture fix(1e6);  // 1 MB: plenty
  Program program;
  program.submit(fix.ka, 0, kItems, kGpu);
  program.submit(fix.kb, 0, kItems, kGpu);
  program.taskwait();
  const ExecutionReport report = fix.exec.execute_pinned(program);
  // Inputs in once each; no re-uploads.
  EXPECT_EQ(report.transfers.h2d_count, 2u);
  EXPECT_LE(report.peak_resident_bytes[kGpu], 1'000'000);
}

/// Three rounds of ka then kb: with 10 KB of device memory one task's pair
/// (8 KB) fits and two pairs do not.
Program alternating_rounds(const Fixture& fix) {
  Program program;
  for (int round = 0; round < 3; ++round) {
    program.submit(fix.ka, 0, kItems, kGpu);
    program.submit(fix.kb, 0, kItems, kGpu);
  }
  program.taskwait();
  return program;
}

/// ka leaves a_out dirty on the GPU; kb must evict a's pair to fit.
Program dirty_then_other(const Fixture& fix) {
  Program program;
  program.submit(fix.ka, 0, kItems, kGpu);
  program.submit(fix.kb, 0, kItems, kGpu);
  program.taskwait();
  return program;
}

TEST(Capacity, AlternatingWorkingSetsEvictAndReload) {
  Fixture fix(10'000);
  const ExecutionReport report =
      fix.exec.execute_pinned(alternating_rounds(fix));
  // Every round must re-upload the evicted input: 6 H2D instead of 2.
  EXPECT_EQ(report.transfers.h2d_count, 6u);
  EXPECT_LE(report.peak_resident_bytes[kGpu], 10'000);
}

TEST(Capacity, DirtyEvictionWritesBack) {
  Fixture fix(10'000);
  const ExecutionReport report =
      fix.exec.execute_pinned(dirty_then_other(fix));
  // a_out comes home through the eviction (before the final flush would
  // have); total D2H volume is both outputs exactly once.
  EXPECT_EQ(report.transfers.d2h_bytes, 2 * kItems * kItemBytes);
}

TEST(Capacity, FunctionalResultsSurviveMemoryPressure) {
  std::vector<float> data(kItems, 1.0f);
  Executor exec(tiny_gpu_platform(10'000), RuntimeCosts{},
                capacity_options());
  const auto x = exec.register_buffer("x", kItems * kItemBytes);
  const auto y = exec.register_buffer("y", kItems * kItemBytes);
  const auto z = exec.register_buffer("z", kItems * kItemBytes);
  exec.register_kernel(rt::testing::make_inplace_kernel(
      "incx", x, [&data](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) data[i] += 1.0f;
      }));
  KernelDef ky = make_map_kernel("copy_y", x, y);
  KernelDef kz = make_map_kernel("copy_z", x, z);
  exec.register_kernel(std::move(ky));
  exec.register_kernel(std::move(kz));
  Program program;
  program.submit(0, 0, kItems, kGpu);
  program.submit(1, 0, kItems, kGpu);
  program.submit(2, 0, kItems, kGpu);
  program.submit(0, 0, kItems, kGpu);
  program.taskwait();
  exec.execute_pinned(program);
  for (float v : data) EXPECT_FLOAT_EQ(v, 3.0f);
}

TEST(Capacity, OversizedWorkingSetRejected) {
  Fixture fix(5'000);  // less than one task's 8 KB pair
  Program program;
  program.submit(fix.ka, 0, kItems, kGpu);
  EXPECT_THROW(fix.exec.execute_pinned(program), InvalidArgument);
}

TEST(Capacity, DisabledByDefaultJustRecordsPeak) {
  Executor exec(tiny_gpu_platform(10'000));  // enforcement off
  const auto in = exec.register_buffer("in", kItems * kItemBytes);
  const auto out = exec.register_buffer("out", kItems * kItemBytes);
  const auto in2 = exec.register_buffer("in2", kItems * kItemBytes);
  const auto out2 = exec.register_buffer("out2", kItems * kItemBytes);
  exec.register_kernel(make_map_kernel("k1", in, out));
  exec.register_kernel(make_map_kernel("k2", in2, out2));
  Program program;
  program.submit(0, 0, kItems, kGpu);
  program.submit(1, 0, kItems, kGpu);
  program.taskwait();
  const ExecutionReport report = exec.execute_pinned(program);
  // Peak exceeds the (unenforced) capacity and is faithfully reported.
  EXPECT_GT(report.peak_resident_bytes[kGpu], 10'000);
}

/// Read-only kernel over one buffer: no writes, so tasks stay independent
/// (FIFO execution order) and evictions are clean drops.
KernelDef make_reader(std::string name, mem::BufferId buffer) {
  KernelDef def;
  def.name = std::move(name);
  def.traits.name = def.name;
  def.traits.flops_per_item = 10.0;
  def.traits.device_bytes_per_item = 4.0;
  def.accesses = [buffer](std::int64_t begin, std::int64_t end,
                          std::vector<mem::RegionAccess>& out) {
    out.push_back({{buffer, {begin * kItemBytes, end * kItemBytes}},
                   mem::AccessMode::kRead});
  };
  return def;
}

/// Three 4 KB inputs A, B, C, each with its own reader, and room for two.
struct ReaderFixture {
  ReaderFixture()
      : exec(tiny_gpu_platform(10'000), RuntimeCosts{}, capacity_options()) {
    for (int i = 0; i < 3; ++i) {
      const mem::BufferId buffer = exec.register_buffer(
          std::string(1, char('A' + i)), kItems * kItemBytes);
      readers.push_back(exec.register_kernel(
          make_reader("read" + std::to_string(i), buffer)));
    }
  }

  Executor exec;
  std::vector<KernelId> readers;
};

/// Access order A, B, A, C, A: at C's arrival, B is the least recently used
/// buffer.
Program a_b_a_c_a(const ReaderFixture& fix) {
  Program program;
  program.submit(fix.readers[0], 0, kItems, kGpu);  // A
  program.submit(fix.readers[1], 0, kItems, kGpu);  // B
  program.submit(fix.readers[0], 0, kItems, kGpu);  // A again (warms A)
  program.submit(fix.readers[2], 0, kItems, kGpu);  // C -> evicts B
  program.submit(fix.readers[0], 0, kItems, kGpu);  // A still resident
  program.taskwait();
  return program;
}

TEST(Capacity, LruPrefersColderBuffer) {
  // B must be the victim, so the final A task needs no re-upload.
  ReaderFixture fix;
  const ExecutionReport report = fix.exec.execute_pinned(a_b_a_c_a(fix));
  // Uploads: A, B, C only — and the evictions were clean (no D2H at all).
  EXPECT_EQ(report.transfers.h2d_count, 3u);
  EXPECT_EQ(report.transfers.d2h_count, 0u);
}

/// FNV-1a digest of one pinned run's full JSON report.
std::uint64_t report_digest(Executor& exec, const Program& program) {
  return fnv1a64(report_to_json(exec.execute_pinned(program), exec.kernels()));
}

TEST(Capacity, EvictionReportsArePinned) {
  // Literal digests of the eviction set-ups above, recorded before a change
  // to the residency accounting that ensure_capacity reads: they hold the
  // victims, write-backs, stalls and peak residency to the same bytes.
  Fixture alternating(10'000);
  Fixture dirty(10'000);
  ReaderFixture lru;
  struct Pin {
    const char* label;
    std::uint64_t digest;
    std::uint64_t expected;
  };
  const Pin pins[] = {
      {"alternating working sets",
       report_digest(alternating.exec, alternating_rounds(alternating)),
       0xa96580466f518894ULL},
      {"dirty eviction", report_digest(dirty.exec, dirty_then_other(dirty)),
       0xce1c210602369060ULL},
      {"lru victim", report_digest(lru.exec, a_b_a_c_a(lru)),
       0x9450bbb5215767b8ULL},
  };
  for (const Pin& pin : pins)
    EXPECT_EQ(pin.digest, pin.expected)
        << pin.label << ": 0x" << std::hex << pin.digest << "ULL";
}

}  // namespace
}  // namespace hetsched::rt
