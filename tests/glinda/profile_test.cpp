#include "glinda/profile.hpp"

#include <gtest/gtest.h>

#include "hw/platform.hpp"
#include "runtime/executor.hpp"
#include "tests/runtime/test_kernels.hpp"

namespace hetsched::glinda {
namespace {

using rt::testing::kItemBytes;

constexpr hw::DeviceId kCpu = hw::kCpuDevice;
constexpr hw::DeviceId kGpu = 1;

/// Fixture: one synthetic kernel with known traits over a large item space,
/// plus a second "broadcast" kernel that reads a fixed-size side input (the
/// MatrixMul-B pattern the two-point fit must discover).
class ProfilerTest : public ::testing::Test {
 protected:
  static constexpr std::int64_t kItems = 1'000'000;

  ProfilerTest() : exec_(hw::make_reference_platform()) {
    in_ = exec_.register_buffer("in", kItems * kItemBytes);
    out_ = exec_.register_buffer("out", kItems * kItemBytes);
    side_ = exec_.register_buffer("side", 12'000'000);  // 12 MB broadcast

    rt::KernelDef map = rt::testing::make_map_kernel("map", in_, out_);
    map.traits.flops_per_item = 200.0;
    map.traits.device_bytes_per_item = 8.0;
    map.traits.cpu_compute_efficiency = 0.5;
    map.traits.gpu_compute_efficiency = 0.5;
    map_kernel_ = exec_.register_kernel(std::move(map));

    rt::KernelDef bcast = rt::testing::make_map_kernel("bcast", in_, out_);
    const mem::BufferId in = in_, out = out_, side = side_;
    bcast.accesses = [in, out, side](std::int64_t begin, std::int64_t end,
                                     std::vector<mem::RegionAccess>& list) {
      list.insert(list.end(), {
          {{in, {begin * kItemBytes, end * kItemBytes}},
           mem::AccessMode::kRead},
          {{side, {0, 12'000'000}}, mem::AccessMode::kRead},
          {{out, {begin * kItemBytes, end * kItemBytes}},
           mem::AccessMode::kWrite},
      });
    };
    bcast_kernel_ = exec_.register_kernel(std::move(bcast));
  }

  SampleProgramFactory factory(rt::KernelId kernel) const {
    const int lanes = exec_.platform().cpu.lanes;
    return [kernel, lanes](hw::DeviceId device, std::int64_t begin,
                           std::int64_t end) {
      rt::Program program;
      if (device == kCpu) {
        const std::int64_t n = end - begin;
        for (int lane = 0; lane < lanes; ++lane)
          program.submit(kernel, begin + n * lane / lanes,
                         begin + n * (lane + 1) / lanes, kCpu);
      } else {
        program.submit(kernel, begin, end, device);
      }
      program.taskwait();
      return program;
    };
  }

  rt::Executor exec_;
  mem::BufferId in_ = 0, out_ = 0, side_ = 0;
  rt::KernelId map_kernel_ = 0, bcast_kernel_ = 0;
};

TEST_F(ProfilerTest, SampleSizesAreTwoDistinctFractions) {
  Profiler profiler;
  const auto [small, large] = profiler.sample_sizes(kItems);
  EXPECT_GT(small, 0);
  EXPECT_GT(large, small);
  EXPECT_LE(large, kItems);
  EXPECT_NEAR(static_cast<double>(small) / kItems, 0.01, 0.005);
}

TEST_F(ProfilerTest, SampleSizesTinyWorkloadFallsBackToHalves) {
  Profiler profiler;
  const auto [small, large] = profiler.sample_sizes(10);
  EXPECT_LT(small, large);
  EXPECT_LE(large, 10);
}

TEST_F(ProfilerTest, SampleSizesRejectEmptyWorkload) {
  Profiler profiler;
  EXPECT_THROW(profiler.sample_sizes(0), InvalidArgument);
}

TEST_F(ProfilerTest, CpuRateMatchesCostModel) {
  Profiler profiler;
  const DeviceProfile profile =
      profiler.profile_device(exec_, factory(map_kernel_), kCpu, kItems);
  // Whole-CPU rate: 12 lanes x (eff * lane peak / flops_per_item).
  const double lane_rate = 0.5 * (384.0e9 / 12.0) / 200.0;
  const double expected_spi = 1.0 / (12.0 * lane_rate);
  EXPECT_NEAR(profile.seconds_per_item, expected_spi, expected_spi * 0.05);
}

TEST_F(ProfilerTest, GpuRateMatchesCostModel) {
  Profiler profiler;
  const DeviceProfile profile =
      profiler.profile_device(exec_, factory(map_kernel_), kGpu, kItems);
  const double expected_spi = 200.0 / (0.5 * 3519.3e9);
  EXPECT_NEAR(profile.seconds_per_item, expected_spi, expected_spi * 0.05);
}

TEST_F(ProfilerTest, CpuHasNoTransfers) {
  Profiler profiler;
  const DeviceProfile profile =
      profiler.profile_device(exec_, factory(map_kernel_), kCpu, kItems);
  EXPECT_EQ(profile.h2d_bytes_per_item, 0.0);
  EXPECT_EQ(profile.d2h_bytes_per_item, 0.0);
}

TEST_F(ProfilerTest, GpuTransferBytesPerItemFitted) {
  Profiler profiler;
  const DeviceProfile profile =
      profiler.profile_device(exec_, factory(map_kernel_), kGpu, kItems);
  // map reads 4 B/item in, writes 4 B/item out (flushed at the taskwait).
  EXPECT_NEAR(profile.h2d_bytes_per_item, 4.0, 0.1);
  EXPECT_NEAR(profile.d2h_bytes_per_item, 4.0, 0.1);
  EXPECT_NEAR(profile.h2d_fixed_bytes, 0.0, 1024.0);
}

TEST_F(ProfilerTest, BroadcastInputShowsUpAsFixedBytes) {
  Profiler profiler;
  const DeviceProfile profile =
      profiler.profile_device(exec_, factory(bcast_kernel_), kGpu, kItems);
  // The 12 MB side input is size-independent: pure intercept.
  EXPECT_NEAR(profile.h2d_fixed_bytes, 12e6, 1e5);
  EXPECT_NEAR(profile.h2d_bytes_per_item, 4.0, 0.1);
}

TEST_F(ProfilerTest, LinkFitRecoversBandwidth) {
  Profiler profiler;
  const DeviceProfile profile =
      profiler.profile_device(exec_, factory(map_kernel_), kGpu, kItems);
  // Reference platform link: 6 GB/s.
  EXPECT_NEAR(profile.link_bytes_per_second, 6e9, 0.1 * 6e9);
}

TEST_F(ProfilerTest, LinkFitZeroWhenNoTransfers) {
  Profiler profiler;
  const DeviceProfile profile =
      profiler.profile_device(exec_, factory(map_kernel_), kCpu, kItems);
  EXPECT_EQ(profile.link_bytes_per_second, 0.0);
}

TEST_F(ProfilerTest, ProfilingIsDeterministic) {
  Profiler profiler;
  const DeviceProfile a =
      profiler.profile_device(exec_, factory(map_kernel_), kGpu, kItems);
  const DeviceProfile b =
      profiler.profile_device(exec_, factory(map_kernel_), kGpu, kItems);
  EXPECT_DOUBLE_EQ(a.seconds_per_item, b.seconds_per_item);
  EXPECT_DOUBLE_EQ(a.h2d_bytes_per_item, b.h2d_bytes_per_item);
}

TEST_F(ProfilerTest, CustomFractionsAreHonored) {
  ProfileOptions options;
  options.small_fraction = 0.05;
  options.large_fraction = 0.10;
  Profiler profiler(options);
  const auto [small, large] = profiler.sample_sizes(kItems);
  EXPECT_EQ(small, 50'000);
  EXPECT_EQ(large, 100'000);
}

}  // namespace
}  // namespace hetsched::glinda
