#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "apps/matrixmul.hpp"
#include "glinda/multi_device.hpp"
#include "hw/platform.hpp"
#include "strategies/strategy_runner.hpp"

/// The ISSUE's acceptance example: a CPU + 2x GPU platform on a
/// transfer-light workload must beat the best TWO-device split — at the
/// model level (the vector solve's predicted makespan is strictly lower
/// than every CPU+one-GPU or single-device alternative) and end to end
/// (the simulated dual-GPU run completes, conserves work, and finishes
/// before the single-GPU run).
namespace hetsched {
namespace {

glinda::DeviceProfile device(double seconds_per_item) {
  glinda::DeviceProfile p;
  p.seconds_per_item = seconds_per_item;
  return p;
}

TEST(MultiDeviceExample, ThreeDeviceSolveBeatsBestTwoDeviceSplit) {
  // Transfer-light: half a byte per item over a 6 GB/s link is noise next
  // to 100ns of compute, so the link never binds and the second GPU's
  // capacity is pure gain.
  glinda::MultiDeviceEstimate estimate;
  estimate.devices = {device(1e-6), device(1e-7), device(1e-7)};
  for (std::size_t d = 1; d < 3; ++d) {
    estimate.devices[d].h2d_bytes_per_item = 0.5;
    estimate.devices[d].d2h_bytes_per_item = 0.5;
  }
  estimate.link_bytes_per_second = 6e9;
  estimate.transfer_on_critical_path = true;

  const std::int64_t n = 1'000'000;
  const glinda::MultiPartitionDecision three =
      glinda::solve_multi_partition(estimate, n);

  // Best two-device alternative: CPU + one GPU through the same entry
  // point (identical GPUs, so either pair is THE best pair).
  glinda::MultiDeviceEstimate pair = estimate;
  pair.devices.pop_back();
  const glinda::MultiPartitionDecision two =
      glinda::solve_multi_partition(pair, n);

  // And the single-device baselines.
  const double cpu_only = glinda::MultiPartitionModel().predict_seconds(
      estimate, {n, 0, 0});
  const double gpu_only = glinda::MultiPartitionModel().predict_seconds(
      estimate, {0, n, 0});

  EXPECT_LT(three.predicted_seconds, two.predicted_seconds);
  EXPECT_LT(three.predicted_seconds, cpu_only);
  EXPECT_LT(three.predicted_seconds, gpu_only);
  // Work conservation and genuine three-way participation.
  EXPECT_EQ(three.items_per_device[0] + three.items_per_device[1] +
                three.items_per_device[2],
            n);
  EXPECT_GT(three.items_per_device[1], 0);
  EXPECT_GT(three.items_per_device[2], 0);
}

TEST(MultiDeviceExample, EndToEndDualGpuRunConservesWorkAndWins) {
  apps::Application::Config config;
  config.items = 768;
  config.iterations = 1;
  config.functional = true;

  apps::MatrixMulApp single(hw::make_reference_platform(), config);
  strategies::StrategyRunner single_runner(single);
  const strategies::StrategyResult one_gpu =
      single_runner.run(analyzer::StrategyKind::kSPSingle);

  apps::MatrixMulApp dual(hw::make_dual_gpu_platform(), config);
  strategies::StrategyRunner dual_runner(dual);
  const strategies::StrategyResult two_gpu =
      dual_runner.run(analyzer::StrategyKind::kSPSingle);

  // Work conservation at the report level: MatrixMul is one one-shot
  // kernel, so exactly `items` items execute across the three devices.
  std::int64_t executed = 0;
  for (const rt::DeviceReport& device_report : two_gpu.report.devices)
    executed += device_report.total_items();
  EXPECT_EQ(executed, config.items);

  ASSERT_EQ(two_gpu.decisions.size(), 1u);
  const glinda::MultiPartitionDecision& decision = two_gpu.decisions[0];
  ASSERT_EQ(decision.device_count(), 3u);
  EXPECT_GT(decision.items_per_device[1], 0);
  EXPECT_GT(decision.items_per_device[2], 0);
  EXPECT_EQ(decision.items_per_device[0] + decision.items_per_device[1] +
                decision.items_per_device[2],
            config.items);

  // The second GPU is capacity, not overhead.
  EXPECT_LT(two_gpu.report.makespan, one_gpu.report.makespan);
  dual.verify();
}

}  // namespace
}  // namespace hetsched
