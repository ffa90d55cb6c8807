#include "apps/triangular.hpp"

#include <gtest/gtest.h>

#include "analyzer/matchmaker.hpp"
#include "hw/cost_model.hpp"
#include "hw/platform.hpp"
#include "strategies/strategy_runner.hpp"

namespace hetsched::apps {
namespace {

using analyzer::StrategyKind;

Application::Config small_config(std::int64_t rows = 512) {
  Application::Config config;
  config.items = rows;
  config.iterations = 1;
  config.functional = true;
  return config;
}

TEST(TriangularMv, PrefixWeightIsTriangularNumbers) {
  TriangularMvApp app(hw::make_reference_platform(), small_config());
  const auto weight = app.prefix_weight();
  ASSERT_NE(weight, nullptr);
  EXPECT_DOUBLE_EQ(weight(0), 0.0);
  EXPECT_DOUBLE_EQ(weight(1), 1.0);
  EXPECT_DOUBLE_EQ(weight(4), 10.0);
  EXPECT_DOUBLE_EQ(weight(512), 0.5 * 512.0 * 513.0);
}

TEST(TriangularMv, KernelWorkWeightMatchesRangeSums) {
  TriangularMvApp app(hw::make_reference_platform(), small_config());
  const hw::KernelTraits& traits =
      app.executor().kernels().at(0).traits;
  ASSERT_TRUE(traits.work_weight != nullptr);
  // Rows [10, 20): sum of (i+1) for i in [10, 20) = sum 11..20 = 155.
  EXPECT_DOUBLE_EQ(traits.weight_of(10, 20), 155.0);
  EXPECT_DOUBLE_EQ(traits.weight_of(0, 512), 0.5 * 512.0 * 513.0);
}

TEST(TriangularMv, HeavyTailCostsMoreThanLightHead) {
  // Same item count, very different simulated cost.
  TriangularMvApp app(hw::make_reference_platform(), small_config());
  const auto& kernel = app.executor().kernels().at(0);
  const hw::RooflineCostModel& model = app.executor().cost_model();
  const hw::DeviceSpec cpu = hw::make_reference_platform().cpu;
  const SimTime head = model.instance_time(kernel.traits, cpu, 0, 100);
  const SimTime tail = model.instance_time(kernel.traits, cpu, 412, 512);
  EXPECT_GT(tail, 4 * head);
}

TEST(TriangularMv, SPSingleUsesWeightedSolver) {
  // Timing-only at a size where the GPU earns a real share (the tiny
  // functional size collapses to Only-CPU via the min-share decision).
  Application::Config config;
  config.items = 16'384;
  config.iterations = 1;
  config.functional = false;
  TriangularMvApp app(hw::make_reference_platform(), config);
  strategies::StrategyRunner runner(app);
  const auto result = runner.run(StrategyKind::kSPSingle);
  ASSERT_EQ(result.decisions.size(), 1u);
  const std::int64_t gpu_items = result.decisions[0].items_per_device[1];
  ASSERT_GT(gpu_items, 0);
  // The GPU's head slab holds more ITEMS than its work share: with growing
  // per-item cost, balancing work means item share > work share.
  const auto weight = app.prefix_weight();
  const double item_share = result.decisions[0].share(1, app.items());
  const double work_share = weight(gpu_items) / weight(app.items());
  EXPECT_GT(item_share, work_share);
}

TEST(TriangularMv, AllStrategiesComputeCorrectly) {
  for (StrategyKind kind :
       {StrategyKind::kSPSingle, StrategyKind::kDPPerf, StrategyKind::kDPDep,
        StrategyKind::kOnlyCpu, StrategyKind::kOnlyGpu}) {
    TriangularMvApp app(hw::make_reference_platform(), small_config());
    strategies::StrategyRunner runner(app);
    runner.run(kind);
    app.verify();
  }
}

TEST(TriangularMv, ClassifiesAsSKOne) {
  TriangularMvApp app(hw::make_reference_platform(), small_config());
  EXPECT_EQ(analyzer::Matchmaker{}.match(app.descriptor()).best,
            StrategyKind::kSPSingle);
}

TEST(WeightedCostModel, UniformKernelUnchanged) {
  hw::KernelTraits traits;
  traits.name = "uniform";
  traits.flops_per_item = 100.0;
  const hw::DeviceSpec cpu = hw::make_reference_platform().cpu;
  hw::RooflineCostModel model;
  EXPECT_EQ(model.instance_time(traits, cpu, 0, 1000),
            model.instance_time(traits, cpu, 5000, 6000));
  EXPECT_EQ(model.instance_time(traits, cpu, 1000),
            model.instance_time(traits, cpu, 0, 1000));
}

TEST(WeightedCostModel, WeightScalesTime) {
  hw::KernelTraits traits;
  traits.name = "weighted";
  traits.flops_per_item = 100.0;
  traits.work_weight = [](std::int64_t begin, std::int64_t end) {
    return 3.0 * static_cast<double>(end - begin);
  };
  hw::KernelTraits uniform = traits;
  uniform.work_weight = nullptr;
  const hw::DeviceSpec cpu = hw::make_reference_platform().cpu;
  hw::RooflineCostModel model;
  const SimTime weighted = model.instance_time(traits, cpu, 0, 1000);
  const SimTime plain = model.instance_time(uniform, cpu, 0, 1000);
  EXPECT_NEAR(static_cast<double>(weighted - cpu.launch_overhead),
              3.0 * static_cast<double>(plain - cpu.launch_overhead),
              1e3);
}

}  // namespace
}  // namespace hetsched::apps
