#include "apps/tree_reduction.hpp"

#include <gtest/gtest.h>

#include "analyzer/matchmaker.hpp"
#include "hw/platform.hpp"
#include "strategies/strategy_runner.hpp"

namespace hetsched::apps {
namespace {

using analyzer::StrategyKind;

Application::Config small_config(std::int64_t items = 100'000) {
  Application::Config config;
  config.items = items;
  config.iterations = 1;
  config.functional = true;
  return config;
}

TEST(TreeReduction, PassCountMatchesBranching) {
  EXPECT_EQ(TreeReductionApp::pass_count(1), 1);
  EXPECT_EQ(TreeReductionApp::pass_count(64), 1);
  EXPECT_EQ(TreeReductionApp::pass_count(65), 2);
  EXPECT_EQ(TreeReductionApp::pass_count(64 * 64), 2);
  EXPECT_EQ(TreeReductionApp::pass_count(100'000), 3);
}

TEST(TreeReduction, KernelsShrinkByBranchingFactor) {
  TreeReductionApp app(hw::make_reference_platform(), small_config());
  ASSERT_EQ(app.kernels().size(), 3u);
  EXPECT_EQ(app.items_of(0), 1563);  // ceil(100000 / 64)
  EXPECT_EQ(app.items_of(1), 25);    // ceil(1563 / 64)
  EXPECT_EQ(app.items_of(2), 1);
}

TEST(TreeReduction, ClassifiesAsMKSeqWithSync) {
  TreeReductionApp app(hw::make_reference_platform(), small_config());
  const auto match = analyzer::Matchmaker{}.match(app.descriptor());
  EXPECT_EQ(match.app_class, analyzer::AppClass::kMKSeq);
  EXPECT_EQ(match.best, StrategyKind::kSPVaried);
}

TEST(TreeReduction, SPVariedCollapsesNarrowPassesToOnlyCpu) {
  TreeReductionApp app(hw::make_reference_platform(), small_config());
  strategies::StrategyRunner runner(app);
  const auto result = runner.run(StrategyKind::kSPVaried);
  ASSERT_EQ(result.decisions.size(), 3u);
  // The deep passes (25 items, 1 item) cannot feed a GPU warp usefully:
  // the per-kernel hardware-configuration decision goes Only-CPU.
  EXPECT_EQ(result.decisions[2].config(), glinda::HardwareConfig::kOnlyCpu);
  EXPECT_EQ(result.gpu_fraction_per_kernel[2], 0.0);
  app.verify();
}

TEST(TreeReduction, AllStrategiesProduceTheRightSum) {
  for (StrategyKind kind :
       {StrategyKind::kSPVaried, StrategyKind::kSPUnified,
        StrategyKind::kDPPerf, StrategyKind::kDPDep, StrategyKind::kOnlyCpu,
        StrategyKind::kOnlyGpu, StrategyKind::kSPDag}) {
    TreeReductionApp app(hw::make_reference_platform(), small_config());
    strategies::StrategyRunner runner(app);
    runner.run(kind);
    app.verify();
  }
}

TEST(TreeReduction, ExecutedItemsMatchPerKernelCounts) {
  TreeReductionApp app(hw::make_reference_platform(), small_config());
  strategies::StrategyRunner runner(app);
  const auto result = runner.run(StrategyKind::kOnlyCpu);
  std::int64_t executed = 0;
  for (const auto& device : result.report.devices)
    executed += device.total_items();
  EXPECT_EQ(executed, app.items_of(0) + app.items_of(1) + app.items_of(2));
}

TEST(TreeReduction, SingleElementInputDegenerates) {
  TreeReductionApp app(hw::make_reference_platform(), small_config(50));
  ASSERT_EQ(app.kernels().size(), 1u);
  strategies::StrategyRunner runner(app);
  runner.run(StrategyKind::kOnlyCpu);
  app.verify();
}

}  // namespace
}  // namespace hetsched::apps
