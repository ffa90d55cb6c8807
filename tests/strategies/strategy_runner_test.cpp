#include "strategies/strategy_runner.hpp"

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "hw/platform.hpp"

namespace hetsched::strategies {
namespace {

using analyzer::StrategyKind;
using apps::PaperApp;

class StrategyRunnerTest : public ::testing::Test {
 protected:
  hw::PlatformSpec platform_ = hw::make_reference_platform();

  std::unique_ptr<apps::Application> make(PaperApp kind) {
    return apps::make_paper_app(kind, platform_, apps::test_config(kind));
  }
};

TEST_F(StrategyRunnerTest, SPSingleDecidesAndExecutes) {
  auto app = make(PaperApp::kBlackScholes);
  StrategyRunner runner(*app);
  const StrategyResult result = runner.run(StrategyKind::kSPSingle);
  EXPECT_EQ(result.kind, StrategyKind::kSPSingle);
  ASSERT_EQ(result.decisions.size(), 1u);
  EXPECT_GT(result.report.makespan, 0);
  // All items were executed exactly once.
  std::int64_t total = 0;
  for (const auto& device : result.report.devices)
    total += device.total_items();
  EXPECT_EQ(total, app->items());
  app->verify();
}

TEST_F(StrategyRunnerTest, SPSingleRejectsMultiKernelApps) {
  auto app = make(PaperApp::kStreamSeq);
  StrategyRunner runner(*app);
  EXPECT_THROW(runner.run(StrategyKind::kSPSingle), InvalidArgument);
}

TEST_F(StrategyRunnerTest, SPUnifiedRejectsSingleKernelApps) {
  auto app = make(PaperApp::kMatrixMul);
  StrategyRunner runner(*app);
  EXPECT_THROW(runner.run(StrategyKind::kSPUnified), InvalidArgument);
  EXPECT_THROW(runner.run(StrategyKind::kSPVaried), InvalidArgument);
}

TEST_F(StrategyRunnerTest, SPUnifiedUsesOnePartitionPointForAllKernels) {
  auto app = make(PaperApp::kStreamSeq);
  StrategyRunner runner(*app);
  const StrategyResult result = runner.run(StrategyKind::kSPUnified);
  ASSERT_EQ(result.gpu_fraction_per_kernel.size(), 4u);
  for (double fraction : result.gpu_fraction_per_kernel)
    EXPECT_DOUBLE_EQ(fraction, result.gpu_fraction_per_kernel[0]);
}

TEST_F(StrategyRunnerTest, SPVariedProducesPerKernelDecisions) {
  auto app = make(PaperApp::kStreamSeq);
  StrategyRunner runner(*app);
  const StrategyResult result = runner.run(StrategyKind::kSPVaried);
  EXPECT_EQ(result.decisions.size(), 4u);
  app->verify();
}

TEST_F(StrategyRunnerTest, OnlyCpuUsesNoGpu) {
  auto app = make(PaperApp::kMatrixMul);
  StrategyRunner runner(*app);
  const StrategyResult result = runner.run(StrategyKind::kOnlyCpu);
  EXPECT_EQ(result.gpu_fraction_overall, 0.0);
  EXPECT_EQ(result.report.transfers.total_bytes(), 0);
  app->verify();
}

TEST_F(StrategyRunnerTest, OnlyGpuUsesOnlyGpu) {
  auto app = make(PaperApp::kMatrixMul);
  StrategyRunner runner(*app);
  const StrategyResult result = runner.run(StrategyKind::kOnlyGpu);
  EXPECT_EQ(result.gpu_fraction_overall, 1.0);
  EXPECT_GT(result.report.transfers.h2d_bytes, 0);
  app->verify();
}

TEST_F(StrategyRunnerTest, OnlyGpuRequiresAnAccelerator) {
  auto app = apps::make_paper_app(PaperApp::kMatrixMul,
                                  hw::make_cpu_only_platform(),
                                  apps::test_config(PaperApp::kMatrixMul));
  StrategyRunner runner(*app);
  EXPECT_THROW(runner.run(StrategyKind::kOnlyGpu), InvalidArgument);
  EXPECT_NO_THROW(runner.run(StrategyKind::kOnlyCpu));
}

TEST_F(StrategyRunnerTest, DynamicStrategiesLeaveTasksUnpinnedButCovered) {
  auto app = make(PaperApp::kBlackScholes);
  StrategyRunner runner(*app);
  for (StrategyKind kind : {StrategyKind::kDPDep, StrategyKind::kDPPerf}) {
    const StrategyResult result = runner.run(kind);
    std::int64_t total = 0;
    for (const auto& device : result.report.devices)
      total += device.total_items();
    EXPECT_EQ(total, app->items()) << analyzer::strategy_name(kind);
    app->verify();
  }
}

TEST_F(StrategyRunnerTest, RunMatchedFollowsTheAnalyzer) {
  {
    auto app = make(PaperApp::kMatrixMul);
    StrategyRunner runner(*app);
    const auto matched = runner.run_matched();
    EXPECT_EQ(matched.match.best, StrategyKind::kSPSingle);
    EXPECT_EQ(matched.result.kind, StrategyKind::kSPSingle);
  }
  {
    auto app = make(PaperApp::kStreamSeq);
    StrategyRunner runner(*app);
    EXPECT_EQ(runner.run_matched().match.best, StrategyKind::kSPUnified);
  }
  {
    // The "w sync" scenario flips the selection to SP-Varied.
    auto app = make(PaperApp::kStreamSeq);
    StrategyOptions options;
    options.sync_between_kernels = true;
    StrategyRunner runner(*app, options);
    EXPECT_EQ(runner.run_matched().match.best, StrategyKind::kSPVaried);
  }
}

TEST_F(StrategyRunnerTest, RunRankedAndBaselinesCoversTableRow) {
  auto app = make(PaperApp::kStreamSeq);
  StrategyRunner runner(*app);
  const auto results = runner.run_ranked_and_baselines();
  EXPECT_EQ(results.size(), 6u);  // 4 ranked + 2 baselines
  EXPECT_TRUE(results.count(StrategyKind::kSPUnified));
  EXPECT_TRUE(results.count(StrategyKind::kSPVaried));
  EXPECT_TRUE(results.count(StrategyKind::kOnlyCpu));
  EXPECT_TRUE(results.count(StrategyKind::kOnlyGpu));
}

TEST_F(StrategyRunnerTest, ResultsAreDeterministic) {
  auto app1 = make(PaperApp::kStreamSeq);
  auto app2 = make(PaperApp::kStreamSeq);
  StrategyRunner r1(*app1), r2(*app2);
  for (StrategyKind kind :
       {StrategyKind::kSPUnified, StrategyKind::kDPPerf,
        StrategyKind::kDPDep}) {
    EXPECT_EQ(r1.run(kind).report.makespan, r2.run(kind).report.makespan)
        << analyzer::strategy_name(kind);
  }
}

TEST_F(StrategyRunnerTest, GpuPartitionIsWarpAligned) {
  auto app = make(PaperApp::kBlackScholes);
  StrategyRunner runner(*app);
  const StrategyResult result = runner.run(StrategyKind::kSPSingle);
  ASSERT_EQ(result.decisions.size(), 1u);
  EXPECT_EQ(result.decisions[0].items_per_device[1] % 32, 0);
}

TEST_F(StrategyRunnerTest, TaskCountControlsChunking) {
  auto app = make(PaperApp::kBlackScholes);
  StrategyOptions options;
  options.task_count = 4;
  StrategyRunner runner(*app, options);
  const StrategyResult result = runner.run(StrategyKind::kOnlyCpu);
  EXPECT_EQ(result.report.tasks_executed, 4u);
}

TEST_F(StrategyRunnerTest, InvalidTaskCountRejected) {
  auto app = make(PaperApp::kMatrixMul);
  StrategyOptions options;
  options.task_count = 0;
  EXPECT_THROW(StrategyRunner(*app, options), InvalidArgument);
}

}  // namespace
}  // namespace hetsched::strategies
