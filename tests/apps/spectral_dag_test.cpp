#include "apps/spectral_dag.hpp"

#include <gtest/gtest.h>

#include "analyzer/matchmaker.hpp"
#include "hw/platform.hpp"
#include "strategies/strategy_runner.hpp"

namespace hetsched::apps {
namespace {

using analyzer::StrategyKind;

Application::Config small_config() {
  Application::Config config;
  config.items = 2048;
  config.iterations = 3;
  config.functional = true;
  return config;
}

TEST(SpectralDag, ClassifiesAsMKDag) {
  SpectralDagApp app(hw::make_reference_platform(), small_config());
  EXPECT_EQ(analyzer::classify(app.descriptor().structure),
            analyzer::AppClass::kMKDag);
}

TEST(SpectralDag, MatchmakerSelectsDPPerf) {
  SpectralDagApp app(hw::make_reference_platform(), small_config());
  const auto match = analyzer::Matchmaker{}.match(app.descriptor());
  EXPECT_EQ(match.best, StrategyKind::kDPPerf);
  EXPECT_EQ(match.ranking,
            (std::vector<StrategyKind>{StrategyKind::kDPPerf,
                                       StrategyKind::kDPDep}));
}

TEST(SpectralDag, DiamondDependenciesAllowRowColOverlap) {
  // row_pass chunk i and col_pass chunk i both depend only on spectrum
  // chunk i — no edge between them.
  SpectralDagApp app(hw::make_reference_platform(), small_config());
  rt::Program program;
  const auto& kernels = app.kernels();
  program.submit(kernels[0], 0, 2048);  // spectrum
  program.submit(kernels[1], 0, 2048);  // row_pass
  program.submit(kernels[2], 0, 2048);  // col_pass
  program.submit(kernels[3], 0, 2048);  // combine
  rt::TaskGraph graph(app.executor().kernels(), program);
  auto has_edge = [&](rt::TaskId from, rt::TaskId to) {
    const auto succ = graph.successors(from);
    return std::find(succ.begin(), succ.end(), to) != succ.end();
  };
  EXPECT_TRUE(has_edge(0, 1));
  EXPECT_TRUE(has_edge(0, 2));
  EXPECT_FALSE(has_edge(1, 2));  // independent branches
  EXPECT_TRUE(has_edge(1, 3));
  EXPECT_TRUE(has_edge(2, 3));
}

TEST(SpectralDag, DynamicStrategiesExecuteAndVerify) {
  for (StrategyKind kind : {StrategyKind::kDPPerf, StrategyKind::kDPDep}) {
    SpectralDagApp app(hw::make_reference_platform(), small_config());
    strategies::StrategyRunner runner(app);
    const auto result = runner.run(kind);
    EXPECT_GT(result.report.makespan, 0);
    app.verify();
  }
}

TEST(SpectralDag, BaselinesExecuteAndVerify) {
  for (StrategyKind kind :
       {StrategyKind::kOnlyCpu, StrategyKind::kOnlyGpu}) {
    SpectralDagApp app(hw::make_reference_platform(), small_config());
    strategies::StrategyRunner runner(app);
    runner.run(kind);
    app.verify();
  }
}

TEST(SpectralDag, RunMatchedEndToEnd) {
  SpectralDagApp app(hw::make_reference_platform(), small_config());
  strategies::StrategyRunner runner(app);
  const auto matched = runner.run_matched();
  EXPECT_EQ(matched.result.kind, StrategyKind::kDPPerf);
  app.verify();
}

TEST(SpectralDag, SingleIterationIsStillDag) {
  Application::Config config = small_config();
  config.iterations = 1;
  SpectralDagApp app(hw::make_reference_platform(), config);
  EXPECT_EQ(analyzer::classify(app.descriptor().structure),
            analyzer::AppClass::kMKDag);
  strategies::StrategyRunner runner(app);
  runner.run(StrategyKind::kDPDep);
  app.verify();
}

}  // namespace
}  // namespace hetsched::apps
