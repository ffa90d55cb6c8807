#include "sweep/scenario.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace hetsched::sweep {
namespace {

TEST(Scenario, LabelAndGroup) {
  Scenario scenario;
  scenario.app = apps::PaperApp::kMatrixMul;
  scenario.strategy = analyzer::StrategyKind::kSPSingle;
  // The reference platform is elided from labels but kept in group names.
  EXPECT_EQ(scenario.label(), "matrixmul/sp-single");
  EXPECT_EQ(scenario.group(), "matrixmul@reference");

  scenario.app = apps::PaperApp::kStreamSeq;
  scenario.strategy = analyzer::StrategyKind::kSPVaried;
  scenario.platform = "small-gpu";
  scenario.sync = true;
  scenario.small = true;
  EXPECT_EQ(scenario.label(), "stream-seq/sp-varied@small-gpu+sync+small");
  EXPECT_EQ(scenario.group(), "stream-seq@small-gpu+sync+small");
}

TEST(Scenario, JsonRoundTrip) {
  Scenario scenario;
  scenario.app = apps::PaperApp::kHotSpot;
  scenario.strategy = analyzer::StrategyKind::kDPDep;
  scenario.platform = "dual-gpu";
  scenario.sync = true;
  scenario.small = true;
  scenario.task_count = 24;
  scenario.costs.dispatch_overhead = 1234;

  const Scenario restored = Scenario::from_json(scenario.to_json());
  EXPECT_EQ(restored.app, scenario.app);
  EXPECT_EQ(restored.strategy, scenario.strategy);
  EXPECT_EQ(restored.platform, scenario.platform);
  EXPECT_EQ(restored.sync, scenario.sync);
  EXPECT_EQ(restored.small, scenario.small);
  EXPECT_EQ(restored.task_count, scenario.task_count);
  EXPECT_EQ(restored.costs.dispatch_overhead, scenario.costs.dispatch_overhead);
  EXPECT_EQ(scenario_key(restored), scenario_key(scenario));
}

TEST(ScenarioKey, ContainsVersionAndPlatformClosure) {
  const std::string key = scenario_key(Scenario{});
  EXPECT_NE(key.find(kSweepCodeVersion), std::string::npos);
  // The full platform spec participates (devices and links).
  EXPECT_NE(key.find("device{"), std::string::npos);
  EXPECT_NE(key.find("link{"), std::string::npos);
}

TEST(ScenarioKey, EveryFieldChangesTheKey) {
  const Scenario base;
  const std::string base_key = scenario_key(base);

  Scenario mutated = base;
  mutated.app = apps::PaperApp::kNbody;
  EXPECT_NE(scenario_key(mutated), base_key);

  mutated = base;
  mutated.strategy = analyzer::StrategyKind::kDPPerf;
  EXPECT_NE(scenario_key(mutated), base_key);

  mutated = base;
  mutated.platform = "small-gpu";
  EXPECT_NE(scenario_key(mutated), base_key);

  mutated = base;
  mutated.sync = true;
  EXPECT_NE(scenario_key(mutated), base_key);

  mutated = base;
  mutated.small = true;
  EXPECT_NE(scenario_key(mutated), base_key);

  mutated = base;
  mutated.task_count = 13;
  EXPECT_NE(scenario_key(mutated), base_key);

  mutated = base;
  mutated.costs.task_creation += 1;
  EXPECT_NE(scenario_key(mutated), base_key);

  mutated = base;
  mutated.costs.dispatch_overhead += 1;
  EXPECT_NE(scenario_key(mutated), base_key);

  mutated = base;
  mutated.costs.taskwait_overhead += 1;
  EXPECT_NE(scenario_key(mutated), base_key);
}

TEST(ScenarioKey, UnknownPlatformThrows) {
  Scenario scenario;
  scenario.platform = "not-a-platform";
  EXPECT_THROW(scenario_key(scenario), InvalidArgument);
}

TEST(ScenarioHash, StableHexDigest) {
  const Scenario scenario;
  const std::string digest = scenario_hash(scenario);
  EXPECT_EQ(digest.size(), 16u);
  EXPECT_EQ(digest.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(digest, scenario_hash(scenario));  // deterministic
  Scenario other = scenario;
  other.sync = true;
  EXPECT_NE(scenario_hash(other), digest);
}

TEST(EnumerateMatrix, DeterministicCrossProduct) {
  const auto scenarios = enumerate_matrix(
      {apps::PaperApp::kMatrixMul, apps::PaperApp::kNbody},
      {analyzer::StrategyKind::kSPSingle, analyzer::StrategyKind::kOnlyCpu},
      {"reference"}, {false, true}, /*small=*/true);
  ASSERT_EQ(scenarios.size(), 8u);
  // Apps-major order, then strategy, then sync.
  EXPECT_EQ(scenarios[0].label(), "matrixmul/sp-single+small");
  EXPECT_EQ(scenarios[1].label(), "matrixmul/sp-single+sync+small");
  EXPECT_EQ(scenarios[2].label(), "matrixmul/only-cpu+small");
  EXPECT_EQ(scenarios[4].label(), "nbody/sp-single+small");
  for (const Scenario& scenario : scenarios) EXPECT_TRUE(scenario.small);
}

TEST(EnumerateMatrix, DefaultMatrixCoversPaperGrid) {
  // 6 apps x 7 paper strategies x 2 sync variants.
  EXPECT_EQ(default_matrix().size(), 84u);
  EXPECT_EQ(default_matrix(/*small=*/true).size(), 84u);
}

}  // namespace
}  // namespace hetsched::sweep
