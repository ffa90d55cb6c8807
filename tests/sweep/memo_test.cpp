#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "obs/phase_profiler.hpp"
#include "sweep/sweep.hpp"

/// Tests for the in-run scenario memo: shared baseline twins, input-list
/// dedup, and the contract that memoized results are byte-identical to the
/// memo-free reference path (SingleFlight itself: tests/common).
namespace hetsched::sweep {
namespace {

SweepOptions serial_options() {
  SweepOptions options;
  options.parallel = false;
  options.use_cache = false;
  return options;
}

Scenario storm_scenario(std::uint64_t seed) {
  Scenario scenario;
  scenario.app = apps::PaperApp::kMatrixMul;
  scenario.strategy = analyzer::StrategyKind::kDPPerf;
  scenario.small = true;
  scenario.fault_plan = "storm";
  scenario.fault_seed = seed;
  return scenario;
}

Scenario healthy_twin_of(const Scenario& faulted) {
  Scenario healthy = faulted;
  healthy.fault_plan.clear();
  healthy.fault_seed = 0;
  return healthy;
}

// The acceptance bar: S faulted scenarios sharing one healthy twin perform
// exactly one baseline computation.
TEST(SweepMemo, FaultSeedsShareOneBaselineTwin) {
  constexpr int kSeeds = 5;
  std::vector<Scenario> scenarios;
  for (int seed = 1; seed <= kSeeds; ++seed)
    scenarios.push_back(storm_scenario(static_cast<std::uint64_t>(seed)));

  const SweepRun run = SweepEngine(serial_options()).run(scenarios);
  EXPECT_EQ(run.summary.ok, static_cast<std::size_t>(kSeeds));
  EXPECT_EQ(run.summary.twin_computes, 1u);
  EXPECT_EQ(run.summary.twin_memo_hits,
            static_cast<std::size_t>(kSeeds - 1));
  EXPECT_EQ(run.summary.scenario_dedup_hits, 0u);
  // With the cache off there is no cache traffic to count.
  EXPECT_EQ(run.summary.cache_hits, 0u);
  EXPECT_EQ(run.summary.cache_misses, 0u);
  // Every faulted outcome was measured against the same baseline.
  for (const ScenarioOutcome& outcome : run.outcomes) {
    ASSERT_TRUE(outcome.ok()) << outcome.error;
    EXPECT_EQ(outcome.metrics.baseline_time_ms,
              run.outcomes[0].metrics.baseline_time_ms);
  }
}

/// DP-Perf and the three SP strategies: the ones whose faulted scenarios
/// execute a profiled plan shared through their twin.
std::vector<Scenario> planned_storm_scenarios(int seeds) {
  const std::pair<apps::PaperApp, analyzer::StrategyKind> planned[] = {
      {apps::PaperApp::kMatrixMul, analyzer::StrategyKind::kDPPerf},
      {apps::PaperApp::kMatrixMul, analyzer::StrategyKind::kSPSingle},
      {apps::PaperApp::kStreamSeq, analyzer::StrategyKind::kSPUnified},
      {apps::PaperApp::kStreamSeq, analyzer::StrategyKind::kSPVaried},
  };
  std::vector<Scenario> scenarios;
  for (int seed = 1; seed <= seeds; ++seed) {
    for (const auto& [app, strategy] : planned) {
      Scenario scenario = storm_scenario(static_cast<std::uint64_t>(seed));
      scenario.app = app;
      scenario.strategy = strategy;
      scenarios.push_back(scenario);
    }
  }
  return scenarios;
}

TEST(SweepMemo, ParallelRunSharesTwinsThreadSafely) {
  constexpr int kSeeds = 6;
  const std::vector<Scenario> scenarios = planned_storm_scenarios(kSeeds);
  const std::size_t twins = scenarios.size() / kSeeds;

  SweepOptions options = serial_options();
  options.parallel = true;
  options.jobs = 8;
  const SweepRun run = SweepEngine(options).run(scenarios);
  EXPECT_EQ(run.summary.ok, scenarios.size());
  EXPECT_EQ(run.summary.twin_computes, twins);
  EXPECT_EQ(run.summary.twin_memo_hits, scenarios.size() - twins);

  // Workers racing for a twin execute its shared plan: same bytes as the
  // serial reference.
  const SweepRun serial = SweepEngine(serial_options()).run(scenarios);
  ASSERT_EQ(run.outcomes.size(), serial.outcomes.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(run.outcomes[i].to_payload(), serial.outcomes[i].to_payload())
        << scenarios[i].label();
  }
}

std::int64_t partition_solve_calls() {
  const auto stages = obs::phase_profiler().snapshot();
  const auto it = stages.find(std::string(obs::kPhasePartitionSolve));
  return it == stages.end() ? 0 : it->second.calls;
}

// Faulted scenarios execute their twin's strategy plan instead of profiling
// again: a faults sweep over one SP (app, platform) solves exactly the
// partitions its twin solves, however many seeds and plans share the twin.
TEST(SweepMemo, FaultedScenariosSolveNoPartitionOfTheirOwn) {
  constexpr int kSeeds = 3;
  const SweepEngine engine(serial_options());
  for (const Scenario& planned : planned_storm_scenarios(1)) {
    if (planned.strategy == analyzer::StrategyKind::kDPPerf) continue;
    std::int64_t before = partition_solve_calls();
    ASSERT_TRUE(engine.compute(healthy_twin_of(planned)).ok());
    const std::int64_t twin_solves = partition_solve_calls() - before;
    ASSERT_GT(twin_solves, 0) << planned.label();

    std::vector<Scenario> scenarios;
    for (const char* plan : {"storm", "storm-all"}) {
      for (int seed = 1; seed <= kSeeds; ++seed) {
        Scenario scenario = planned;
        scenario.fault_plan = plan;
        scenario.fault_seed = static_cast<std::uint64_t>(seed);
        scenarios.push_back(scenario);
      }
    }
    before = partition_solve_calls();
    const SweepRun run = engine.run(scenarios);
    EXPECT_EQ(run.summary.ok, scenarios.size());
    EXPECT_EQ(run.summary.twin_computes, 1u);
    EXPECT_EQ(partition_solve_calls() - before, twin_solves)
        << planned.label();

    // The memo-free path shares its local twin's plan the same way.
    before = partition_solve_calls();
    ASSERT_TRUE(engine.compute(scenarios.front()).ok());
    EXPECT_EQ(partition_solve_calls() - before, twin_solves)
        << planned.label();
  }
}

// Memoized results must be byte-identical to the memo-free reference path
// (SweepEngine::compute), fault axis included.
TEST(SweepMemo, MemoizedOutcomesMatchReferenceCompute) {
  std::vector<Scenario> scenarios = {
      storm_scenario(1), storm_scenario(2),
      healthy_twin_of(storm_scenario(1))};
  const SweepEngine engine(serial_options());
  const SweepRun run = engine.run(scenarios);
  ASSERT_EQ(run.outcomes.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioOutcome reference = engine.compute(scenarios[i]);
    EXPECT_EQ(run.outcomes[i].to_payload(), reference.to_payload())
        << scenarios[i].label();
  }
}

TEST(SweepMemo, DuplicateInputScenariosComputeOnce) {
  const Scenario scenario = healthy_twin_of(storm_scenario(1));
  const std::vector<Scenario> scenarios = {scenario, scenario, scenario};
  const SweepRun run = SweepEngine(serial_options()).run(scenarios);
  EXPECT_EQ(run.summary.computed, 1u);
  EXPECT_EQ(run.summary.scenario_dedup_hits, 2u);
  EXPECT_FALSE(run.outcomes[0].memo_hit);
  EXPECT_TRUE(run.outcomes[1].memo_hit);
  EXPECT_TRUE(run.outcomes[2].memo_hit);
  EXPECT_EQ(run.outcomes[1].to_payload(), run.outcomes[0].to_payload());
  EXPECT_EQ(run.outcomes[2].to_payload(), run.outcomes[0].to_payload());
}

// A healthy scenario that doubles as another scenario's baseline twin is
// computed once, whichever side gets there first.
TEST(SweepMemo, TopLevelScenarioSharesWithItsTwin) {
  const Scenario faulted = storm_scenario(3);
  const Scenario healthy = healthy_twin_of(faulted);

  // Healthy first: the faulted scenario's twin lookup hits the memo.
  {
    const SweepRun run =
        SweepEngine(serial_options()).run({healthy, faulted});
    EXPECT_EQ(run.summary.computed, 2u);
    EXPECT_EQ(run.summary.twin_computes, 0u);
    EXPECT_EQ(run.summary.twin_memo_hits, 1u);
    EXPECT_EQ(run.summary.scenario_dedup_hits, 0u);
  }
  // Faulted first: the healthy top-level entry materializes from the twin
  // the faulted scenario computed (a crossover dedup hit).
  {
    const SweepRun run =
        SweepEngine(serial_options()).run({faulted, healthy});
    EXPECT_EQ(run.summary.computed, 1u);
    EXPECT_EQ(run.summary.twin_computes, 1u);
    EXPECT_EQ(run.summary.twin_memo_hits, 0u);
    EXPECT_EQ(run.summary.scenario_dedup_hits, 1u);
    EXPECT_TRUE(run.outcomes[1].memo_hit);
    // Same bytes a standalone compute of the healthy scenario produces.
    const ScenarioOutcome reference =
        SweepEngine(serial_options()).compute(healthy);
    EXPECT_EQ(run.outcomes[1].to_payload(), reference.to_payload());
  }
}

}  // namespace
}  // namespace hetsched::sweep
