#include "sweep/sweep.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace hetsched::sweep {
namespace {

namespace fs = std::filesystem;

Scenario small_scenario(apps::PaperApp app, analyzer::StrategyKind strategy,
                        bool sync = false) {
  Scenario scenario;
  scenario.app = app;
  scenario.strategy = strategy;
  scenario.sync = sync;
  scenario.small = true;
  return scenario;
}

SweepOptions serial_options() {
  SweepOptions options;
  options.parallel = false;
  options.use_cache = false;
  return options;
}

TEST(SweepEngine, ComputesAnApplicableScenario) {
  const SweepEngine engine(serial_options());
  const ScenarioOutcome outcome = engine.compute(small_scenario(
      apps::PaperApp::kMatrixMul, analyzer::StrategyKind::kSPSingle));
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  EXPECT_GT(outcome.time_ms(), 0.0);
  EXPECT_GT(outcome.metrics.tasks_executed, 0);
  EXPECT_FALSE(outcome.report_json.empty());
  EXPECT_FALSE(outcome.cache_hit);
  // MatrixMul under SP-Single is GPU-heavy (DESIGN.md section 4).
  EXPECT_GT(outcome.gpu_fraction_overall(), 0.5);
}

TEST(SweepEngine, MapsInapplicableStrategyToStatus) {
  const SweepEngine engine(serial_options());
  // SP-Single requires a single-kernel app; STREAM-Seq has four kernels.
  const ScenarioOutcome outcome = engine.compute(small_scenario(
      apps::PaperApp::kStreamSeq, analyzer::StrategyKind::kSPSingle));
  EXPECT_EQ(outcome.status, ScenarioStatus::kInapplicable);
  EXPECT_FALSE(outcome.error.empty());
  EXPECT_FALSE(outcome.ok());
}

TEST(SweepEngine, RunPreservesInputOrderAndCounts) {
  const std::vector<Scenario> scenarios = {
      small_scenario(apps::PaperApp::kMatrixMul,
                     analyzer::StrategyKind::kSPSingle),
      small_scenario(apps::PaperApp::kStreamSeq,
                     analyzer::StrategyKind::kSPSingle),  // inapplicable
      small_scenario(apps::PaperApp::kStreamSeq,
                     analyzer::StrategyKind::kSPUnified),
  };
  const SweepRun run = SweepEngine(serial_options()).run(scenarios);
  ASSERT_EQ(run.outcomes.size(), 3u);
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    EXPECT_EQ(run.outcomes[i].scenario.label(), scenarios[i].label());
  EXPECT_EQ(run.summary.scenarios, 3u);
  EXPECT_EQ(run.summary.ok, 2u);
  EXPECT_EQ(run.summary.inapplicable, 1u);
  EXPECT_EQ(run.summary.failed, 0u);
  EXPECT_EQ(run.summary.computed, 3u);
  EXPECT_EQ(run.summary.cache_hits, 0u);
}

TEST(SweepEngine, PayloadRoundTripIsExact) {
  const SweepEngine engine(serial_options());
  for (const ScenarioOutcome& outcome :
       {engine.compute(small_scenario(apps::PaperApp::kNbody,
                                      analyzer::StrategyKind::kDPPerf)),
        engine.compute(small_scenario(apps::PaperApp::kStreamSeq,
                                      analyzer::StrategyKind::kSPSingle))}) {
    const std::string payload = outcome.to_payload();
    const ScenarioOutcome restored = ScenarioOutcome::from_payload(payload);
    EXPECT_EQ(restored.to_payload(), payload);
    EXPECT_EQ(restored.status, outcome.status);
    EXPECT_EQ(restored.report_json, outcome.report_json);
  }
}

TEST(SweepEngine, SecondRunHitsTheCache) {
  const fs::path dir = fs::path(::testing::TempDir()) / "hs_sweep_cache_hit";
  fs::remove_all(dir);
  SweepOptions options = serial_options();
  options.use_cache = true;
  options.cache_dir = dir.string();
  const SweepEngine engine(options);
  const std::vector<Scenario> scenarios = {
      small_scenario(apps::PaperApp::kHotSpot,
                     analyzer::StrategyKind::kSPSingle),
  };
  const SweepRun cold = engine.run(scenarios);
  EXPECT_EQ(cold.summary.cache_hits, 0u);
  EXPECT_EQ(cold.summary.computed, 1u);
  const SweepRun warm = engine.run(scenarios);
  EXPECT_EQ(warm.summary.cache_hits, 1u);
  EXPECT_EQ(warm.summary.computed, 0u);
  EXPECT_TRUE(warm.outcomes[0].cache_hit);
  // The served payload carries the simulated work it stands for.
  EXPECT_GT(cold.outcomes[0].metrics.sim_events, 0);
  EXPECT_EQ(warm.outcomes[0].to_payload(), cold.outcomes[0].to_payload());
  fs::remove_all(dir);
}

TEST(SweepEngine, UndeserializableCacheEntryIsRecomputed) {
  const fs::path dir = fs::path(::testing::TempDir()) / "hs_sweep_cache_bad";
  fs::remove_all(dir);
  SweepOptions options = serial_options();
  options.use_cache = true;
  options.cache_dir = dir.string();
  const std::vector<Scenario> scenarios = {
      small_scenario(apps::PaperApp::kNbody,
                     analyzer::StrategyKind::kSPSingle),
  };
  // Plant an entry that passes the cache's byte-level checks but is not a
  // valid outcome payload.
  {
    ResultCache cache(dir.string());
    cache.store(scenario_key(scenarios[0]), "{\"not\":\"an outcome\"}");
  }
  const SweepRun run = SweepEngine(options).run(scenarios);
  EXPECT_EQ(run.summary.cache_hits, 0u);
  EXPECT_EQ(run.summary.computed, 1u);
  EXPECT_TRUE(run.outcomes[0].ok());
  fs::remove_all(dir);
}

TEST(SweepEngine, FailedCacheEntryIsNeverReplayed) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "hs_sweep_cache_failed";
  fs::remove_all(dir);
  SweepOptions options = serial_options();
  options.use_cache = true;
  options.cache_dir = dir.string();
  const Scenario scenario = small_scenario(
      apps::PaperApp::kMatrixMul, analyzer::StrategyKind::kSPSingle);

  // Plant a failed outcome under the scenario's key — what the engine
  // would have stored before failed outcomes were barred from the cache.
  ScenarioOutcome failed;
  failed.scenario = scenario;
  failed.status = ScenarioStatus::kFailed;
  failed.error = "transient failure";
  {
    ResultCache cache(dir.string());
    cache.store(scenario_key(scenario), failed.to_payload());
  }

  // A transient failure must not replay as a permanent hit: the entry is
  // evicted and the scenario recomputed.
  const SweepRun run = SweepEngine(options).run({scenario});
  EXPECT_EQ(run.summary.cache_hits, 0u);
  EXPECT_EQ(run.summary.computed, 1u);
  ASSERT_TRUE(run.outcomes[0].ok()) << run.outcomes[0].error;
  EXPECT_FALSE(run.outcomes[0].cache_hit);

  // The recompute replaced the failed entry with the good outcome.
  ResultCache cache(dir.string());
  const auto stored = cache.load(scenario_key(scenario));
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(ScenarioOutcome::from_payload(*stored).status,
            ScenarioStatus::kOk);
  fs::remove_all(dir);
}

TEST(SweepEngine, OkAndInapplicableOutcomesAreStored) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "hs_sweep_cache_store_set";
  fs::remove_all(dir);
  SweepOptions options = serial_options();
  options.use_cache = true;
  options.cache_dir = dir.string();
  const std::vector<Scenario> scenarios = {
      small_scenario(apps::PaperApp::kMatrixMul,
                     analyzer::StrategyKind::kSPSingle),
      small_scenario(apps::PaperApp::kStreamSeq,
                     analyzer::StrategyKind::kSPSingle),  // inapplicable
  };
  const SweepRun cold = SweepEngine(options).run(scenarios);
  EXPECT_EQ(cold.summary.ok, 1u);
  EXPECT_EQ(cold.summary.inapplicable, 1u);
  // Both statuses are cacheable (inapplicability is deterministic); the
  // warm run serves them without recomputing.
  const SweepRun warm = SweepEngine(options).run(scenarios);
  EXPECT_EQ(warm.summary.cache_hits, 2u);
  EXPECT_EQ(warm.summary.computed, 0u);
  EXPECT_EQ(warm.outcomes[1].status, ScenarioStatus::kInapplicable);
  fs::remove_all(dir);
}

TEST(SweepEngine, CacheRejectsExploredAndTracedRuns) {
  // The cache key closes over neither the explore spec nor tracing, and a
  // payload carries no trace, so neither combination may use the cache.
  SweepOptions explored = serial_options();
  explored.use_cache = true;
  explored.explore.mode = rt::ExploreMode::kRandom;
  EXPECT_THROW(SweepEngine{explored}, InvalidArgument);

  SweepOptions traced = serial_options();
  traced.use_cache = true;
  traced.record_trace = true;
  EXPECT_THROW(SweepEngine{traced}, InvalidArgument);

  // Without the cache a traced run keeps its trace as run metadata only.
  traced.use_cache = false;
  const Scenario scenario = small_scenario(apps::PaperApp::kNbody,
                                           analyzer::StrategyKind::kDPPerf);
  const ScenarioOutcome outcome = SweepEngine(traced).compute(scenario);
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  EXPECT_FALSE(outcome.trace_json.empty());
  EXPECT_EQ(json::Value::parse(outcome.to_payload()).find("trace"), nullptr);
  EXPECT_EQ(outcome.to_payload(),
            SweepEngine(serial_options()).compute(scenario).to_payload());
}

TEST(ComputeRankings, OrdersWithinGroupAndPicksWinner) {
  const std::vector<Scenario> scenarios = enumerate_matrix(
      {apps::PaperApp::kMatrixMul}, analyzer::paper_strategies(),
      {"reference"}, {false}, /*small=*/true);
  const SweepRun run = SweepEngine(serial_options()).run(scenarios);
  const auto rankings = compute_rankings(run.outcomes);
  ASSERT_EQ(rankings.size(), 1u);
  const GroupRanking& ranking = rankings[0];
  EXPECT_EQ(ranking.group, "matrixmul@reference+small");
  ASSERT_FALSE(ranking.order.empty());
  for (std::size_t i = 1; i < ranking.order.size(); ++i)
    EXPECT_LE(ranking.order[i - 1].second, ranking.order[i].second);
  // The winner is the best non-baseline strategy.
  EXPECT_NE(ranking.winner, analyzer::StrategyKind::kOnlyCpu);
  EXPECT_NE(ranking.winner, analyzer::StrategyKind::kOnlyGpu);
}

TEST(SweepToJson, ProducesParsableDocument) {
  const std::vector<Scenario> scenarios = {
      small_scenario(apps::PaperApp::kMatrixMul,
                     analyzer::StrategyKind::kSPSingle),
      small_scenario(apps::PaperApp::kMatrixMul,
                     analyzer::StrategyKind::kOnlyCpu),
      small_scenario(apps::PaperApp::kStreamSeq,
                     analyzer::StrategyKind::kSPSingle),  // inapplicable
  };
  const SweepRun run = SweepEngine(serial_options()).run(scenarios);
  const json::Value document = json::Value::parse(sweep_to_json(run));
  EXPECT_EQ(document.at("summary").at("scenarios").as_int64(), 3);
  ASSERT_EQ(document.at("scenarios").as_array().size(), 3u);
  const json::Value& ok_entry = document.at("scenarios").as_array()[0];
  EXPECT_EQ(ok_entry.at("status").as_string(), "ok");
  EXPECT_TRUE(ok_entry.at("report").is_object());
  const json::Value& bad_entry = document.at("scenarios").as_array()[2];
  EXPECT_EQ(bad_entry.at("status").as_string(), "inapplicable");
  EXPECT_FALSE(bad_entry.at("error").as_string().empty());
  ASSERT_EQ(document.at("rankings").as_array().size(), 1u);
  EXPECT_EQ(document.at("rankings").as_array()[0].at("group").as_string(),
            "matrixmul@reference+small");
}

}  // namespace
}  // namespace hetsched::sweep
