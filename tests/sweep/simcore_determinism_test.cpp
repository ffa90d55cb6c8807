#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "check/engine.hpp"
#include "check/gen.hpp"
#include "common/json.hpp"
#include "hw/platform.hpp"
#include "strategies/strategy_runner.hpp"
#include "sweep/bench.hpp"
#include "sweep/sweep.hpp"

/// Simcore determinism suite (ctest -L simcore): the event-core rewrite
/// (indexed heap, arena allocation, struct-of-arrays executor state) is a
/// pure performance change. These tests pin that claim against the fuzz
/// corpus — the exact seeds the oracles run in CI — by asserting repeated
/// runs yield byte-identical payloads and traces, and check the bench JSON
/// contract: parseable, finite numbers only, byte-stable round trip.
namespace hetsched::sweep {
namespace {

std::vector<std::uint64_t> corpus_seeds() {
  std::ifstream in(HS_SIMCORE_CORPUS);
  if (!in) ADD_FAILURE() << "cannot open corpus " << HS_SIMCORE_CORPUS;
  std::ostringstream text;
  text << in.rdbuf();
  return check::parse_corpus(text.str());
}

TEST(SimcoreDeterminism, CorpusScenariosReplayByteIdentically) {
  // Two independent engines, traces recorded, over the corpus scenarios:
  // every payload (report + metrics + decisions) and every trace must come
  // back byte for byte. Cap the seed count to keep the suite CI-sized; the
  // full corpus runs under ctest -L fuzz.
  std::vector<std::uint64_t> seeds = corpus_seeds();
  ASSERT_FALSE(seeds.empty());
  if (seeds.size() > 8) seeds.resize(8);

  std::vector<Scenario> grid;
  grid.reserve(seeds.size());
  for (const std::uint64_t seed : seeds)
    grid.push_back(check::generate_case(seed).scenario);

  SweepOptions options;
  options.parallel = false;
  options.use_cache = false;
  options.record_trace = true;
  const SweepRun a = SweepEngine(options).run(grid);
  const SweepRun b = SweepEngine(options).run(grid);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].to_payload(), b.outcomes[i].to_payload())
        << "seed " << seeds[i];
    EXPECT_EQ(a.outcomes[i].trace_json, b.outcomes[i].trace_json)
        << "seed " << seeds[i];
  }
}

TEST(SimcoreDeterminism, ParallelSweepMatchesSerialBitForBit) {
  // The worker count is a dispatch-shape knob only: outcomes AND the twin
  // memo counters must be identical for every pool size. Faulted seeds of
  // one plan make the twin sharing observable (S seeds -> 1 baseline
  // compute), and racing workers contend for that one twin's flight.
  std::vector<Scenario> grid;
  for (int seed = 1; seed <= 6; ++seed) {
    Scenario scenario;
    scenario.app = apps::PaperApp::kMatrixMul;
    scenario.strategy = analyzer::StrategyKind::kDPPerf;
    scenario.small = true;
    scenario.fault_plan = "storm";
    scenario.fault_seed = static_cast<std::uint64_t>(seed);
    grid.push_back(scenario);
  }

  SweepOptions serial;
  serial.parallel = false;
  serial.use_cache = false;
  const SweepRun reference = SweepEngine(serial).run(grid);

  for (const unsigned jobs : {1u, 3u, 8u}) {
    SweepOptions parallel;
    parallel.parallel = true;
    parallel.jobs = jobs;
    parallel.use_cache = false;
    const SweepRun run = SweepEngine(parallel).run(grid);
    ASSERT_EQ(run.outcomes.size(), reference.outcomes.size()) << jobs;
    for (std::size_t i = 0; i < run.outcomes.size(); ++i) {
      EXPECT_EQ(run.outcomes[i].to_payload(),
                reference.outcomes[i].to_payload())
          << "jobs " << jobs << " scenario " << i;
    }
    EXPECT_EQ(run.summary.twin_computes, reference.summary.twin_computes)
        << jobs;
    EXPECT_EQ(run.summary.twin_memo_hits, reference.summary.twin_memo_hits)
        << jobs;
    EXPECT_EQ(run.summary.computed, reference.summary.computed) << jobs;
  }
}

TEST(SimcoreDeterminism, ArenaReuseAcrossRunsIsInvisible) {
  // The executor resets its run arena at the start of every execution; a
  // stale-state bug would show up as run-to-run drift. Repeated runs on one
  // warmed runner (the sim_core bench pattern) must agree exactly.
  const hw::PlatformSpec platform = hw::platform_by_name("reference");
  apps::Application::Config config =
      apps::test_config(apps::PaperApp::kMatrixMul);
  const std::unique_ptr<apps::Application> application =
      apps::make_paper_app(apps::PaperApp::kMatrixMul, platform, config);
  strategies::StrategyRunner runner(*application, {});

  const strategies::StrategyResult first =
      runner.run(analyzer::StrategyKind::kDPPerf);
  for (int rep = 0; rep < 3; ++rep) {
    const strategies::StrategyResult again =
        runner.run(analyzer::StrategyKind::kDPPerf);
    EXPECT_EQ(again.report.sim_events, first.report.sim_events) << rep;
    EXPECT_EQ(again.report.makespan_ms(), first.report.makespan_ms()) << rep;
    EXPECT_EQ(again.gpu_fraction_overall, first.gpu_fraction_overall) << rep;
  }
}

/// Recursively asserts every number in the document is finite. The writer
/// (json::format_double) throws on NaN/inf, so a non-finite value can only
/// appear through a bug upstream of serialization — this walks the parsed
/// document to prove none slipped through as null-dodging garbage.
void assert_numbers_finite(const json::Value& value, const std::string& path) {
  if (value.is_number()) {
    const double number = value.as_number();
    EXPECT_TRUE(std::isfinite(number)) << path << " = " << number;
  } else if (value.is_array()) {
    int index = 0;
    for (const json::Value& element : value.as_array())
      assert_numbers_finite(element, path + "[" + std::to_string(index++) +
                                         "]");
  } else if (value.is_object()) {
    for (const auto& [key, member] : value.as_object())
      assert_numbers_finite(member, path + "." + key);
  }
}

TEST(SimcoreBenchContract, JsonParsesWithFiniteNumbersAndStableBytes) {
  BenchOptions options;
  options.small = true;
  options.parallel = false;
  options.fault_seeds = 2;
  options.sim_core_reps = 2;
  options.cache_dir = ".hs-simcore-test-cache";
  const BenchResult result = run_bench(options);
  const std::string text = bench_to_json(result);

  const json::Value document = json::Value::parse(text);
  assert_numbers_finite(document, "$");

  // parse -> dump is byte-stable: downstream tooling can normalize through
  // the same document model without diffs.
  EXPECT_EQ(json::Value::parse(document.dump()).dump(), document.dump());

  // The phases the CLI and BENCH_sweep.json promise, in order.
  const json::Value& phases = document.at("phases");
  ASSERT_TRUE(phases.is_array());
  ASSERT_GE(phases.as_array().size(), 4u);
  EXPECT_EQ(phases.as_array()[0].at("name").as_string(), "sim_core");
  EXPECT_EQ(phases.as_array()[1].at("name").as_string(), "cold_cache");
  EXPECT_EQ(phases.as_array()[2].at("name").as_string(), "warm_cache");
  EXPECT_EQ(phases.as_array()[3].at("name").as_string(),
            "faulted_shared_twins");
  // sim_core actually simulated something.
  EXPECT_GT(phases.as_array()[0].at("sim_events").as_int64(), 0);
}

}  // namespace
}  // namespace hetsched::sweep
