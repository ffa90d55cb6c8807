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
#include "hw/platform.hpp"
#include "strategies/strategy_runner.hpp"
#include "sweep/sweep.hpp"

/// Simcore determinism suite (ctest -L simcore): the event-core rewrite
/// (indexed heap, arena allocation, struct-of-arrays executor state) is a
/// pure performance change. These tests pin that claim against the fuzz
/// corpus — the exact seeds the oracles run in CI — by asserting repeated
/// runs yield byte-identical payloads and traces.
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
  // warmed runner must agree exactly.
  const hw::PlatformSpec platform = hw::platform_by_name("reference");
  apps::Application::Config config =
      apps::test_config(apps::PaperApp::kMatrixMul);
  const std::unique_ptr<apps::Application> application =
      apps::make_paper_app(apps::PaperApp::kMatrixMul, platform, config);
  strategies::StrategyRunner runner(*application, {});

  const strategies::StrategyResult first =
      runner.run(analyzer::StrategyKind::kDPPerf);
  EXPECT_GT(first.report.sim_events, 0u);
  for (int rep = 0; rep < 3; ++rep) {
    const strategies::StrategyResult again =
        runner.run(analyzer::StrategyKind::kDPPerf);
    EXPECT_EQ(again.report.sim_events, first.report.sim_events) << rep;
    EXPECT_EQ(again.report.makespan_ms(), first.report.makespan_ms()) << rep;
    EXPECT_EQ(again.gpu_fraction_overall, first.gpu_fraction_overall) << rep;
  }
}

}  // namespace
}  // namespace hetsched::sweep
