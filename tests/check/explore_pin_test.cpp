#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "runtime/explore.hpp"
#include "sweep/sweep.hpp"

/// Literal digests of explored execution reports. ExploreDeterminism only
/// compares a run with itself; these pins hold every explored decision
/// site — the ready-queue pick in the dispatcher, equal-timestamp event
/// order and fault-detection latency — to the bytes recorded before a
/// change to the executor: the dynamic strategies at m = 24 on a two-device
/// and a four-device platform, under two random schedules and one fair
/// one, healthy and under a seeded storm, for three small paper apps.
namespace hetsched::check {
namespace {

using analyzer::StrategyKind;
using apps::PaperApp;

struct Pin {
  StrategyKind strategy;
  PaperApp app;
  const char* platform;
  std::uint64_t digest;
};

rt::ExploreSpec spec_of(rt::ExploreMode mode, std::uint64_t seed,
                        int schedule) {
  rt::ExploreSpec spec;
  spec.mode = mode;
  spec.seed = seed;
  spec.schedule = schedule;
  return spec;
}

/// FNV-1a over the newline-joined `rt::report_to_json` of one (strategy,
/// app, platform) group's six explored runs; adds the decisions they
/// recorded to `decisions`.
std::uint64_t group_digest(const Pin& pin, std::size_t& decisions) {
  const std::vector<rt::ExploreSpec> specs = {
      spec_of(rt::ExploreMode::kRandom, 1, 0),
      spec_of(rt::ExploreMode::kRandom, 2, 0),
      spec_of(rt::ExploreMode::kFair, 1, 1),
  };
  std::string bytes;
  for (const rt::ExploreSpec& spec : specs) {
    sweep::SweepOptions options;
    options.parallel = false;
    options.use_cache = false;
    options.explore = spec;
    const sweep::SweepEngine engine(options);
    for (const bool storm : {false, true}) {
      sweep::Scenario scenario;
      scenario.app = pin.app;
      scenario.strategy = pin.strategy;
      scenario.platform = pin.platform;
      scenario.small = true;
      scenario.task_count = 24;
      if (storm) {
        scenario.fault_plan = "storm";
        scenario.fault_seed = 3;
      }
      const sweep::ScenarioOutcome outcome = engine.compute(scenario);
      EXPECT_TRUE(outcome.ok())
          << outcome.scenario.label() << ": " << outcome.error;
      bytes += outcome.report_json;
      bytes += '\n';
      if (!outcome.ok()) continue;
      decisions += json::Value::parse(outcome.report_json)
                       .at("schedule")
                       .at("decisions")
                       .as_array()
                       .size();
    }
  }
  return fnv1a64(bytes);
}

TEST(ExplorePins, ExploredReportsArePinned) {
  const std::vector<Pin> pins = {
      {StrategyKind::kDPDep, PaperApp::kMatrixMul, "reference",
       0xdbfaf1d1e90d6a29ULL},
      {StrategyKind::kDPDep, PaperApp::kMatrixMul, "quad",
       0x99d8e135c7f803a5ULL},
      {StrategyKind::kDPDep, PaperApp::kStreamLoop, "reference",
       0xf1b4bcee04f8b197ULL},
      {StrategyKind::kDPDep, PaperApp::kStreamLoop, "quad",
       0xe562799ab9bb1621ULL},
      {StrategyKind::kDPDep, PaperApp::kHotSpot, "reference",
       0x96d55970d1d51eb2ULL},
      {StrategyKind::kDPDep, PaperApp::kHotSpot, "quad",
       0xd6f1b1b1fe466145ULL},
      {StrategyKind::kDPPerf, PaperApp::kMatrixMul, "reference",
       0x73e2c49637f746f7ULL},
      {StrategyKind::kDPPerf, PaperApp::kMatrixMul, "quad",
       0x0f116daedad4a087ULL},
      {StrategyKind::kDPPerf, PaperApp::kStreamLoop, "reference",
       0xdff6611dc0d5518bULL},
      {StrategyKind::kDPPerf, PaperApp::kStreamLoop, "quad",
       0xe70de61049ebd977ULL},
      {StrategyKind::kDPPerf, PaperApp::kHotSpot, "reference",
       0xf6c9a3d8e7d7e2fbULL},
      {StrategyKind::kDPPerf, PaperApp::kHotSpot, "quad",
       0x5d0733474d9c37b7ULL},
  };
  std::size_t decisions = 0;
  for (const Pin& pin : pins) {
    const std::uint64_t digest = group_digest(pin, decisions);
    EXPECT_EQ(digest, pin.digest)
        << analyzer::strategy_name(pin.strategy) << " "
        << apps::paper_app_name(pin.app) << "@" << pin.platform << ": 0x"
        << std::hex << digest << "ULL";
  }
  // Some small groups never reach a decision site (no queue ever holds two
  // chunks, no two events tie); the set as a whole must, or it would pin
  // nothing explored.
  EXPECT_GT(decisions, 0u);
}

}  // namespace
}  // namespace hetsched::check
