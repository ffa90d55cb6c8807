#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sweep/sweep.hpp"

/// Literal digests of faulted sweep payloads. A faulted scenario's bytes
/// close over its fault-free twin (horizon and degradation denominator) and
/// over its own profiling, so these pins hold every layer between the
/// strategy runner and the payload to the bytes recorded before a change:
/// five strategies x three platforms x both seeded storm families x two
/// seeds, at the small functional size and at paper size.
namespace hetsched::sweep {
namespace {

using analyzer::StrategyKind;
using apps::PaperApp;

struct Pin {
  StrategyKind strategy;
  PaperApp app;
  const char* platform;
  std::uint64_t digest;
};

/// FNV-1a over the newline-joined payloads of one (strategy, app,
/// platform) group's faulted scenarios, swept through the run memo; each
/// payload must also equal the memo-free compute() of its scenario.
std::uint64_t group_digest(const Pin& pin, bool small) {
  std::vector<Scenario> scenarios;
  for (const char* plan : {"storm", "storm-all"}) {
    for (const std::uint64_t seed : {std::uint64_t{5}, std::uint64_t{31}}) {
      Scenario scenario;
      scenario.app = pin.app;
      scenario.strategy = pin.strategy;
      scenario.platform = pin.platform;
      scenario.small = small;
      scenario.fault_plan = plan;
      scenario.fault_seed = seed;
      scenarios.push_back(scenario);
    }
  }
  SweepOptions options;
  options.parallel = false;
  options.use_cache = false;
  const SweepEngine engine(options);
  const SweepRun run = engine.run(scenarios);
  std::string bytes;
  std::int64_t faults_injected = 0;
  for (const ScenarioOutcome& outcome : run.outcomes) {
    EXPECT_TRUE(outcome.ok())
        << outcome.scenario.label() << ": " << outcome.error;
    const std::string payload = outcome.to_payload();
    EXPECT_EQ(payload, engine.compute(outcome.scenario).to_payload())
        << outcome.scenario.label();
    faults_injected += outcome.metrics.faults_injected;
    bytes += payload;
    bytes += '\n';
  }
  // A group no fault reaches would pin nothing about the faulted path.
  EXPECT_GT(faults_injected, 0) << scenarios.front().label();
  return fnv1a64(bytes);
}

void expect_pinned(const std::vector<Pin>& pins, bool small) {
  for (const Pin& pin : pins) {
    const std::uint64_t digest = group_digest(pin, small);
    EXPECT_EQ(digest, pin.digest)
        << analyzer::strategy_name(pin.strategy) << " "
        << apps::paper_app_name(pin.app) << "@" << pin.platform << ": 0x"
        << std::hex << digest << "ULL";
  }
}

TEST(FaultedSweepPins, SmallPayloadsArePinned) {
  expect_pinned(
      {
          {StrategyKind::kSPSingle, PaperApp::kMatrixMul, "reference",
           0xfe3c7976401f9b45ULL},
          {StrategyKind::kSPSingle, PaperApp::kMatrixMul, "dual-gpu",
           0x568ec3e4d2c186a7ULL},
          {StrategyKind::kSPSingle, PaperApp::kMatrixMul, "quad",
           0x802e8ef534ff7681ULL},
          {StrategyKind::kSPUnified, PaperApp::kStreamLoop, "reference",
           0xe683dba51fd13bf5ULL},
          {StrategyKind::kSPUnified, PaperApp::kStreamLoop, "dual-gpu",
           0x13cd385656b484c5ULL},
          {StrategyKind::kSPUnified, PaperApp::kStreamLoop, "quad",
           0x7feb6353da2eca4bULL},
          {StrategyKind::kSPVaried, PaperApp::kStreamSeq, "reference",
           0x2cf8e4be990d1823ULL},
          {StrategyKind::kSPVaried, PaperApp::kStreamSeq, "dual-gpu",
           0xdc3ef6206d956b37ULL},
          {StrategyKind::kSPVaried, PaperApp::kStreamSeq, "quad",
           0x6432df9cd3513795ULL},
          {StrategyKind::kDPPerf, PaperApp::kHotSpot, "reference",
           0x7f47379448824419ULL},
          {StrategyKind::kDPPerf, PaperApp::kHotSpot, "dual-gpu",
           0x58d9692345222f25ULL},
          {StrategyKind::kDPPerf, PaperApp::kHotSpot, "quad",
           0x17f4d92caa3ce9efULL},
          {StrategyKind::kDPDep, PaperApp::kNbody, "reference",
           0xecbff63443839859ULL},
          {StrategyKind::kDPDep, PaperApp::kNbody, "dual-gpu",
           0xffa73edd78937722ULL},
          {StrategyKind::kDPDep, PaperApp::kNbody, "quad",
           0x939c4325831c29b5ULL},
      },
      /*small=*/true);
}

TEST(FaultedSweepPins, PaperPayloadsArePinned) {
  expect_pinned(
      {
          {StrategyKind::kSPSingle, PaperApp::kBlackScholes, "reference",
           0x57063ae461ea88d7ULL},
          {StrategyKind::kSPSingle, PaperApp::kBlackScholes, "dual-gpu",
           0xf72a1961c189c3bfULL},
          {StrategyKind::kSPSingle, PaperApp::kBlackScholes, "quad",
           0xfb1ce4b921fdd79eULL},
          {StrategyKind::kSPUnified, PaperApp::kStreamSeq, "reference",
           0x1239645b8b754c4eULL},
          {StrategyKind::kSPUnified, PaperApp::kStreamSeq, "dual-gpu",
           0x657a4cffaea242e8ULL},
          {StrategyKind::kSPUnified, PaperApp::kStreamSeq, "quad",
           0x9cfb2fab8429c1d0ULL},
          {StrategyKind::kSPVaried, PaperApp::kStreamLoop, "reference",
           0xf186497973b8c59fULL},
          {StrategyKind::kSPVaried, PaperApp::kStreamLoop, "dual-gpu",
           0xe93d07d785c92618ULL},
          {StrategyKind::kSPVaried, PaperApp::kStreamLoop, "quad",
           0x4f84ba151d12264bULL},
          {StrategyKind::kDPPerf, PaperApp::kMatrixMul, "reference",
           0xca08d921ae1607bfULL},
          {StrategyKind::kDPPerf, PaperApp::kMatrixMul, "dual-gpu",
           0x8cc7e551fd104be6ULL},
          {StrategyKind::kDPPerf, PaperApp::kMatrixMul, "quad",
           0x767050527384c230ULL},
          {StrategyKind::kDPDep, PaperApp::kStreamLoop, "reference",
           0x235b291e41fdb033ULL},
          {StrategyKind::kDPDep, PaperApp::kStreamLoop, "dual-gpu",
           0x15fbe014bf0435cbULL},
          {StrategyKind::kDPDep, PaperApp::kStreamLoop, "quad",
           0x0e6b30a3bf5cea69ULL},
      },
      /*small=*/false);
}

}  // namespace
}  // namespace hetsched::sweep
