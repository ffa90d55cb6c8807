#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "apps/registry.hpp"
#include "common/time.hpp"
#include "faults/fault_plan.hpp"
#include "hw/platform.hpp"
#include "obs/phase_profiler.hpp"
#include "runtime/report.hpp"
#include "strategies/strategy_runner.hpp"

/// The soundness argument behind executing a fault-free twin's plan:
/// plan() never sees the fault plan or the explore spec, so the twin's plan
/// is the one a faulted run would have profiled for itself, and executing
/// it yields the same report bytes.
namespace hetsched::strategies {
namespace {

using analyzer::StrategyKind;
using apps::PaperApp;

/// Every strategy whose plan() profiles, on an application it applies to.
struct Planned {
  PaperApp app;
  StrategyKind kind;
};
constexpr Planned kPlanned[] = {
    {PaperApp::kMatrixMul, StrategyKind::kSPSingle},
    {PaperApp::kStreamSeq, StrategyKind::kSPUnified},
    {PaperApp::kStreamSeq, StrategyKind::kSPVaried},
    {PaperApp::kStreamLoop, StrategyKind::kSPDag},
    {PaperApp::kBlackScholes, StrategyKind::kDPPerf},
};

/// Two-, three- and four-device platforms.
const char* const kPlatforms[] = {"reference", "dual-gpu", "quad"};

std::unique_ptr<apps::Application> make_app(PaperApp app,
                                            const hw::PlatformSpec& platform) {
  return apps::make_paper_app(app, platform, apps::test_config(app));
}

std::string label(const Planned& planned, const std::string& platform) {
  return std::string(analyzer::strategy_name(planned.kind)) + " " +
         apps::paper_app_name(planned.app) + "@" + platform;
}

TEST(StrategyPlan, TwinPlanExecutesLikeASelfProfilingFaultedRun) {
  std::int64_t faults_injected = 0;
  for (const char* platform_name : kPlatforms) {
    const hw::PlatformSpec platform = hw::platform_by_name(platform_name);
    for (const Planned& planned : kPlanned) {
      auto twin_app = make_app(planned.app, platform);
      StrategyRunner twin(*twin_app);
      const StrategyPlan plan = twin.plan(planned.kind);
      ASSERT_FALSE(plan.decisions.empty() && plan.rates.empty())
          << label(planned, platform_name);
      const SimTime horizon =
          std::max<SimTime>(1, twin.execute(plan).report.makespan);
      for (const char* fault : {"storm", "storm-all", "gpu-failure"}) {
        StrategyOptions options;
        options.fault_plan = faults::make_named_plan(
            fault, horizon, /*seed=*/11, platform.device_count());

        auto shared_app = make_app(planned.app, platform);
        const StrategyResult shared =
            StrategyRunner(*shared_app, options).execute(plan);
        auto self_app = make_app(planned.app, platform);
        const StrategyResult self =
            StrategyRunner(*self_app, options).run(planned.kind);

        EXPECT_EQ(
            rt::report_to_json(shared.report, shared_app->executor().kernels()),
            rt::report_to_json(self.report, self_app->executor().kernels()))
            << label(planned, platform_name) << " under " << fault;
        faults_injected += self.report.faults.injected_faults;
      }
    }
  }
  // The comparison means nothing if no fault ever reached a measured run.
  EXPECT_GT(faults_injected, 0);
}

TEST(StrategyPlan, PlanIgnoresTheFaultPlanAndTheExploreSpec) {
  for (const char* platform_name : kPlatforms) {
    const hw::PlatformSpec platform = hw::platform_by_name(platform_name);
    for (const Planned& planned : kPlanned) {
      auto healthy_app = make_app(planned.app, platform);
      const StrategyPlan healthy =
          StrategyRunner(*healthy_app).plan(planned.kind);

      StrategyOptions armed;
      armed.fault_plan = faults::make_named_plan(
          "storm-all", 5 * kMillisecond, /*seed=*/3, platform.device_count());
      armed.explore.mode = rt::ExploreMode::kRandom;
      armed.explore.seed = 9;
      auto armed_app = make_app(planned.app, platform);
      StrategyRunner runner(*armed_app, armed);
      EXPECT_TRUE(runner.plan(planned.kind) == healthy)
          << label(planned, platform_name);
      // A faulted, explored measured run leaves nothing armed behind.
      (void)runner.run(planned.kind);
      EXPECT_TRUE(runner.plan(planned.kind) == healthy)
          << label(planned, platform_name) << " after a measured run";
    }
  }
}

TEST(StrategyPlan, PlansOnlyWhatTheStrategyDecides) {
  const hw::PlatformSpec platform = hw::make_reference_platform();
  auto stream = make_app(PaperApp::kStreamSeq, platform);
  StrategyRunner runner(*stream);
  for (StrategyKind kind : {StrategyKind::kOnlyCpu, StrategyKind::kOnlyGpu,
                            StrategyKind::kDPDep}) {
    StrategyPlan nothing;
    nothing.kind = kind;
    EXPECT_TRUE(runner.plan(kind) == nothing) << analyzer::strategy_name(kind);
  }
  EXPECT_EQ(runner.plan(StrategyKind::kSPVaried).decisions.size(), 4u);
  EXPECT_TRUE(runner.plan(StrategyKind::kDPPerf).decisions.empty());
  EXPECT_FALSE(runner.plan(StrategyKind::kDPPerf).rates.empty());
}

std::int64_t event_loop_calls() {
  const auto stages = obs::phase_profiler().snapshot();
  const auto it = stages.find(std::string(obs::kPhaseSimEventLoop));
  return it == stages.end() ? 0 : it->second.calls;
}

// Every profiling execution is one event loop. Glinda fits each device's
// compute, traffic and link from its own two samples, and the rate probes
// run one instance per (kernel, device): repeating either replays the same
// virtual time.
TEST(StrategyPlan, PlanningExecutesEachSampleOnce) {
  struct Expected {
    PaperApp app;
    StrategyKind kind;
    std::int64_t per_device;  ///< event loops per device (per kernel if set)
    bool per_kernel;
  };
  const Expected cases[] = {
      {PaperApp::kMatrixMul, StrategyKind::kSPSingle, 2, false},
      {PaperApp::kStreamSeq, StrategyKind::kSPUnified, 2, false},
      {PaperApp::kStreamSeq, StrategyKind::kSPVaried, 2, true},
      {PaperApp::kMatrixMul, StrategyKind::kDPPerf, 1, true},
      {PaperApp::kStreamSeq, StrategyKind::kDPPerf, 1, true},
      {PaperApp::kStreamLoop, StrategyKind::kSPDag, 1, true},
  };
  for (const char* platform_name : {"reference", "quad"}) {
    const hw::PlatformSpec platform = hw::platform_by_name(platform_name);
    for (const Expected& expected : cases) {
      auto app = make_app(expected.app, platform);
      const auto kernels = static_cast<std::int64_t>(app->kernels().size());
      const std::int64_t executions =
          expected.per_device *
          static_cast<std::int64_t>(platform.device_count()) *
          (expected.per_kernel ? kernels : 1);
      const StrategyRunner runner(*app);
      const std::int64_t before = event_loop_calls();
      (void)runner.plan(expected.kind);
      EXPECT_EQ(event_loop_calls() - before, executions)
          << label({expected.app, expected.kind}, platform_name);
    }
  }
}

TEST(StrategyPlan, ExecuteRejectsAPlanForAnotherApplication) {
  const hw::PlatformSpec platform = hw::make_reference_platform();
  auto matrixmul = make_app(PaperApp::kMatrixMul, platform);
  const StrategyPlan single =
      StrategyRunner(*matrixmul).plan(StrategyKind::kSPSingle);
  auto stream = make_app(PaperApp::kStreamSeq, platform);
  EXPECT_THROW(StrategyRunner(*stream).execute(single), InvalidArgument);

  auto quad_app = make_app(PaperApp::kMatrixMul, hw::make_quad_platform());
  EXPECT_THROW(StrategyRunner(*quad_app).execute(single), InvalidArgument);
}

}  // namespace
}  // namespace hetsched::strategies
