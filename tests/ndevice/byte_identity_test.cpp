#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "apps/tree_reduction.hpp"
#include "apps/triangular.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "faults/fault_plan.hpp"
#include "glinda/multi_device.hpp"
#include "hw/platform.hpp"
#include "runtime/report.hpp"
#include "strategies/strategy_runner.hpp"
#include "sweep/scenario.hpp"
#include "sweep/sweep.hpp"

/// The load-bearing invariant of the N-device widening: every two-device
/// (CPU + one accelerator) result is byte-identical to what the scalar-β
/// path produced before the widening. Enforced at every layer the widening
/// touched — the partition solver (bitwise delegation), the strategy runner
/// (literal digests of two-device SP reports), the sweep payloads, the
/// seeded "storm" plan (frozen at device_count=2 so cache keys survive),
/// and the cache key of a reference-platform scenario (pinned to its
/// literal digest).
namespace hetsched {
namespace {

glinda::MultiDeviceEstimate draw_pair_estimate(Rng& rng) {
  glinda::MultiDeviceEstimate estimate;
  estimate.link_bytes_per_second = rng.uniform(1e9, 2e10);
  estimate.transfer_on_critical_path = rng.uniform() < 0.5;
  glinda::DeviceProfile cpu;
  cpu.seconds_per_item = rng.uniform(1e-7, 2e-6);
  cpu.fixed_seconds = rng.uniform(0.0, 1e-4);
  estimate.devices.push_back(cpu);
  glinda::DeviceProfile acc;
  acc.seconds_per_item = rng.uniform(1e-8, 1e-6);
  acc.h2d_bytes_per_item = rng.uniform(0.0, 16.0);
  acc.d2h_bytes_per_item = rng.uniform(0.0, 16.0);
  acc.fixed_seconds = rng.uniform(0.0, 1e-3);
  estimate.devices.push_back(acc);
  return estimate;
}

TEST(NDeviceByteIdentity, TwoDeviceSolveDelegatesToScalarBitwise) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    const glinda::MultiDeviceEstimate estimate = draw_pair_estimate(rng);
    const std::int64_t n = rng.uniform_int(1, 4'000'000);
    const glinda::MultiPartitionDecision multi =
        glinda::solve_multi_partition(estimate, n);
    const glinda::PartitionDecision scalar = glinda::PartitionModel().solve(
        glinda::to_kernel_estimate(estimate), n);

    ASSERT_EQ(multi.items_per_device.size(), 2u) << "seed " << seed;
    EXPECT_EQ(multi.items_per_device[0], scalar.cpu_items) << "seed " << seed;
    EXPECT_EQ(multi.items_per_device[1], scalar.gpu_items) << "seed " << seed;
    double expected = scalar.predicted_partition_seconds;
    if (scalar.config == glinda::HardwareConfig::kOnlyCpu)
      expected = scalar.predicted_cpu_seconds;
    if (scalar.config == glinda::HardwareConfig::kOnlyGpu)
      expected = scalar.predicted_gpu_seconds;
    // Exactly equal — the delegation reuses the scalar solver, it does not
    // re-derive the same answer numerically.
    EXPECT_EQ(multi.predicted_seconds, expected) << "seed " << seed;
    EXPECT_EQ(multi.beta, scalar.beta) << "seed " << seed;
    EXPECT_EQ(multi.config(), scalar.config) << "seed " << seed;
  }
}

/// FNV-1a digest of one strategy run's full JSON report.
std::uint64_t report_digest(apps::Application& app,
                            analyzer::StrategyKind kind) {
  strategies::StrategyRunner runner(app);
  const strategies::StrategyResult result = runner.run(kind);
  return sweep::fnv1a64(
      rt::report_to_json(result.report, app.executor().kernels()));
}

std::unique_ptr<apps::Application> paper_app(apps::PaperApp app,
                                             const hw::PlatformSpec& platform) {
  return apps::make_paper_app(app, platform, apps::test_config(app));
}

TEST(NDeviceByteIdentity, TwoDeviceStrategyReportsArePinned) {
  // Literal digests of two-device SP reports, recorded before the SP
  // strategies were folded onto the N-device solve. Every SP flavour is
  // covered, plus the weighted solve (triangular-mv) and SP-Varied's
  // narrow-kernel Only-CPU branch (tree-reduction's 1-item pass).
  using analyzer::StrategyKind;
  using apps::PaperApp;
  const hw::PlatformSpec reference = hw::make_reference_platform();

  apps::Application::Config triangular;
  triangular.items = 16'384;
  triangular.iterations = 1;
  triangular.functional = false;
  apps::Application::Config tree;
  tree.items = 100'000;
  tree.iterations = 1;
  tree.functional = true;

  struct Pin {
    const char* label;
    std::unique_ptr<apps::Application> app;
    StrategyKind kind;
    std::uint64_t digest;
  };
  Pin pins[] = {
      {"SP-Single matrixmul@reference",
       paper_app(PaperApp::kMatrixMul, reference), StrategyKind::kSPSingle,
       0x9d32fa8b8ddd0569ULL},
      {"SP-Single triangular-mv@reference",
       std::make_unique<apps::TriangularMvApp>(reference, triangular),
       StrategyKind::kSPSingle, 0x0fef47c4d1287736ULL},
      {"SP-Single blackscholes@small-gpu",
       paper_app(PaperApp::kBlackScholes, hw::make_small_gpu_platform()),
       StrategyKind::kSPSingle, 0x9999360f27f6e2fdULL},
      {"SP-Single nbody@big-little",
       paper_app(PaperApp::kNbody, hw::make_big_little_platform()),
       StrategyKind::kSPSingle, 0xf30f6fe0b1589a88ULL},
      {"SP-Unified stream-seq@reference",
       paper_app(PaperApp::kStreamSeq, reference), StrategyKind::kSPUnified,
       0x8f5345add7072f38ULL},
      {"SP-Unified stream-loop@reference",
       paper_app(PaperApp::kStreamLoop, reference), StrategyKind::kSPUnified,
       0x01bdef309e93df63ULL},
      {"SP-Varied stream-seq@reference",
       paper_app(PaperApp::kStreamSeq, reference), StrategyKind::kSPVaried,
       0xfa063afbba65547eULL},
      {"SP-Varied tree-reduction@reference",
       std::make_unique<apps::TreeReductionApp>(reference, tree),
       StrategyKind::kSPVaried, 0xf59aced45272bd91ULL},
  };
  for (Pin& pin : pins) {
    ASSERT_EQ(pin.app->executor().platform().device_count(), 2u) << pin.label;
    const std::uint64_t digest = report_digest(*pin.app, pin.kind);
    EXPECT_EQ(digest, pin.digest)
        << pin.label << ": 0x" << std::hex << digest << "ULL";
  }
}

TEST(NDeviceByteIdentity, ReferencePayloadBytesAreReproducible) {
  sweep::Scenario healthy;
  healthy.small = true;
  sweep::Scenario faulted;
  faulted.strategy = analyzer::StrategyKind::kDPPerf;
  faulted.small = true;
  faulted.fault_plan = "storm";
  faulted.fault_seed = 7;
  const std::vector<sweep::Scenario> scenarios = {healthy, faulted};

  sweep::SweepOptions options;
  options.parallel = false;
  options.use_cache = false;
  const sweep::SweepRun first = sweep::SweepEngine(options).run(scenarios);
  const sweep::SweepRun second = sweep::SweepEngine(options).run(scenarios);
  ASSERT_EQ(first.outcomes.size(), second.outcomes.size());
  for (std::size_t i = 0; i < first.outcomes.size(); ++i) {
    ASSERT_TRUE(first.outcomes[i].ok());
    EXPECT_EQ(first.outcomes[i].to_payload(),
              second.outcomes[i].to_payload());
  }
}

TEST(NDeviceByteIdentity, StormPlanStaysFrozenAtTwoDevices) {
  // "storm" predates the widening and participates in cache keys: passing a
  // wider platform's device count must not change a single byte of it.
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1},
                                   std::uint64_t{42}, std::uint64_t{9999}}) {
    const faults::FaultPlan narrow =
        faults::make_named_plan("storm", 5 * kMillisecond, seed, 2);
    const faults::FaultPlan wide =
        faults::make_named_plan("storm", 5 * kMillisecond, seed, 6);
    EXPECT_EQ(narrow.canonical_key(), wide.canonical_key()) << "seed " << seed;
  }
}

TEST(NDeviceByteIdentity, StormAllActuallyTargetsTheWiderPlatform) {
  // Sanity for the new family: across a handful of seeds at device_count=4
  // some event must land beyond device 1, or "storm-all" is storm renamed.
  bool beyond_first = false;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const faults::FaultPlan plan =
        faults::make_named_plan("storm-all", 5 * kMillisecond, seed, 4);
    for (const faults::FaultEvent& event : plan.events) {
      EXPECT_GE(event.device, 1u);
      EXPECT_LE(event.device, 3u);
      beyond_first = beyond_first || event.device > 1;
    }
  }
  EXPECT_TRUE(beyond_first);
}

TEST(NDeviceByteIdentity, ReferenceScenarioCacheKeyIsPinned) {
  // The literal digest of the default scenario's cache key, recorded when
  // the N-device support landed. If this changes, every previously cached
  // two-device result silently misses — bump kSweepCodeVersion instead of
  // editing the expectation unless that invalidation is intended.
  const sweep::Scenario scenario;
  EXPECT_EQ(sweep::scenario_hash(scenario), "5024456968cbf9b8");
}

}  // namespace
}  // namespace hetsched
