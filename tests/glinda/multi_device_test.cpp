#include "glinda/multi_device.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "common/rng.hpp"
#include "obs/phase_profiler.hpp"

namespace hetsched::glinda {
namespace {

DeviceProfile profile(double seconds_per_item, double fixed = 0.0) {
  DeviceProfile p;
  p.seconds_per_item = seconds_per_item;
  p.fixed_seconds = fixed;
  return p;
}

MultiDeviceEstimate three_devices(double cpu, double acc1, double acc2) {
  MultiDeviceEstimate estimate;
  estimate.devices = {profile(cpu), profile(acc1), profile(acc2)};
  estimate.link_bytes_per_second = 6e9;
  estimate.transfer_on_critical_path = false;
  return estimate;
}

TEST(MultiPartition, IdenticalAcceleratorsSplitEvenly) {
  MultiPartitionModel model;
  const auto decision =
      model.solve(three_devices(1e-6, 1e-7, 1e-7), 1'000'000);
  // Shares ~ 1/tau: CPU 1 : acc 10 : acc 10 -> ~4.8% / 47.6% / 47.6%.
  EXPECT_NEAR(decision.share(1, 1'000'000), decision.share(2, 1'000'000),
              0.01);
  EXPECT_NEAR(decision.share(0, 1'000'000), 1.0 / 21.0, 0.01);
  const std::int64_t total = std::accumulate(
      decision.items_per_device.begin(), decision.items_per_device.end(),
      std::int64_t{0});
  EXPECT_EQ(total, 1'000'000);
}

TEST(MultiPartition, FasterAcceleratorGetsMore) {
  MultiPartitionModel model;
  const auto decision =
      model.solve(three_devices(1e-6, 1e-7, 2e-7), 1'000'000);
  EXPECT_GT(decision.items_per_device[1], decision.items_per_device[2]);
}

TEST(MultiPartition, TwoDeviceCaseMatchesPairwiseSolver) {
  // With one accelerator the multi solver must agree with PartitionModel.
  MultiDeviceEstimate multi;
  multi.devices = {profile(1e-6), profile(1e-7)};
  multi.link_bytes_per_second = 6e9;
  multi.transfer_on_critical_path = false;
  MultiPartitionModel multi_model;
  const auto multi_split = multi_model.solve(multi, 1'000'000);

  KernelEstimate pair;
  pair.cpu = profile(1e-6);
  pair.gpu = profile(1e-7);
  pair.link_bytes_per_second = 6e9;
  pair.transfer_on_critical_path = false;
  PartitionModel pair_model;
  const auto pair_decision = pair_model.solve(pair, 1'000'000);

  EXPECT_NEAR(static_cast<double>(multi_split.items_per_device[1]),
              static_cast<double>(pair_decision.gpu_items), 64.0);
}

std::int64_t partition_solve_calls() {
  const auto stages = obs::phase_profiler().snapshot();
  const auto it = stages.find(std::string(obs::kPhasePartitionSolve));
  return it == stages.end() ? 0 : it->second.calls;
}

TEST(MultiPartition, EachSolveCountsOnePartitionSolvePhase) {
  // N=2 is counted by the delegated scalar solve, N>=3 by the vector solve
  // itself; neither path counts twice.
  const MultiDeviceEstimate three = three_devices(1e-6, 1e-7, 1e-7);
  MultiDeviceEstimate two = three;
  two.devices.pop_back();
  for (const MultiDeviceEstimate& estimate : {two, three}) {
    const std::int64_t before = partition_solve_calls();
    solve_multi_partition(estimate, 1'000'000);
    EXPECT_EQ(partition_solve_calls(), before + 1)
        << estimate.devices.size() << " devices";
  }
}

TEST(MultiPartition, TransfersShrinkAcceleratorShares) {
  MultiDeviceEstimate estimate = three_devices(1e-6, 1e-7, 1e-7);
  estimate.transfer_on_critical_path = true;
  for (std::size_t d = 1; d < 3; ++d) {
    estimate.devices[d].h2d_bytes_per_item = 4.0;
    estimate.devices[d].d2h_bytes_per_item = 4.0;
  }
  MultiPartitionModel model;
  const auto with = model.solve(estimate, 1'000'000);
  const auto without =
      model.solve(three_devices(1e-6, 1e-7, 1e-7), 1'000'000);
  EXPECT_LT(with.items_per_device[1], without.items_per_device[1]);
  EXPECT_GT(with.items_per_device[0], without.items_per_device[0]);
}

TEST(MultiPartition, NegligibleDeviceIsDropped) {
  // Accelerator 2 is 1000x slower than accelerator 1: its share falls
  // under min_share and it is cut out entirely.
  MultiPartitionModel model;
  const auto decision =
      model.solve(three_devices(1e-4, 1e-7, 1e-10 * 1e3), 1'000'000);
  (void)decision;
  const auto slow = model.solve(three_devices(1e-4, 1e-7, 1e-4), 100'000);
  // CPU and the slow accelerator have equal speed (~0.1% share each beside
  // the fast one) -> both dropped; everything lands on device 1.
  EXPECT_EQ(slow.items_per_device[1], 100'000);
}

TEST(MultiPartition, FixedCostsRespected) {
  MultiDeviceEstimate estimate = three_devices(1e-6, 1e-7, 1e-7);
  estimate.devices[1].fixed_seconds = 0.05;  // expensive start-up
  MultiPartitionModel model;
  const auto decision = model.solve(estimate, 1'000'000);
  EXPECT_LT(decision.items_per_device[1], decision.items_per_device[2]);
}

TEST(MultiPartition, GranularityRoundingApplied) {
  MultiPartitionModel model;
  const auto decision =
      model.solve(three_devices(1e-6, 1e-7, 1.5e-7), 999'983);
  EXPECT_EQ(decision.items_per_device[1] % 32, 0);
  EXPECT_EQ(decision.items_per_device[2] % 32, 0);
}

TEST(MultiPartition, PredictionMatchesAssignment) {
  MultiPartitionModel model;
  const MultiDeviceEstimate estimate = three_devices(1e-6, 1e-7, 2e-7);
  const auto decision = model.solve(estimate, 1'000'000);
  EXPECT_NEAR(decision.predicted_seconds,
              model.predict_seconds(estimate, decision.items_per_device),
              1e-12);
  // Balanced: the split beats giving everything to the fastest device.
  std::vector<std::int64_t> all_on_one(3, 0);
  all_on_one[1] = 1'000'000;
  EXPECT_LT(decision.predicted_seconds,
            model.predict_seconds(estimate, all_on_one));
}

TEST(MultiPartition, RejectsBadInput) {
  MultiPartitionModel model;
  MultiDeviceEstimate empty;
  EXPECT_THROW(model.solve(empty, 100), InvalidArgument);
  MultiDeviceEstimate bad = three_devices(1e-6, 0.0, 1e-7);
  EXPECT_THROW(model.solve(bad, 100), InvalidArgument);
}

/// Property wall for the strategy-level entry point solve_multi_partition
/// (the function StrategyRunner's multi paths call). Four universally
/// quantified claims over seeded random estimates:
///   (a) two devices delegate to the scalar β solver bit for bit — items
///       AND predicted seconds are exactly equal, not merely close;
///   (b) with transfers off the critical path every participating device
///       finishes together (balanced-finish, up to granularity rounding);
///   (c) the predicted makespan respects the shared-link occupancy bound
///       and replays exactly through predict_seconds;
///   (d) speeding one accelerator up never meaningfully shrinks its slab.
class SolveMultiPartitionProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

MultiDeviceEstimate draw_estimate(Rng& rng, std::size_t accelerators) {
  MultiDeviceEstimate estimate;
  estimate.link_bytes_per_second = rng.uniform(1e9, 2e10);
  estimate.transfer_on_critical_path = rng.uniform() < 0.5;
  DeviceProfile cpu;
  cpu.seconds_per_item = rng.uniform(1e-7, 2e-6);
  cpu.fixed_seconds = rng.uniform(0.0, 1e-4);
  estimate.devices.push_back(cpu);
  for (std::size_t a = 0; a < accelerators; ++a) {
    DeviceProfile acc;
    acc.seconds_per_item = rng.uniform(1e-8, 1e-6);
    acc.h2d_bytes_per_item = rng.uniform(0.0, 16.0);
    acc.d2h_bytes_per_item = rng.uniform(0.0, 16.0);
    acc.fixed_seconds = rng.uniform(0.0, 1e-3);
    estimate.devices.push_back(acc);
  }
  return estimate;
}

TEST_P(SolveMultiPartitionProperty, TwoDevicesDelegateToScalarBitwise) {
  Rng rng(GetParam());
  for (int round = 0; round < 8; ++round) {
    const MultiDeviceEstimate estimate = draw_estimate(rng, 1);
    const std::int64_t n = rng.uniform_int(1, 2'000'000);
    const MultiPartitionDecision multi = solve_multi_partition(estimate, n);
    const PartitionDecision scalar =
        PartitionModel().solve(to_kernel_estimate(estimate), n);

    ASSERT_EQ(multi.items_per_device.size(), 2u);
    EXPECT_EQ(multi.items_per_device[0], scalar.cpu_items);
    EXPECT_EQ(multi.items_per_device[1], scalar.gpu_items);
    double expected = scalar.predicted_partition_seconds;
    if (scalar.config == HardwareConfig::kOnlyCpu)
      expected = scalar.predicted_cpu_seconds;
    if (scalar.config == HardwareConfig::kOnlyGpu)
      expected = scalar.predicted_gpu_seconds;
    // Bitwise: the N=2 path IS the scalar path, not a numerical twin.
    EXPECT_EQ(multi.predicted_seconds, expected);
  }
}

TEST_P(SolveMultiPartitionProperty, ParticipatingDevicesFinishTogether) {
  Rng rng(GetParam());
  MultiDeviceEstimate estimate =
      draw_estimate(rng, static_cast<std::size_t>(rng.uniform_int(2, 3)));
  // Off the critical path there is no link term: the solver is in the pure
  // balanced-finish regime and every device it keeps must finish together.
  estimate.transfer_on_critical_path = false;
  const std::int64_t n = 4'000'000;
  const MultiPartitionDecision decision = solve_multi_partition(estimate, n);

  double earliest = 1e300;
  double latest = 0.0;
  for (std::size_t d = 0; d < estimate.devices.size(); ++d) {
    if (decision.items_per_device[d] == 0) continue;  // dropped device
    const double finish =
        static_cast<double>(decision.items_per_device[d]) *
            estimate.effective_seconds_per_item(d) +
        estimate.effective_fixed_seconds(d);
    earliest = std::min(earliest, finish);
    latest = std::max(latest, finish);
  }
  // Granularity rounding moves at most ~32 items per accelerator (the CPU
  // absorbs the remainder), so the spread stays within a percent.
  EXPECT_LE(latest - earliest, 0.01 * latest + 1e-6)
      << "finish spread " << earliest << " .. " << latest;
}

TEST_P(SolveMultiPartitionProperty, MakespanRespectsSharedLinkBound) {
  Rng rng(GetParam());
  MultiDeviceEstimate estimate =
      draw_estimate(rng, static_cast<std::size_t>(rng.uniform_int(2, 3)));
  // Force the transfer-bound regime: heavy per-item traffic, weak link.
  estimate.transfer_on_critical_path = true;
  estimate.link_bytes_per_second = rng.uniform(5e8, 2e9);
  for (std::size_t d = 1; d < estimate.devices.size(); ++d) {
    estimate.devices[d].h2d_bytes_per_item = rng.uniform(8.0, 64.0);
    estimate.devices[d].d2h_bytes_per_item = rng.uniform(8.0, 64.0);
  }
  const std::int64_t n = 1'000'000;
  const MultiPartitionDecision decision = solve_multi_partition(estimate, n);

  double link_seconds = 0.0;
  for (std::size_t d = 1; d < estimate.devices.size(); ++d)
    link_seconds += static_cast<double>(decision.items_per_device[d]) *
                    estimate.transfer_seconds_per_item(d);
  // All accelerators share one serial link: the makespan can never undercut
  // the total time their slabs spend on it.
  EXPECT_GE(decision.predicted_seconds + 1e-9 * (1.0 + decision.predicted_seconds),
            link_seconds);
  // And the prediction replays exactly through the public cost model.
  EXPECT_NEAR(decision.predicted_seconds,
              MultiPartitionModel().predict_seconds(
                  estimate, decision.items_per_device),
              1e-12);
}

TEST_P(SolveMultiPartitionProperty, FasterDeviceNeverLosesItsSlab) {
  Rng rng(GetParam());
  MultiDeviceEstimate estimate = draw_estimate(rng, 2);
  estimate.transfer_on_critical_path = false;
  const std::int64_t n = 2'000'000;
  const MultiPartitionDecision before = solve_multi_partition(estimate, n);

  MultiDeviceEstimate faster = estimate;
  faster.devices[2].seconds_per_item /= rng.uniform(1.1, 4.0);
  const MultiPartitionDecision after = solve_multi_partition(faster, n);

  // Up to one granularity quantum of slack from the rounding step.
  EXPECT_GE(after.items_per_device[2] + 33, before.items_per_device[2]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolveMultiPartitionProperty,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace hetsched::glinda
