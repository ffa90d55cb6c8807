#include "glinda/multi_device.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "obs/phase_profiler.hpp"

namespace hetsched::glinda {

HardwareConfig MultiPartitionDecision::config() const {
  const std::int64_t on_cpu = items_per_device.at(0);
  if (on_cpu == std::accumulate(items_per_device.begin(),
                                items_per_device.end(), std::int64_t{0}))
    return HardwareConfig::kOnlyCpu;
  if (on_cpu == 0) return HardwareConfig::kOnlyGpu;
  return HardwareConfig::kPartition;
}

double MultiDeviceEstimate::effective_seconds_per_item(std::size_t d) const {
  HS_REQUIRE(d < devices.size(), "unknown device " << d);
  double seconds = devices[d].seconds_per_item;
  if (d != 0 && transfer_on_critical_path && link_bytes_per_second > 0.0) {
    seconds += (devices[d].h2d_bytes_per_item + devices[d].d2h_bytes_per_item) /
               link_bytes_per_second;
  }
  return seconds;
}

double MultiDeviceEstimate::effective_fixed_seconds(std::size_t d) const {
  HS_REQUIRE(d < devices.size(), "unknown device " << d);
  double fixed = devices[d].fixed_seconds;
  if (d != 0 && transfer_on_critical_path && link_bytes_per_second > 0.0) {
    fixed += (devices[d].h2d_fixed_bytes + devices[d].d2h_fixed_bytes) /
             link_bytes_per_second;
  }
  return fixed;
}

double MultiDeviceEstimate::transfer_seconds_per_item(std::size_t d) const {
  HS_REQUIRE(d < devices.size(), "unknown device " << d);
  if (d == 0 || !transfer_on_critical_path || link_bytes_per_second <= 0.0)
    return 0.0;
  return (devices[d].h2d_bytes_per_item + devices[d].d2h_bytes_per_item) /
         link_bytes_per_second;
}

double MultiPartitionModel::predict_seconds(
    const MultiDeviceEstimate& estimate,
    const std::vector<std::int64_t>& items) const {
  HS_REQUIRE(items.size() == estimate.devices.size(),
             "assignment size mismatch");
  double makespan = 0.0;
  double link_seconds = 0.0;
  for (std::size_t d = 0; d < items.size(); ++d) {
    if (items[d] == 0) continue;
    makespan = std::max(
        makespan, static_cast<double>(items[d]) *
                          estimate.effective_seconds_per_item(d) +
                      estimate.effective_fixed_seconds(d));
    link_seconds +=
        static_cast<double>(items[d]) * estimate.transfer_seconds_per_item(d);
  }
  return std::max(makespan, link_seconds);
}

MultiPartitionDecision MultiPartitionModel::solve(
    const MultiDeviceEstimate& estimate, std::int64_t n) const {
  const obs::ScopedPhase phase(obs::kPhasePartitionSolve);
  HS_REQUIRE(n > 0, "partitioning a workload of " << n);
  const std::size_t count = estimate.devices.size();
  HS_REQUIRE(count >= 1, "need at least the host CPU profile");
  for (std::size_t d = 0; d < count; ++d) {
    HS_REQUIRE(estimate.devices[d].seconds_per_item > 0.0,
               "device " << d << " per-item cost must be positive");
  }

  // Balanced finish times with fixed costs: find the common finish time T
  // with sum_d max(0, (T - F_d) / tau_d) = n, by bisection over T (the
  // left side is monotone in T).
  std::vector<bool> active(count, true);
  std::vector<double> shares(count, 0.0);
  for (int round = 0; round < static_cast<int>(count); ++round) {
    auto items_at = [&](double t) {
      double total = 0.0;
      for (std::size_t d = 0; d < count; ++d) {
        if (!active[d]) continue;
        total += std::max(0.0, (t - estimate.effective_fixed_seconds(d)) /
                                   estimate.effective_seconds_per_item(d));
      }
      return total;
    };
    double lo = 0.0, hi = 1.0;
    while (items_at(hi) < static_cast<double>(n)) hi *= 2.0;
    for (int step = 0; step < 200; ++step) {
      const double mid = 0.5 * (lo + hi);
      (items_at(mid) < static_cast<double>(n) ? lo : hi) = mid;
    }
    for (std::size_t d = 0; d < count; ++d) {
      shares[d] = !active[d]
                      ? 0.0
                      : std::max(0.0,
                                 (hi - estimate.effective_fixed_seconds(d)) /
                                     estimate.effective_seconds_per_item(d)) /
                            static_cast<double>(n);
    }

    // Hardware-configuration decision: deactivate devices whose share is
    // too small to use their hardware efficiently, then re-solve.
    bool dropped = false;
    for (std::size_t d = 0; d < count; ++d) {
      if (active[d] && shares[d] > 0.0 && shares[d] < options_.min_share) {
        active[d] = false;
        dropped = true;
      }
    }
    if (!dropped) break;
  }

  // Shared-link repair: if the accelerators' combined transfers exceed the
  // balanced makespan, the link is the bottleneck — scale their shares by
  // s in [0, 1] (the CPU absorbing the difference) until the CPU's finish
  // time meets the link's occupancy. Both sides are monotone in s.
  if (active[0]) {
    auto cpu_time = [&](double s) {
      double accelerator_share = 0.0;
      for (std::size_t d = 1; d < count; ++d) accelerator_share += shares[d];
      const double cpu_items =
          static_cast<double>(n) * (1.0 - s * accelerator_share);
      return cpu_items * estimate.effective_seconds_per_item(0) +
             estimate.effective_fixed_seconds(0);
    };
    auto link_time = [&](double s) {
      double seconds = 0.0;
      for (std::size_t d = 1; d < count; ++d) {
        seconds += s * shares[d] * static_cast<double>(n) *
                   estimate.transfer_seconds_per_item(d);
      }
      return seconds;
    };
    if (link_time(1.0) > cpu_time(1.0)) {
      double lo = 0.0, hi = 1.0;
      for (int step = 0; step < 100; ++step) {
        const double mid = 0.5 * (lo + hi);
        (link_time(mid) > cpu_time(mid) ? hi : lo) = mid;
      }
      for (std::size_t d = 1; d < count; ++d) shares[d] *= hi;
    }
  }

  // Integer assignment: accelerators get granularity-rounded slabs, the
  // CPU absorbs the remainder (or the largest active device does, if the
  // CPU was dropped).
  MultiPartitionDecision decision;
  decision.items_per_device.assign(count, 0);
  std::int64_t assigned = 0;
  for (std::size_t d = 1; d < count; ++d) {
    if (!active[d]) continue;
    decision.beta += shares[d];
    const auto granularity =
        static_cast<std::int64_t>(options_.gpu_granularity);
    std::int64_t items = static_cast<std::int64_t>(
        std::llround(shares[d] * static_cast<double>(n)));
    items = std::min<std::int64_t>(
        n - assigned,
        (items + granularity - 1) / granularity * granularity);
    decision.items_per_device[d] = items;
    assigned += items;
  }
  if (active[0]) {
    decision.items_per_device[0] = n - assigned;
  } else {
    // All work on accelerators: give the remainder to the fastest one.
    std::size_t best = 1;
    for (std::size_t d = 2; d < count; ++d) {
      if (!active[d]) continue;
      if (!active[best] || estimate.effective_seconds_per_item(d) <
                               estimate.effective_seconds_per_item(best))
        best = d;
    }
    decision.items_per_device[best] += n - assigned;
  }

  const std::int64_t total =
      std::accumulate(decision.items_per_device.begin(),
                      decision.items_per_device.end(), std::int64_t{0});
  HS_ASSERT_MSG(total == n, "assignment lost items: " << total << " != " << n);
  decision.predicted_seconds =
      predict_seconds(estimate, decision.items_per_device);
  return decision;
}

KernelEstimate to_kernel_estimate(const MultiDeviceEstimate& estimate) {
  HS_REQUIRE(estimate.devices.size() == 2,
             "scalar view needs exactly CPU + one accelerator, got "
                 << estimate.devices.size() << " devices");
  KernelEstimate scalar;
  scalar.cpu = estimate.devices[0];
  scalar.gpu = estimate.devices[1];
  scalar.link_bytes_per_second = estimate.link_bytes_per_second;
  scalar.transfer_on_critical_path = estimate.transfer_on_critical_path;
  return scalar;
}

MultiPartitionDecision solve_multi_partition(
    const MultiDeviceEstimate& estimate, std::int64_t n,
    PartitionOptions options,
    const std::function<double(std::int64_t)>& prefix_weight) {
  if (estimate.devices.size() != 2)
    return MultiPartitionModel(options).solve(estimate, n);

  // Two devices: the scalar β path, verbatim. This is what makes the N=2
  // byte-identity guarantee hold by construction rather than by numerical
  // luck — same solver, same rounding, same prediction.
  const KernelEstimate pair = to_kernel_estimate(estimate);
  const PartitionModel model(options);
  const PartitionDecision scalar =
      prefix_weight ? model.solve_weighted(pair, n, prefix_weight)
                    : model.solve(pair, n);
  MultiPartitionDecision decision;
  decision.items_per_device = {scalar.cpu_items, scalar.gpu_items};
  decision.beta = scalar.beta;
  switch (scalar.config) {
    case HardwareConfig::kOnlyCpu:
      decision.predicted_seconds = scalar.predicted_cpu_seconds;
      break;
    case HardwareConfig::kOnlyGpu:
      decision.predicted_seconds = scalar.predicted_gpu_seconds;
      break;
    case HardwareConfig::kPartition:
      decision.predicted_seconds = scalar.predicted_partition_seconds;
      break;
  }
  return decision;
}

}  // namespace hetsched::glinda
