#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "glinda/partition_model.hpp"

/// Multi-accelerator static partitioning.
///
/// Glinda "supports various platforms, with one or more accelerators,
/// identical or non-identical" (paper Section II-A); extending the analyzer
/// to other accelerator types is the paper's stated future work. This
/// solver generalizes the two-way split: given per-device profiles (one
/// host CPU + any number of accelerators behind the shared link), it
/// assigns every device a contiguous slab sized so all finish together.
///
/// Model: device d's finish time for n_d items is
///     T_d = n_d * tau_d + F_d
/// where tau_d is the device's effective per-item cost (accelerators add
/// their critical-path transfer term) and F_d its fixed cost. On top of
/// the per-device times, all accelerators share ONE host link, so the
/// makespan is also bounded below by the total transfer time
///     T_link = sum_{d>0} n_d * x_d
/// (x_d = transfer seconds per item). The solver first balances the
/// per-device times, then — if the shared link is the binding constraint —
/// scales the accelerator shares back until the CPU's finish time meets
/// the link's, so a transfer-bound workload is not over-fed to a second
/// accelerator that the link cannot serve.
namespace hetsched::glinda {

struct MultiDeviceEstimate {
  /// Index 0 is the host CPU; 1.. are the accelerators (hw::DeviceId
  /// order). CPU transfers are ignored even if present.
  std::vector<DeviceProfile> devices;
  double link_bytes_per_second = 0.0;
  bool transfer_on_critical_path = true;

  /// Effective per-item seconds of device d (transfer included for
  /// accelerators when on the critical path).
  double effective_seconds_per_item(std::size_t d) const;
  /// Effective fixed seconds of device d.
  double effective_fixed_seconds(std::size_t d) const;
  /// Link seconds per item of accelerator d (0 for the CPU or when
  /// transfers are off the critical path).
  double transfer_seconds_per_item(std::size_t d) const;
};

struct MultiPartitionDecision {
  /// Items per device, same indexing as the estimate. Sums to n.
  std::vector<std::int64_t> items_per_device;
  /// Predicted makespan of the split, seconds.
  double predicted_seconds = 0.0;
  /// The un-rounded accelerator share the paper's ratio reporting uses:
  /// PartitionModel's β at N=2 (bit for bit); at N>=3 the balanced
  /// accelerator shares summed before integer rounding.
  double beta = 0.0;

  double share(std::size_t d, std::int64_t n) const {
    return n == 0 ? 0.0
                  : static_cast<double>(items_per_device[d]) /
                        static_cast<double>(n);
  }
  std::size_t device_count() const { return items_per_device.size(); }
  /// The scalar hardware-configuration view: everything on device 0 is
  /// Only-CPU, nothing on device 0 is Only-GPU, anything else a partition.
  HardwareConfig config() const;

  bool operator==(const MultiPartitionDecision&) const = default;
};

/// The scalar two-device view of a CPU+1-accelerator estimate (device 0 =
/// CPU, device 1 = the accelerator). Requires exactly two device profiles.
KernelEstimate to_kernel_estimate(const MultiDeviceEstimate& estimate);

/// Single entry point for strategy-level partitioning across any device
/// count. For exactly TWO devices (CPU + one accelerator) this delegates to
/// the scalar closed-form β solver (`PartitionModel::solve`, or
/// `solve_weighted` when `prefix_weight` is given), so two-device splits —
/// items, β AND predicted seconds — are bit-identical with the scalar
/// model; for three or more devices it runs MultiPartitionModel's
/// balanced-finish bisection with the shared-link repair and ignores
/// `prefix_weight`. The returned decision always covers all
/// `estimate.devices` (dropped devices get 0).
MultiPartitionDecision solve_multi_partition(
    const MultiDeviceEstimate& estimate, std::int64_t n,
    PartitionOptions options = {},
    const std::function<double(std::int64_t)>& prefix_weight = nullptr);

class MultiPartitionModel {
 public:
  explicit MultiPartitionModel(PartitionOptions options = {})
      : options_(options) {}

  /// Solves the balanced split of `n` items across all devices. Devices
  /// whose share falls below PartitionOptions::min_share are dropped and
  /// their work redistributed (the multi-device form of the paper's
  /// hardware-configuration decision).
  MultiPartitionDecision solve(const MultiDeviceEstimate& estimate,
                               std::int64_t n) const;

  /// Predicted makespan of a given assignment.
  double predict_seconds(const MultiDeviceEstimate& estimate,
                         const std::vector<std::int64_t>& items) const;

 private:
  PartitionOptions options_;
};

}  // namespace hetsched::glinda
