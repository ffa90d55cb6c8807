#pragma once

#include <cstdint>
#include <functional>

#include "hw/platform.hpp"
#include "runtime/executor.hpp"

/// Glinda's low-cost profiling step (paper Section II-A, step 2).
///
/// The profiler runs a small fraction of the workload on each device through
/// the runtime and *observes* execution times and transfer volumes — it
/// never reads the cost model's parameters directly, exactly as the paper's
/// profiling observes wall-clock behaviour. Two sample sizes give a linear
/// fit, separating per-item rates from fixed costs (kernel launch, transfer
/// latency, broadcast inputs such as MatrixMul's full B matrix).
namespace hetsched::glinda {

/// Linear cost fit of one device executing one kernel (or kernel sequence).
struct DeviceProfile {
  /// Wall-clock seconds of device compute per work item (whole device: all
  /// CPU lanes working, or the GPU queue).
  double seconds_per_item = 0.0;
  /// Fixed compute seconds per invocation (launch overhead and friends).
  double fixed_seconds = 0.0;
  /// Host->device / device->host traffic per item, bytes.
  double h2d_bytes_per_item = 0.0;
  double d2h_bytes_per_item = 0.0;
  /// Size-independent traffic, bytes (broadcast inputs, whole-problem data).
  double h2d_fixed_bytes = 0.0;
  double d2h_fixed_bytes = 0.0;
  /// Host-link throughput, bytes/s end to end, fitted over the same two
  /// samples' transfers; 0 when the samples moved no bytes (the CPU).
  double link_bytes_per_second = 0.0;

  /// Whole-device throughput, items/s.
  double items_per_second() const { return 1.0 / seconds_per_item; }
};

/// Builds the program that exercises the workload slice [begin, end) pinned
/// on `device` — a single-kernel app submits one chunk per CPU lane (or one
/// GPU chunk); a multi-kernel app submits its whole kernel sequence over the
/// slice. Must end with a taskwait.
using SampleProgramFactory = std::function<rt::Program(
    hw::DeviceId device, std::int64_t begin, std::int64_t end)>;

struct ProfileOptions {
  /// Fractions of the full problem used for the two sample runs.
  double small_fraction = 0.01;
  double large_fraction = 0.02;
  /// Samples are at least this many items (keeps tiny problems meaningful).
  std::int64_t min_sample_items = 64;
};

class Profiler {
 public:
  explicit Profiler(ProfileOptions options = {}) : options_(options) {}

  /// Profiles `device` executing the factory's program over two sample
  /// sizes; compute, traffic and link are all fitted from those two runs.
  /// The executor's buffers/kernels must already be registered.
  DeviceProfile profile_device(rt::Executor& executor,
                               const SampleProgramFactory& factory,
                               hw::DeviceId device,
                               std::int64_t total_items) const;

  /// The two sample sizes used for `total_items`.
  std::pair<std::int64_t, std::int64_t> sample_sizes(
      std::int64_t total_items) const;

 private:
  struct RawSample {
    std::int64_t items = 0;
    double compute_wall_seconds = 0.0;
    double h2d_bytes = 0.0;
    double d2h_bytes = 0.0;
    double transfer_seconds = 0.0;
  };

  RawSample run_sample(rt::Executor& executor,
                       const SampleProgramFactory& factory,
                       hw::DeviceId device, std::int64_t items) const;

  ProfileOptions options_;
};

}  // namespace hetsched::glinda
