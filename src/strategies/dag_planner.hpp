#pragma once

#include <map>
#include <vector>

#include "hw/platform.hpp"
#include "runtime/program.hpp"
#include "runtime/task_graph.hpp"

/// Static DAG planning (extension beyond the paper's five strategies).
///
/// For Class V the paper notes that applying static partitioning "may be
/// possible ... but this requires adding extra synchronization point(s),
/// and may or may not bring in performance improvement". This planner takes
/// the other static route: no synchronization at all — a HEFT-style list
/// schedule over the *task-instance graph*. Tasks are ranked by upward rank
/// (critical-path distance to the sinks) and assigned, in rank order, to
/// the device minimizing their earliest finish time, accounting for
/// cross-device transfer of their inputs. The result is a fully pinned
/// program the executor runs without any scheduler.
///
/// bench/ext_mk_dag compares it against the dynamic strategies the paper
/// recommends for this class.
namespace hetsched::strategies {

/// Profiled whole-lane throughput, items/s, per (kernel, device).
using RateTable = std::map<std::pair<rt::KernelId, hw::DeviceId>, double>;

struct DagPlan {
  /// Pinned device per kernel-task, indexed by the task's position among
  /// kernel submissions (program order).
  std::vector<hw::DeviceId> assignment;
  /// Planner's predicted makespan, seconds.
  double predicted_seconds = 0.0;
  /// Tasks assigned per device (diagnostics).
  std::vector<std::size_t> tasks_per_device;

  bool operator==(const DagPlan&) const = default;
};

class DagPlanner {
 public:
  /// `rates[(k, d)]` must be present for every kernel in the program and
  /// every device of the platform.
  DagPlanner(const hw::PlatformSpec& platform, RateTable rates);

  /// Plans the unpinned `program` (built against `kernels`) and returns the
  /// assignment. Barriers and host ops are left alone.
  DagPlan plan(const std::vector<rt::KernelDef>& kernels,
               const rt::Program& program) const;

  /// Convenience: re-emits `program` with the plan's pins applied.
  rt::Program apply(const rt::Program& program, const DagPlan& plan) const;

 private:
  double rate_of(rt::KernelId kernel, hw::DeviceId device) const;
  double task_seconds(const rt::TaskNode& node, hw::DeviceId device) const;
  double transfer_seconds(const rt::TaskNode& node) const;

  hw::PlatformSpec platform_;
  RateTable rates_;
};

}  // namespace hetsched::strategies
