#pragma once

#include "runtime/scheduler.hpp"

/// Breadth-first / locality scheduler — the substrate of the paper's DP-Dep
/// strategy (OmpSs' default breadth-first scheduler with dependency-chain
/// affinity).
///
/// Placement is pull-style and performance-blind: every idle lane, CPU
/// thread or GPU queue alike, claims the next compatible ready task. The
/// only preference is data locality: a task whose inputs were produced on
/// device D is handed to D's lanes first, keeping dependency chains on one
/// device and minimizing transfers (the paper's Section III-C description).
///
/// Because the scheduler cannot tell a GPU lane from a CPU thread, a
/// 12-instance single-kernel application on a 12-thread CPU + 1 GPU platform
/// ends up with exactly one instance on the GPU — the workload imbalance the
/// paper reports for DP-Dep on MatrixMul.
namespace hetsched::rt {

class BreadthFirstScheduler final : public Scheduler {
 public:
  /// Virtual time one placement decision costs.
  static constexpr SimTime kDecisionCost = 1 * kMicrosecond;

  std::string name() const override { return "breadth-first"; }
  SimTime decision_cost() const override { return kDecisionCost; }

  std::optional<std::size_t> pick(hw::DeviceId device,
                                  const std::vector<SchedTask>& pool,
                                  SimTime now) override {
    (void)now;
    std::optional<std::size_t> no_affinity;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (!pool[i].runs_on(device)) continue;
      if (pool[i].locality == device) return i;  // chain stays local
      if (!pool[i].locality && !no_affinity) no_affinity = i;
    }
    // Fresh (affinity-free) tasks are fair game for any device. Tasks bound
    // to another device's chain are NOT stolen: the scheduler's one goal is
    // minimizing transfers by keeping each dependency chain where its data
    // lives (paper Section III-C), even at the price of idling — it has no
    // performance information to judge whether a steal would pay off.
    return no_affinity;
  }
};

}  // namespace hetsched::rt
