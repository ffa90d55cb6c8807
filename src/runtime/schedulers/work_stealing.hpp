#pragma once

#include "runtime/scheduler.hpp"

/// Work-stealing variant of the breadth-first scheduler.
///
/// The paper's DP-Dep never moves a task off its dependency chain's device:
/// it minimizes transfers but leaves a fast device idle once its own work
/// is done (the MatrixMul pathology: the GPU gets one of twelve instances
/// and then watches the CPU grind). This scheduler relaxes exactly that
/// rule: an idle lane that finds neither local-chain nor fresh work STEALS
/// a task bound to another device's chain, accepting the transfer.
///
/// Still performance-blind — it cannot tell whether a steal pays off, only
/// that idling earns nothing. bench/ablation_scheduler quantifies where
/// stealing helps (compute-imbalanced workloads) and where it hurts
/// (transfer-bound chains), explaining why the paper's ranking needs the
/// performance-aware policy rather than mere stealing.
namespace hetsched::rt {

class WorkStealingScheduler final : public Scheduler {
 public:
  /// Virtual time one placement decision costs.
  static constexpr SimTime kDecisionCost = 1 * kMicrosecond;

  std::string name() const override { return "work-stealing"; }
  SimTime decision_cost() const override { return kDecisionCost; }

  std::optional<std::size_t> pick(hw::DeviceId device,
                                  const std::vector<SchedTask>& pool,
                                  SimTime now) override {
    (void)now;
    std::optional<std::size_t> no_affinity;
    std::optional<std::size_t> foreign;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (!pool[i].runs_on(device)) continue;
      if (pool[i].locality == device) return i;
      if (!pool[i].locality) {
        if (!no_affinity) no_affinity = i;
      } else if (!foreign) {
        foreign = i;
      }
    }
    if (no_affinity) return no_affinity;
    if (foreign) ++steals_;
    return foreign;
  }

  /// Number of cross-chain steals performed so far.
  std::size_t steal_count() const { return steals_; }

 private:
  std::size_t steals_ = 0;
};

}  // namespace hetsched::rt
