#pragma once

#include <map>
#include <optional>
#include <vector>

#include "analyzer/matchmaker.hpp"
#include "analyzer/strategy.hpp"
#include "apps/app.hpp"
#include "faults/fault_plan.hpp"
#include "glinda/multi_device.hpp"
#include "glinda/partition_model.hpp"
#include "runtime/explore.hpp"
#include "strategies/dag_planner.hpp"

/// Strategy drivers (paper Section III-C): given an application, each
/// strategy shapes a Program (how the item space is chunked and where the
/// chunks are pinned), runs any profiling it needs, executes, and reports.
///
/// Implementation map (paper -> this module):
///   SP-Single   Glinda profiling + optimal split of the single kernel;
///               each accelerator's slab is one pinned instance, the CPU
///               side is m pinned instances (one per thread).
///   SP-Unified  The kernels are fused for profiling; one unified split is
///               applied to every kernel; no synchronization between
///               kernels, so data stays resident per device.
///   SP-Varied   Each kernel is profiled and split separately; a taskwait
///               separates kernels (SP-Varied requires synchronization).
///   DP-Dep      Chunked, unpinned submission under the breadth-first /
///               locality scheduler.
///   DP-Perf     Chunked, unpinned submission under the performance-aware
///               scheduler, seeded by a profiling phase that gives each
///               device 3 task instances per kernel (excluded from the
///               reported time, as in the paper).
///   Only-CPU /  All work pinned to one device (the paper's baseline
///   Only-GPU    executions).
namespace hetsched::strategies {

struct StrategyOptions {
  /// m: CPU task instances per kernel under static partitioning, and the
  /// total chunk count under dynamic partitioning (task size = n / m). The
  /// paper sets m to the best-performing multiple of the CPU thread count.
  int task_count = 12;
  /// The paper's "w sync" scenario: a taskwait after every kernel.
  /// (SP-Varied always synchronizes, regardless of this flag.)
  bool sync_between_kernels = false;
  glinda::ProfileOptions profile;
  glinda::PartitionOptions partition;
  /// DP-Perf profiling instances per (kernel, device).
  int dp_perf_profile_instances = 3;
  /// Fault plan armed around the MEASURED execution only. Profiling runs
  /// (Glinda sampling, DP-Perf seeding probes) observe the healthy
  /// platform — the paper profiles before the perturbation happens — so
  /// static splits are honest pre-fault decisions and the injected faults
  /// hit every strategy's measured run identically.
  std::optional<faults::FaultPlan> fault_plan;
  /// Schedule-exploration spec, armed (like the fault plan) around the
  /// MEASURED execution only: a fresh ExploreStrategy is built per run so
  /// decision sites are numbered from zero, and profiling stays on the
  /// canonical schedule.
  rt::ExploreSpec explore;
};

struct StrategyResult {
  analyzer::StrategyKind kind = analyzer::StrategyKind::kOnlyCpu;
  rt::ExecutionReport report;
  /// GPU share of each kernel's items (index = position in app sequence).
  std::vector<double> gpu_fraction_per_kernel;
  /// Accelerator share across all kernels (all non-CPU devices combined).
  double gpu_fraction_overall = 0.0;
  /// Glinda decisions: one per kernel for SP-Varied, a single entry for
  /// SP-Single and SP-Unified (SP-Unified scales the fused shares to each
  /// kernel), none for DP, SP-DAG and the baselines.
  std::vector<glinda::MultiPartitionDecision> decisions;

  double time_ms() const { return report.makespan_ms(); }
};

class StrategyRunner {
 public:
  explicit StrategyRunner(apps::Application& app, StrategyOptions options = {});

  /// Runs one strategy end to end (profiling + measured execution) and
  /// reports. Throws InvalidArgument if the strategy is not applicable to
  /// the application's class (e.g. SP-Single on a multi-kernel app).
  StrategyResult run(analyzer::StrategyKind kind);

  /// Runs every strategy in the application's Table I ranking plus the two
  /// baselines; keyed by strategy.
  std::map<analyzer::StrategyKind, StrategyResult> run_ranked_and_baselines();

  /// Figure-2 end-to-end flow: classify, select the best strategy, run it.
  struct MatchedRun {
    analyzer::MatchResult match;
    StrategyResult result;
  };
  MatchedRun run_matched();

  const StrategyOptions& options() const { return options_; }

  /// Probes every (kernel, device) pair with a few pinned chunk instances
  /// in fresh memory state and returns the observed rates — the profiling
  /// phase shared by DP-Perf, the SP-DAG planner, and decision explanation.
  RateTable probe_rates(int instances_per_pair) const;

  /// The accelerator Only-GPU runs on and the shared host link is
  /// profiled through. On 1-accelerator platforms this is THE accelerator.
  static constexpr hw::DeviceId kFirstAccelerator = 1;

 private:
  StrategyResult run_only(hw::DeviceId device, analyzer::StrategyKind kind);
  StrategyResult run_sp_single();
  StrategyResult run_sp_unified();
  StrategyResult run_sp_varied();
  StrategyResult run_sp_dag();
  StrategyResult run_dp(analyzer::StrategyKind kind);

  /// The measured executions — the ones options_.fault_plan perturbs.
  rt::ExecutionReport measured_execute_pinned(const rt::Program& program);
  rt::ExecutionReport measured_execute(const rt::Program& program,
                                       rt::Scheduler& scheduler);

  /// Submits the kernel at sequence position `kernel_index` as one
  /// contiguous slab per accelerator (front of the item space, device
  /// order) and m CPU instances over the tail, exactly following
  /// `items_per_device` (index 0 = CPU share).
  void submit_split(rt::Program& program, std::size_t kernel_index,
                    const std::vector<std::int64_t>& items_per_device) const;

  /// Profiles one kernel (or the fused sequence) on EVERY device in the
  /// platform (CPU first) and builds the input of
  /// glinda::solve_multi_partition; `total_items` is the item space the
  /// factory's slices index.
  glinda::MultiDeviceEstimate estimate_for(
      const glinda::SampleProgramFactory& factory,
      bool transfer_on_critical_path, std::int64_t total_items) const;

  StrategyResult finalize(
      analyzer::StrategyKind kind, rt::ExecutionReport report,
      std::vector<glinda::MultiPartitionDecision> decisions);

  void require_accelerator() const;

  apps::Application& app_;
  StrategyOptions options_;
};

}  // namespace hetsched::strategies
