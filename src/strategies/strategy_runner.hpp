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
/// strategy first plans — runs any profiling it needs and decides the
/// split — then shapes a Program (how the item space is chunked and where
/// the chunks are pinned), executes it once under measurement, and reports.
///
/// Implementation map (paper -> this module; plan() | execute()):
///   SP-Single   Glinda profiling + optimal split of the single kernel |
///               each accelerator's slab is one pinned instance, the CPU
///               side is m pinned instances (one per thread).
///   SP-Unified  The kernels are fused for profiling; one unified split |
///               applied to every kernel; no synchronization between
///               kernels, so data stays resident per device.
///   SP-Varied   Each kernel is profiled and split separately | a taskwait
///               separates kernels (SP-Varied requires synchronization).
///   SP-DAG      Probed (kernel, device) rates + a HEFT-style assignment |
///               the fully pinned task graph.
///   DP-Dep      nothing | chunked, unpinned submission under the
///               breadth-first / locality scheduler.
///   DP-Perf     The paper's profiling phase gives each device 3 task
///               instances per kernel, excluded from the reported time; one
///               fresh-memory probe per (kernel, device) observes the same
///               rate here, since profiling sees no fault plan or explore
///               spec | chunked, unpinned submission under the
///               performance-aware scheduler seeded with those rates.
///   Only-CPU /  nothing | all work pinned to one device (the paper's
///   Only-GPU    baseline executions).
///
/// Profiling never sees StrategyOptions::fault_plan or ::explore, so a
/// faulted run's plan is its fault-free twin's: the sweep engine and
/// `hetsched_cli metrics --plan` execute the twin's plan instead of
/// profiling again.
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

/// Everything a strategy decides before its measured execution. A plan
/// depends only on the application, its platform and the StrategyOptions
/// other than fault_plan and explore, so any runner over an equal
/// application configuration may execute it.
struct StrategyPlan {
  analyzer::StrategyKind kind = analyzer::StrategyKind::kOnlyCpu;
  /// Glinda decisions: one per kernel for SP-Varied, a single entry for
  /// SP-Single and SP-Unified, none otherwise.
  std::vector<glinda::MultiPartitionDecision> decisions;
  /// Probed (kernel, device) rates: DP-Perf's scheduler seeds and the
  /// SP-DAG planner's input; empty otherwise.
  RateTable rates;
  /// SP-DAG's pinned assignment, planned from `rates`.
  DagPlan dag;

  bool operator==(const StrategyPlan&) const = default;
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

  /// Runs every profiling execution `kind` needs and makes its decisions,
  /// on the healthy canonical platform. Throws InvalidArgument if the
  /// strategy is not applicable to the application's class (e.g. SP-Single
  /// on a multi-kernel app) or platform.
  StrategyPlan plan(analyzer::StrategyKind kind) const;

  /// Builds the program `plan` decided and runs the one measured execution,
  /// with the fault plan and explore spec armed, and reports.
  StrategyResult execute(const StrategyPlan& plan);

  /// One strategy end to end: execute(plan(kind)).
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

  /// Probes every (kernel, device) pair with one pinned chunk instance in
  /// fresh memory state and returns the observed rates — the profiling
  /// phase shared by DP-Perf, the SP-DAG planner, and decision explanation.
  RateTable probe_rates() const;

  /// The accelerator Only-GPU runs on and the shared host link is
  /// profiled through. On 1-accelerator platforms this is THE accelerator.
  static constexpr hw::DeviceId kFirstAccelerator = 1;

 private:
  /// Throws InvalidArgument unless `kind` applies to this application and
  /// platform.
  void require_applicable(analyzer::StrategyKind kind) const;

  glinda::MultiPartitionDecision plan_sp_single() const;
  glinda::MultiPartitionDecision plan_sp_unified() const;
  std::vector<glinda::MultiPartitionDecision> plan_sp_varied() const;

  /// The application's program with every kernel submitted as m unpinned
  /// chunks (DP-Dep, DP-Perf, and SP-DAG before planning).
  rt::Program chunked_program() const;

  /// The program each static strategy pins from its plan.
  rt::Program pinned_program(const StrategyPlan& plan) const;

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
      std::vector<glinda::MultiPartitionDecision> decisions) const;

  void require_accelerator() const;

  apps::Application& app_;
  StrategyOptions options_;
};

}  // namespace hetsched::strategies
