#include "strategies/strategy_runner.hpp"

#include <algorithm>
#include <memory>

#include "analyzer/ranking.hpp"
#include "glinda/profile.hpp"
#include "runtime/schedulers/breadth_first.hpp"
#include "runtime/schedulers/perf_aware.hpp"

namespace hetsched::strategies {

using analyzer::StrategyKind;

namespace {

/// Arms the application's executor with the strategy's fault plan for the
/// duration of one measured execution. Profiling probes share the same
/// executor, so scoping the plan this tightly is what keeps them on the
/// healthy platform.
class FaultPlanGuard {
 public:
  FaultPlanGuard(rt::Executor& executor,
                 const std::optional<faults::FaultPlan>& plan)
      : executor_(executor), armed_(plan.has_value()) {
    if (armed_) executor_.set_fault_plan(*plan);
  }
  ~FaultPlanGuard() {
    if (armed_) executor_.set_fault_plan(std::nullopt);
  }
  FaultPlanGuard(const FaultPlanGuard&) = delete;
  FaultPlanGuard& operator=(const FaultPlanGuard&) = delete;

 private:
  rt::Executor& executor_;
  bool armed_;
};

/// Arms a fresh ExploreStrategy for one measured execution. Fresh per run
/// so decision sites are numbered from zero each time (replay fidelity),
/// and scoped like the fault plan so profiling probes stay on the
/// canonical schedule.
class ExploreGuard {
 public:
  ExploreGuard(rt::Executor& executor, const rt::ExploreSpec& spec)
      : executor_(executor) {
    if (spec.active()) {
      strategy_ = std::make_unique<rt::ExploreStrategy>(spec);
      executor_.set_explore(strategy_.get());
    }
  }
  ~ExploreGuard() {
    if (strategy_) executor_.set_explore(nullptr);
  }
  ExploreGuard(const ExploreGuard&) = delete;
  ExploreGuard& operator=(const ExploreGuard&) = delete;

 private:
  rt::Executor& executor_;
  std::unique_ptr<rt::ExploreStrategy> strategy_;
};

}  // namespace

rt::ExecutionReport StrategyRunner::measured_execute_pinned(
    const rt::Program& program) {
  FaultPlanGuard guard(app_.executor(), options_.fault_plan);
  ExploreGuard explore(app_.executor(), options_.explore);
  return app_.executor().execute_pinned(program);
}

rt::ExecutionReport StrategyRunner::measured_execute(
    const rt::Program& program, rt::Scheduler& scheduler) {
  FaultPlanGuard guard(app_.executor(), options_.fault_plan);
  ExploreGuard explore(app_.executor(), options_.explore);
  return app_.executor().execute(program, scheduler);
}

StrategyRunner::StrategyRunner(apps::Application& app,
                               StrategyOptions options)
    : app_(app), options_(options) {
  HS_REQUIRE(options_.task_count >= 1,
             "task_count=" << options_.task_count);
}

void StrategyRunner::require_accelerator() const {
  HS_REQUIRE(app_.executor().platform().device_count() >= 2,
             "strategy needs an accelerator; platform '"
                 << app_.executor().platform().name << "' has none");
}

void StrategyRunner::require_applicable(StrategyKind kind) const {
  // Every strategy but Only-CPU places work on an accelerator.
  if (kind != StrategyKind::kOnlyCpu) require_accelerator();
  const std::size_t kernels = app_.kernels().size();
  if (kind == StrategyKind::kSPSingle) {
    HS_REQUIRE(kernels == 1,
               "SP-Single applies to single-kernel applications; '"
                   << app_.name() << "' has " << kernels);
  } else if (kind == StrategyKind::kSPUnified ||
             kind == StrategyKind::kSPVaried) {
    HS_REQUIRE(kernels > 1, analyzer::strategy_name(kind)
                                << " applies to multi-kernel applications");
  }
}

StrategyPlan StrategyRunner::plan(StrategyKind kind) const {
  require_applicable(kind);
  StrategyPlan plan;
  plan.kind = kind;
  app_.reset_data();
  switch (kind) {
    case StrategyKind::kSPSingle:
      plan.decisions.push_back(plan_sp_single());
      break;
    case StrategyKind::kSPUnified:
      plan.decisions.push_back(plan_sp_unified());
      break;
    case StrategyKind::kSPVaried:
      plan.decisions = plan_sp_varied();
      break;
    case StrategyKind::kSPDag:
      // Profile every (kernel, device) pair and plan the chunked task graph
      // with the HEFT-style planner.
      plan.rates = probe_rates();
      plan.dag = DagPlanner(app_.executor().platform(), plan.rates)
                     .plan(app_.executor().kernels(), chunked_program());
      break;
    case StrategyKind::kDPPerf:
      // The paper's profiling phase gives each device 3 task instances of
      // the dynamic task size per kernel, excluded from the reported time
      // (Section IV-A2). Here one probe per (kernel, device) observes the
      // same rate: profiling sees neither the fault plan nor the explore
      // spec, and every probe starts from fresh memory, so repeats would
      // replay the same virtual time.
      plan.rates = probe_rates();
      break;
    case StrategyKind::kOnlyCpu:
    case StrategyKind::kOnlyGpu:
    case StrategyKind::kDPDep:
      break;  // nothing to decide ahead of the run
  }
  return plan;
}

StrategyResult StrategyRunner::execute(const StrategyPlan& plan) {
  require_applicable(plan.kind);
  app_.reset_data();
  rt::ExecutionReport report;
  if (plan.kind == StrategyKind::kDPDep) {
    rt::BreadthFirstScheduler scheduler;
    report = measured_execute(chunked_program(), scheduler);
  } else if (plan.kind == StrategyKind::kDPPerf) {
    rt::PerfAwareScheduler scheduler;
    for (const auto& [pair, rate] : plan.rates)
      scheduler.seed_estimate(pair.first, pair.second, rate);
    report = measured_execute(chunked_program(), scheduler);
  } else {
    report = measured_execute_pinned(pinned_program(plan));
  }
  return finalize(plan.kind, std::move(report), plan.decisions);
}

StrategyResult StrategyRunner::run(StrategyKind kind) {
  return execute(plan(kind));
}

std::map<StrategyKind, StrategyResult>
StrategyRunner::run_ranked_and_baselines() {
  const analyzer::MatchResult match =
      analyzer::Matchmaker{}.match(app_.descriptor());
  // The paper's "w sync" scenario flips the suitable-strategy ranking row.
  const auto ranking = analyzer::ranked_strategies(
      match.app_class,
      app_.descriptor().inter_kernel_sync() || options_.sync_between_kernels);
  std::map<StrategyKind, StrategyResult> results;
  for (StrategyKind kind : ranking) results.emplace(kind, run(kind));
  results.emplace(StrategyKind::kOnlyCpu, run(StrategyKind::kOnlyCpu));
  results.emplace(StrategyKind::kOnlyGpu, run(StrategyKind::kOnlyGpu));
  return results;
}

StrategyRunner::MatchedRun StrategyRunner::run_matched() {
  MatchedRun matched;
  analyzer::AppDescriptor descriptor = app_.descriptor();
  if (options_.sync_between_kernels &&
      descriptor.sync == analyzer::SyncReason::kNone) {
    // The scenario adds synchronization the application didn't have.
    descriptor.sync = analyzer::SyncReason::kHostPostProcessing;
  }
  matched.match = analyzer::Matchmaker{}.match(descriptor);
  matched.result = run(matched.match.best);
  return matched;
}

StrategyResult StrategyRunner::finalize(
    StrategyKind kind, rt::ExecutionReport report,
    std::vector<glinda::MultiPartitionDecision> decisions) const {
  StrategyResult result;
  result.kind = kind;
  // "GPU share" counts all accelerators (everything that is not the CPU).
  result.gpu_fraction_overall =
      1.0 - report.overall_fraction(hw::kCpuDevice);
  result.gpu_fraction_per_kernel.reserve(app_.kernels().size());
  for (rt::KernelId kernel : app_.kernels())
    result.gpu_fraction_per_kernel.push_back(
        1.0 - report.partition_fraction(hw::kCpuDevice, kernel));
  result.report = std::move(report);
  result.decisions = std::move(decisions);
  return result;
}

rt::Program StrategyRunner::chunked_program() const {
  const int m = options_.task_count;
  const auto submit = [&](rt::Program& program, std::size_t index,
                          rt::KernelId k) {
    program.submit_chunked(k, 0, app_.items_of(index), m);
  };
  return app_.build_program(submit, options_.sync_between_kernels);
}

rt::Program StrategyRunner::pinned_program(const StrategyPlan& plan) const {
  const int m = options_.task_count;
  switch (plan.kind) {
    case StrategyKind::kOnlyCpu:
    case StrategyKind::kOnlyGpu: {
      const hw::DeviceId device = plan.kind == StrategyKind::kOnlyCpu
                                      ? hw::kCpuDevice
                                      : kFirstAccelerator;
      const auto submit = [&](rt::Program& program, std::size_t index,
                              rt::KernelId k) {
        const std::int64_t n = app_.items_of(index);
        if (device == hw::kCpuDevice) {
          for (int i = 0; i < m; ++i) {
            program.submit(k, n * i / m, n * (i + 1) / m, hw::kCpuDevice);
          }
        } else {
          program.submit(k, 0, n, device);
        }
      };
      return app_.build_program(submit, options_.sync_between_kernels);
    }
    case StrategyKind::kSPSingle: {
      HS_REQUIRE(plan.decisions.size() == 1, "SP-Single plan needs 1 decision");
      const auto submit = [&](rt::Program& program, std::size_t index,
                              rt::KernelId) {
        submit_split(program, index, plan.decisions[0].items_per_device);
      };
      return app_.build_program(submit, options_.sync_between_kernels);
    }
    case StrategyKind::kSPUnified: {
      HS_REQUIRE(plan.decisions.size() == 1,
                 "SP-Unified plan needs 1 decision");
      // One unified partitioning POINT: each accelerator gets the same
      // fraction of every kernel's item space (identical counts when
      // kernels share the item space; proportional for multi-pass
      // kernels), and the CPU absorbs the rounding remainder.
      const glinda::MultiPartitionDecision& decision = plan.decisions[0];
      const std::int64_t total = app_.items();
      const auto submit = [&](rt::Program& program, std::size_t index,
                              rt::KernelId) {
        const std::int64_t nk = app_.items_of(index);
        std::vector<std::int64_t> items(decision.device_count(), 0);
        std::int64_t assigned = 0;
        for (std::size_t d = 1; d < decision.device_count(); ++d) {
          auto share = static_cast<std::int64_t>(
              decision.share(d, total) * static_cast<double>(nk) + 0.5);
          share = std::min(share, nk - assigned);
          items[d] = share;
          assigned += share;
        }
        items[hw::kCpuDevice] = nk - assigned;
        submit_split(program, index, items);
      };
      return app_.build_program(submit, options_.sync_between_kernels);
    }
    case StrategyKind::kSPVaried: {
      HS_REQUIRE(plan.decisions.size() == app_.kernels().size(),
                 "SP-Varied plan needs one decision per kernel");
      const auto submit = [&](rt::Program& program, std::size_t index,
                              rt::KernelId) {
        submit_split(program, index, plan.decisions[index].items_per_device);
      };
      // SP-Varied requires inter-kernel synchronization by construction.
      return app_.build_program(submit, /*sync_between_kernels=*/true);
    }
    case StrategyKind::kSPDag:
      return DagPlanner(app_.executor().platform(), plan.rates)
          .apply(chunked_program(), plan.dag);
    case StrategyKind::kDPDep:
    case StrategyKind::kDPPerf:
      break;
  }
  throw InvalidArgument(std::string(analyzer::strategy_name(plan.kind)) +
                        " does not run a pinned program");
}

void StrategyRunner::submit_split(
    rt::Program& program, std::size_t kernel_index,
    const std::vector<std::int64_t>& items_per_device) const {
  HS_REQUIRE(items_per_device.size() ==
                 app_.executor().platform().device_count(),
             "split over " << items_per_device.size() << " devices on a "
                           << app_.executor().platform().device_count()
                           << "-device platform");
  const rt::KernelId kernel = app_.kernels()[kernel_index];
  // Accelerators take contiguous slabs from the front, in device order;
  // the CPU's tail slab is split into m instances.
  std::int64_t cursor = 0;
  for (hw::DeviceId d = 1; d < items_per_device.size(); ++d) {
    const std::int64_t items = items_per_device[d];
    if (items > 0) program.submit(kernel, cursor, cursor + items, d);
    cursor += items;
  }
  const std::int64_t cpu_items = items_per_device[hw::kCpuDevice];
  const int m = options_.task_count;
  for (int i = 0; i < m && cpu_items > 0; ++i) {
    program.submit(kernel, cursor + cpu_items * i / m,
                   cursor + cpu_items * (i + 1) / m, hw::kCpuDevice);
  }
}

glinda::MultiDeviceEstimate StrategyRunner::estimate_for(
    const glinda::SampleProgramFactory& factory,
    bool transfer_on_critical_path, std::int64_t total_items) const {
  glinda::Profiler profiler(options_.profile);
  rt::Executor& executor = app_.executor();
  const hw::PlatformSpec& platform = executor.platform();
  glinda::MultiDeviceEstimate estimate;
  estimate.transfer_on_critical_path = transfer_on_critical_path;
  estimate.devices.reserve(platform.device_count());
  for (hw::DeviceId d = 0; d < platform.device_count(); ++d) {
    estimate.devices.push_back(
        profiler.profile_device(executor, factory, d, total_items));
  }
  // All accelerators share the one host link; the first accelerator's
  // samples observe that shared channel.
  const double link =
      estimate.devices[kFirstAccelerator].link_bytes_per_second;
  estimate.link_bytes_per_second =
      link > 0.0 ? link : platform.link.bandwidth_gbs * 1e9;
  return estimate;
}

glinda::MultiPartitionDecision StrategyRunner::plan_sp_single() const {
  // Profiling one iteration captures exactly the per-iteration transfer
  // pattern (SK-Loop applications pay them every iteration).
  const glinda::MultiDeviceEstimate estimate =
      estimate_for(app_.single_kernel_factory(0),
                   /*transfer_on_critical_path=*/true, app_.items());
  // Imbalanced applications publish their prefix-weight function and get
  // the work-balancing solver on two-device platforms; uniform ones get
  // the closed form.
  return glinda::solve_multi_partition(estimate, app_.items(),
                                       glinda::PartitionOptions{},
                                       app_.prefix_weight());
}

glinda::MultiPartitionDecision StrategyRunner::plan_sp_unified() const {
  // The kernels are regarded as one fused kernel. In a main loop without
  // per-iteration synchronization, data stays resident across iterations,
  // so the unified partitioning is determined without the data transfers
  // (paper Section IV-B4); one-shot sequences keep them on the path.
  const bool transfers_on_path =
      !(app_.iterations() > 1 && !app_.sync_each_iteration());
  const glinda::MultiDeviceEstimate estimate =
      estimate_for(app_.fused_factory(), transfers_on_path, app_.items());
  return glinda::solve_multi_partition(estimate, app_.items());
}

std::vector<glinda::MultiPartitionDecision> StrategyRunner::plan_sp_varied()
    const {
  // Per-kernel optimal splits; each kernel is profiled in isolation, with
  // its transfers on the critical path (the synchronization between kernels
  // flushes data home every time).
  const std::size_t device_count = app_.executor().platform().device_count();
  std::vector<glinda::MultiPartitionDecision> decisions;
  decisions.reserve(app_.kernels().size());
  for (std::size_t k = 0; k < app_.kernels().size(); ++k) {
    const std::int64_t nk = app_.items_of(k);
    if (nk < 4) {
      // Too narrow to profile or to feed an accelerator: the hardware-
      // configuration decision is Only-CPU without measurement.
      glinda::MultiPartitionDecision tiny;
      tiny.items_per_device.assign(device_count, 0);
      tiny.items_per_device[hw::kCpuDevice] = nk;
      decisions.push_back(std::move(tiny));
      continue;
    }
    const glinda::MultiDeviceEstimate estimate =
        estimate_for(app_.single_kernel_factory(k),
                     /*transfer_on_critical_path=*/true, nk);
    decisions.push_back(glinda::solve_multi_partition(estimate, nk));
  }
  return decisions;
}

RateTable StrategyRunner::probe_rates() const {
  // Each probe runs in a fresh memory state, so the observed rate includes
  // the transfer latencies a real instance pays.
  RateTable rates;
  const std::size_t devices = app_.executor().platform().device_count();
  for (std::size_t k = 0; k < app_.kernels().size(); ++k) {
    const rt::KernelId kernel = app_.kernels()[k];
    const std::int64_t chunk = std::max<std::int64_t>(
        1, app_.items_of(k) / options_.task_count);
    for (hw::DeviceId device = 0; device < devices; ++device) {
      rt::Program probe_program;
      probe_program.submit(kernel, 0, chunk, device);
      probe_program.taskwait();
      const double seconds = to_seconds(
          app_.executor().execute_pinned(probe_program).makespan);
      if (seconds > 0.0)
        rates[{kernel, device}] = static_cast<double>(chunk) / seconds;
    }
  }
  return rates;
}

}  // namespace hetsched::strategies
