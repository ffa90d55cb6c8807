#include "strategies/dag_planner.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace hetsched::strategies {

DagPlanner::DagPlanner(const hw::PlatformSpec& platform, RateTable rates)
    : platform_(platform), rates_(std::move(rates)) {
  platform_.validate();
}

double DagPlanner::rate_of(rt::KernelId kernel, hw::DeviceId device) const {
  auto it = rates_.find({kernel, device});
  HS_REQUIRE(it != rates_.end(), "no profiled rate for kernel "
                                     << kernel << " on device " << device);
  HS_REQUIRE(it->second > 0.0, "non-positive rate for kernel " << kernel);
  return it->second;
}

double DagPlanner::task_seconds(const rt::TaskNode& node,
                                hw::DeviceId device) const {
  return static_cast<double>(node.items()) / rate_of(node.kernel, device);
}

double DagPlanner::transfer_seconds(const rt::TaskNode& node) const {
  // Bytes this task reads or writes, over the link: the cost of placing it
  // "wrong" relative to its data.
  std::int64_t bytes = 0;
  for (const auto& access : node.accesses) bytes += access.region.size_bytes();
  return static_cast<double>(bytes) / (platform_.link.bandwidth_gbs * 1e9);
}

DagPlan DagPlanner::plan(const std::vector<rt::KernelDef>& kernels,
                         const rt::Program& program) const {
  const rt::TaskGraph graph(kernels, program);
  const std::size_t count = graph.size();
  const std::size_t devices = platform_.device_count();

  // Mean execution cost per task (HEFT's w_i): average over devices, plus
  // half a transfer as the communication weight.
  std::vector<double> mean_cost(count, 0.0);
  for (const rt::TaskNode& node : graph.nodes()) {
    if (node.is_barrier || node.is_host_op) continue;
    double total = 0.0;
    for (hw::DeviceId d = 0; d < devices; ++d)
      total += task_seconds(node, d);
    mean_cost[node.id] =
        total / static_cast<double>(devices) + 0.5 * transfer_seconds(node);
  }

  // Upward rank: longest mean-cost path to a sink. Computed in reverse
  // submission order (every edge points forward).
  std::vector<double> rank(count, 0.0);
  for (std::size_t i = count; i-- > 0;) {
    double best_successor = 0.0;
    for (rt::TaskId succ : graph.successors(i))
      best_successor = std::max(best_successor, rank[succ]);
    rank[i] = mean_cost[i] + best_successor;
  }

  // List order: rank descending; ties in submission order (deterministic).
  std::vector<rt::TaskId> order(count);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](rt::TaskId a, rt::TaskId b) {
                     return rank[a] > rank[b];
                   });

  // EFT assignment. Per device: per-lane availability; per task: finish
  // time. Cross-device data adds the transfer estimate to the start.
  const auto specs = platform_.all_devices();
  std::vector<std::vector<double>> lane_avail(devices);
  for (std::size_t d = 0; d < devices; ++d)
    lane_avail[d].assign(static_cast<std::size_t>(specs[d].lanes), 0.0);

  std::vector<double> finish(count, 0.0);
  std::vector<hw::DeviceId> device_of(count, hw::kCpuDevice);
  std::vector<std::vector<rt::TaskId>> predecessors(count);
  for (rt::TaskId id = 0; id < count; ++id)
    for (rt::TaskId succ : graph.successors(id))
      predecessors[succ].push_back(id);

  DagPlan result;
  result.tasks_per_device.assign(devices, 0);
  double makespan = 0.0;

  for (rt::TaskId id : order) {
    const rt::TaskNode& node = graph.node(id);
    if (node.is_barrier || node.is_host_op) {
      // Synchronization/host nodes: finish when all predecessors have.
      double ready = 0.0;
      for (rt::TaskId pred : predecessors[id])
        ready = std::max(ready, finish[pred]);
      finish[id] = ready;
      continue;
    }
    double best_finish = 0.0;
    hw::DeviceId best_device = hw::kCpuDevice;
    std::size_t best_lane = 0;
    for (hw::DeviceId d = 0; d < devices; ++d) {
      // Data-ready: predecessors' finishes, plus a transfer if they sit on
      // another device (host handoff).
      double ready = 0.0;
      for (rt::TaskId pred : predecessors[id]) {
        double pred_ready = finish[pred];
        const rt::TaskNode& pred_node = graph.node(pred);
        if (!pred_node.is_barrier && !pred_node.is_host_op &&
            device_of[pred] != d && (device_of[pred] != 0 || d != 0)) {
          pred_ready += transfer_seconds(node);
        }
        ready = std::max(ready, pred_ready);
      }
      // Earliest lane of d.
      std::size_t lane = 0;
      for (std::size_t l = 1; l < lane_avail[d].size(); ++l)
        if (lane_avail[d][l] < lane_avail[d][lane]) lane = l;
      const double start = std::max(ready, lane_avail[d][lane]);
      const double end = start + task_seconds(node, d);
      if (best_finish == 0.0 || end < best_finish) {
        best_finish = end;
        best_device = d;
        best_lane = lane;
      }
    }
    device_of[id] = best_device;
    finish[id] = best_finish;
    lane_avail[best_device][best_lane] = best_finish;
    ++result.tasks_per_device[best_device];
    makespan = std::max(makespan, best_finish);
  }

  // Export in kernel-submission order.
  for (const rt::TaskNode& node : graph.nodes()) {
    if (node.is_barrier || node.is_host_op) continue;
    result.assignment.push_back(device_of[node.id]);
  }
  result.predicted_seconds = makespan;
  return result;
}

rt::Program DagPlanner::apply(const rt::Program& program,
                              const DagPlan& plan) const {
  rt::Program pinned;
  std::size_t index = 0;
  for (const rt::ProgramOp& op : program.ops()) {
    switch (op.kind) {
      case rt::ProgramOp::Kind::kSubmit:
        HS_REQUIRE(index < plan.assignment.size(),
                   "plan does not cover the program");
        pinned.submit(op.submit.kernel, op.submit.begin, op.submit.end,
                      plan.assignment[index++]);
        break;
      case rt::ProgramOp::Kind::kTaskwait:
        pinned.taskwait();
        break;
      case rt::ProgramOp::Kind::kHostOp:
        pinned.host_op(op.host.accesses, op.host.body);
        break;
    }
  }
  HS_REQUIRE(index == plan.assignment.size(),
             "plan covers more tasks than the program has");
  return pinned;
}

}  // namespace hetsched::strategies
