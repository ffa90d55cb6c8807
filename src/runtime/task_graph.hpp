#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "mem/region.hpp"
#include "runtime/kernel.hpp"
#include "runtime/program.hpp"

/// Task-instance dependency graph.
///
/// Built from a Program's submission stream by region-overlap analysis, the
/// way the OmpSs runtime derives its task dependency graph from `in`/`out`/
/// `inout` clauses:
///   - RAW: a reader depends on every earlier writer of an overlapping range
///   - WAW: a writer depends on every earlier writer of an overlapping range
///   - WAR: a writer depends on every earlier reader-since-last-write of an
///          overlapping range
/// `taskwait` inserts a barrier node: it depends on everything submitted
/// since the previous barrier, and everything after depends on it.
namespace hetsched::rt {

using TaskId = std::size_t;

struct TaskNode {
  TaskId id = 0;
  bool is_barrier = false;
  bool is_host_op = false;
  std::function<void()> host_body;  ///< valid for host-op nodes

  // Valid for kernel-task nodes:
  KernelId kernel = 0;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::optional<hw::DeviceId> pinned_device;
  /// Kernel-task and host-op nodes: a view into the graph's one access
  /// array, valid while the graph lives. Empty for barriers.
  std::span<const mem::RegionAccess> accesses;

  std::size_t predecessor_count = 0;

  std::int64_t items() const { return end - begin; }
};

class TaskGraph {
 public:
  /// `kernels[k]` must be the definition for KernelId k referenced by the
  /// program. Throws InvalidArgument on out-of-range kernel ids.
  TaskGraph(const std::vector<KernelDef>& kernels, const Program& program);

  // The nodes view the graph's access array: a copy would view the
  // original's, while a move keeps the array and the views in step.
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;
  TaskGraph(TaskGraph&&) = default;
  TaskGraph& operator=(TaskGraph&&) = default;

  const std::vector<TaskNode>& nodes() const { return nodes_; }
  const TaskNode& node(TaskId id) const { return nodes_[id]; }
  std::size_t size() const { return nodes_.size(); }

  /// The tasks that depend on `id`, ascending, each named once.
  std::span<const TaskId> successors(TaskId id) const {
    return {successor_ids_.data() + successor_offsets_[id],
            successor_ids_.data() + successor_offsets_[id + 1]};
  }

  /// Tasks with no predecessors, in submission order.
  std::vector<TaskId> initial_ready() const;

  /// True when access `access` of task `id` writes a non-empty region whose
  /// next conflicting non-barrier use in program order is host-side: a host
  /// op, or nothing at all. Such a region is a final output as far as the
  /// devices are concerned; the executor writes it back to the host as soon
  /// as an accelerator completes the task, overlapping the copy with the
  /// remaining compute (the asynchronous write-back of OmpSs-era runtimes).
  /// A region that a later kernel reads or rewrites stays resident, even
  /// across a taskwait, which then flushes it synchronously. Reads and
  /// empty regions are never eligible. Each call scans forward from `id`.
  bool writeback_eligible(TaskId id, std::size_t access) const;

  std::size_t edge_count() const { return edge_count_; }

  /// Structural invariant: every edge points forward in submission order
  /// (which guarantees acyclicity). Throws InternalError on violation.
  void check_acyclic() const;

 private:
  /// Appends (from, to) to `edges`, the edge list in the order added.
  void add_edge(TaskId from, TaskId to,
                std::vector<std::pair<TaskId, TaskId>>& edges);

  std::vector<TaskNode> nodes_;
  /// Every node's accesses, in node order; TaskNode::accesses views it.
  std::vector<mem::RegionAccess> accesses_;
  std::size_t edge_count_ = 0;
  /// Successor lists in one array (CSR): task id's successors are
  /// successor_ids_[successor_offsets_[id], successor_offsets_[id + 1]).
  std::vector<std::size_t> successor_offsets_;
  std::vector<TaskId> successor_ids_;
};

}  // namespace hetsched::rt
