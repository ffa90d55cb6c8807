#include "runtime/task_graph.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "common/range_map.hpp"

namespace hetsched::rt {

namespace {

/// Per-buffer dependency bookkeeping during the submission sweep.
struct BufferTracker {
  /// Last task that wrote each byte range.
  RangeMap<TaskId> last_writer;
  /// Tasks that read each byte range since it was last written.
  /// (range, reader) records; written ranges are subtracted on writes.
  std::vector<std::pair<Interval, TaskId>> readers;
  /// Listed in `touched` since the last barrier.
  bool touched = false;
};

}  // namespace

TaskGraph::TaskGraph(const std::vector<KernelDef>& kernels,
                     const Program& program) {
  nodes_.reserve(program.ops().size());
  // Where each node's accesses start in accesses_. The array grows during
  // the sweep, so the nodes' views are set only once it ends.
  std::vector<std::size_t> access_offsets;
  access_offsets.reserve(program.ops().size() + 1);
  // Out-degree per task until the sweep ends; see the counting sort below.
  successor_offsets_.assign(program.ops().size() + 1, 0);
  std::vector<std::pair<TaskId, TaskId>> edges;
  // Indexed by BufferId; `touched` lists the buffers with state since the
  // last barrier, so a barrier clears those alone and keeps every
  // tracker's storage for the next phase.
  std::vector<BufferTracker> trackers;
  std::vector<mem::BufferId> touched;
  std::optional<TaskId> last_barrier;
  std::vector<TaskId> since_barrier;
  // Predecessors of the node being built. One task can be named several
  // times (by RAW, WAW and WAR, or once per span it wrote), so the list is
  // sorted and de-duplicated before the edges are added: one edge per pair,
  // and each successor list holds distinct ids.
  std::vector<TaskId> deps;

  const auto tracker_for = [&](mem::BufferId buffer) -> BufferTracker& {
    if (buffer >= trackers.size()) trackers.resize(buffer + 1);
    BufferTracker& tracker = trackers[buffer];
    if (!tracker.touched) {
      tracker.touched = true;
      touched.push_back(buffer);
    }
    return tracker;
  };

  for (const ProgramOp& op : program.ops()) {
    const TaskId id = nodes_.size();
    access_offsets.push_back(accesses_.size());
    TaskNode node;
    node.id = id;

    if (op.kind == ProgramOp::Kind::kTaskwait) {
      node.is_barrier = true;
      nodes_.push_back(std::move(node));
      // The barrier waits for everything since the previous barrier (earlier
      // work is covered transitively through that barrier). These ids are
      // all distinct.
      if (last_barrier) add_edge(*last_barrier, id, edges);
      for (TaskId dep : since_barrier) add_edge(dep, id, edges);
      last_barrier = id;
      since_barrier.clear();
      // A barrier flushes all device copies; subsequent tasks re-source data
      // from the host, and their ordering against pre-barrier tasks flows
      // through the barrier edge — so reset the data-dependency trackers.
      for (mem::BufferId buffer : touched) {
        BufferTracker& tracker = trackers[buffer];
        tracker.last_writer.clear();
        tracker.readers.clear();
        tracker.touched = false;
      }
      touched.clear();
      continue;
    }

    if (op.kind == ProgramOp::Kind::kHostOp) {
      node.is_host_op = true;
      node.host_body = op.host.body;
      accesses_.insert(accesses_.end(), op.host.accesses.begin(),
                       op.host.accesses.end());
      nodes_.push_back(std::move(node));
    } else {
      const SubmitOp& submit = op.submit;
      HS_REQUIRE(submit.kernel < kernels.size(),
                 "program references unknown kernel id " << submit.kernel);
      const KernelDef& kernel = kernels[submit.kernel];

      node.kernel = submit.kernel;
      node.begin = submit.begin;
      node.end = submit.end;
      node.pinned_device = submit.pinned_device;
      kernel.accesses(submit.begin, submit.end, accesses_);
      nodes_.push_back(std::move(node));
    }
    // This node's accesses; the view lasts until the next node appends.
    const auto accesses = std::span<const mem::RegionAccess>(accesses_)
                              .subspan(access_offsets[id]);

    deps.clear();
    if (last_barrier) deps.push_back(*last_barrier);

    for (const mem::RegionAccess& access : accesses) {
      if (access.region.empty()) continue;
      BufferTracker& tracker = tracker_for(access.region.buffer);
      const Interval range = access.region.range;

      // RAW (reads) and WAW (writes) on every overlapping earlier writer.
      tracker.last_writer.for_each_overlapping(
          range, [&deps](Interval, TaskId writer) { deps.push_back(writer); });
      if (access.writes()) {
        // WAR on readers since the last write; subtract the written range
        // from their records so they don't produce edges again. Records
        // compact in place; a record the write splits in two appends its
        // right-hand piece past the ones still to scan.
        auto& readers = tracker.readers;
        const std::size_t scanned = readers.size();
        std::size_t kept = 0;
        for (std::size_t r = 0; r < scanned; ++r) {
          const auto [read_range, reader] = readers[r];
          if (!read_range.overlaps(range)) {
            readers[kept++] = readers[r];
            continue;
          }
          deps.push_back(reader);
          const Interval left{read_range.begin, range.begin};
          const Interval right{range.end, read_range.end};
          if (!left.empty()) readers[kept++] = {left, reader};
          if (!right.empty()) {
            if (left.empty()) {
              readers[kept++] = {right, reader};
            } else {
              readers.emplace_back(right, reader);
            }
          }
        }
        readers.erase(
            readers.begin() + static_cast<std::ptrdiff_t>(kept),
            readers.begin() + static_cast<std::ptrdiff_t>(scanned));
      }
    }

    // Commit this task's effects after scanning all accesses, so a task
    // never depends on itself through its own inout regions.
    for (const mem::RegionAccess& access : accesses) {
      if (access.region.empty()) continue;
      BufferTracker& tracker = trackers[access.region.buffer];
      const Interval range = access.region.range;
      if (access.writes()) tracker.last_writer.assign(range, id);
      if (access.reads()) tracker.readers.emplace_back(range, id);
    }

    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    for (TaskId dep : deps) add_edge(dep, id, edges);
    since_barrier.push_back(id);
  }

  access_offsets.push_back(accesses_.size());
  for (TaskNode& node : nodes_)
    node.accesses = std::span<const mem::RegionAccess>(accesses_).subspan(
        access_offsets[node.id],
        access_offsets[node.id + 1] - access_offsets[node.id]);

  // Counting sort of the edges by source. Prefix sums turn each task's
  // out-degree into the end of its list; placing the edges backward then
  // walks every cursor down to its list's start. Edges were added in
  // non-decreasing target order, so each list comes out ascending.
  std::partial_sum(successor_offsets_.begin(), successor_offsets_.end(),
                   successor_offsets_.begin());
  successor_ids_.resize(edges.size());
  for (auto edge = edges.rbegin(); edge != edges.rend(); ++edge)
    successor_ids_[--successor_offsets_[edge->first]] = edge->second;
  check_acyclic();
}

bool TaskGraph::writeback_eligible(TaskId id, std::size_t access) const {
  const mem::RegionAccess& mine = nodes_[id].accesses[access];
  if (!mine.writes() || mine.region.empty()) return false;
  // The first later kernel or host op touching an overlapping range
  // decides; barriers are skipped. A kernel next keeps the data resident
  // for its consumer (if a taskwait intervenes, the barrier flushes it
  // synchronously: the OmpSs taskwait semantics that make per-kernel
  // synchronization expensive).
  for (TaskId later = id + 1; later < nodes_.size(); ++later) {
    const TaskNode& other = nodes_[later];
    if (other.is_barrier) continue;
    for (const mem::RegionAccess& theirs : other.accesses)
      if (theirs.region.buffer == mine.region.buffer &&
          theirs.region.range.overlaps(mine.region.range))
        return other.is_host_op;
  }
  return true;  // nothing later: program-tail output
}

void TaskGraph::add_edge(TaskId from, TaskId to,
                         std::vector<std::pair<TaskId, TaskId>>& edges) {
  HS_ASSERT_MSG(from < to, "dependency edge " << from << " -> " << to
                                              << " not forward in submission "
                                                 "order");
  edges.emplace_back(from, to);
  ++successor_offsets_[from];
  ++nodes_[to].predecessor_count;
  ++edge_count_;
}

std::vector<TaskId> TaskGraph::initial_ready() const {
  std::vector<TaskId> ready;
  for (const TaskNode& node : nodes_)
    if (node.predecessor_count == 0) ready.push_back(node.id);
  return ready;
}

void TaskGraph::check_acyclic() const {
  for (const TaskNode& node : nodes_)
    for (TaskId succ : successors(node.id))
      HS_ASSERT_MSG(succ > node.id, "backward edge " << node.id << " -> "
                                                     << succ);
}

}  // namespace hetsched::rt
