#pragma once

#include <cstddef>
#include <vector>

#include "runtime/task_graph.hpp"

/// Reference implementation of write-back eligibility: the eager analysis
/// TaskGraph ran over every node at construction before eligibility became
/// the on-demand `TaskGraph::writeback_eligible` query. The scan is kept
/// verbatim so the differential test can demand the same answer for every
/// access of every node.
namespace hetsched::reference {

/// Per node, parallel to its accesses: true for a write whose next
/// conflicting non-barrier use is host-side. Barriers get an empty list.
inline std::vector<std::vector<bool>> writeback_eligible(
    const std::vector<rt::TaskNode>& nodes) {
  std::vector<std::vector<bool>> flags(nodes.size());
  for (const rt::TaskNode& node : nodes) {
    if (node.is_barrier) continue;
    std::vector<bool>& eligible = flags[node.id];
    eligible.assign(node.accesses.size(), false);
    for (std::size_t a = 0; a < node.accesses.size(); ++a) {
      const mem::RegionAccess& access = node.accesses[a];
      if (!access.writes() || access.region.empty()) continue;

      // Find the first later kernel/host op touching an overlapping range.
      //  - host op next (or nothing at all): eager write-back; the copy
      //    overlaps the other devices' remaining compute.
      //  - kernel next: the data stays resident for its consumer; if a
      //    taskwait intervenes, the *barrier* flushes it synchronously
      //    (the OmpSs taskwait semantics that make per-kernel
      //    synchronization expensive).
      bool host_side_next = true;  // nothing later: program-tail output
      for (rt::TaskId later = node.id + 1; later < nodes.size(); ++later) {
        const rt::TaskNode& other = nodes[later];
        if (other.is_barrier) continue;
        bool overlaps = false;
        for (const mem::RegionAccess& theirs : other.accesses) {
          if (theirs.region.buffer == access.region.buffer &&
              theirs.region.range.overlaps(access.region.range)) {
            overlaps = true;
            break;
          }
        }
        if (overlaps) {
          host_side_next = other.is_host_op;
          break;
        }
      }
      eligible[a] = host_side_next;
    }
  }
  return flags;
}

}  // namespace hetsched::reference
