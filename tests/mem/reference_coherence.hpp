#pragma once

#include <cstdint>
#include <vector>

#include "mem/coherence.hpp"
#include "tests/common/reference_containers.hpp"

/// The coherence directory's validity bookkeeping and planners as they were
/// before planning walked the validity sets in place: every query returns a
/// vector, and each gap is sourced through a fresh IntervalSet of the bytes
/// still missing. The validity sets are the std::map reference sets of
/// tests/common/reference_containers.hpp, so the model shares no code with
/// the directory it checks. Kept for the differential test, which demands
/// that CoherenceDirectory plans the same ops in the same order.
namespace hetsched::mem::reference {

class CoherenceDirectory {
 public:
  explicit CoherenceDirectory(std::size_t space_count)
      : space_count_(space_count) {}

  BufferId register_buffer(std::int64_t size_bytes) {
    sizes_.push_back(size_bytes);
    valid_.emplace_back(space_count_);
    valid_.back()[kHostSpace].insert({0, size_bytes});
    return sizes_.size() - 1;
  }

  std::vector<TransferOp> plan_acquire(const Region& region,
                                       SpaceId space) const {
    const auto& valid = valid_[region.buffer];
    std::vector<TransferOp> plan;
    for (const Interval& gap : valid[space].gaps_within(region.range)) {
      hetsched::reference::IntervalSet remaining{gap};
      auto take_from = [&](SpaceId src) {
        if (src == space || remaining.empty()) return;
        for (const Interval& piece : valid[src].pieces_within(gap)) {
          for (const Interval& usable : remaining.pieces_within(piece)) {
            plan.push_back(
                TransferOp{src, space, Region{region.buffer, usable}});
          }
          remaining.erase(piece);
        }
      };
      take_from(kHostSpace);
      for (SpaceId src = 1; src < space_count_ && !remaining.empty(); ++src)
        take_from(src);
    }
    return plan;
  }

  std::vector<TransferOp> plan_flush_to_host() const {
    std::vector<TransferOp> plan;
    for (BufferId buffer = 0; buffer < valid_.size(); ++buffer) {
      const auto& valid = valid_[buffer];
      for (const Interval& gap :
           valid[kHostSpace].gaps_within({0, sizes_[buffer]})) {
        hetsched::reference::IntervalSet remaining{gap};
        for (SpaceId src = 1; src < space_count_ && !remaining.empty();
             ++src) {
          for (const Interval& piece : valid[src].pieces_within(gap)) {
            for (const Interval& usable : remaining.pieces_within(piece)) {
              plan.push_back(
                  TransferOp{src, kHostSpace, Region{buffer, usable}});
            }
            remaining.erase(piece);
          }
        }
      }
    }
    return plan;
  }

  std::vector<TransferOp> plan_evict(BufferId buffer, SpaceId space) const {
    const auto& valid = valid_[buffer];
    std::vector<TransferOp> plan;
    for (const Interval& piece :
         valid[space].pieces_within({0, sizes_[buffer]})) {
      hetsched::reference::IntervalSet lonely{piece};
      for (SpaceId s = 0; s < space_count_; ++s) {
        if (s == space) continue;
        for (const Interval& covered : valid[s].pieces_within(piece))
          lonely.erase(covered);
      }
      for (const Interval& range : lonely.to_vector())
        plan.push_back(TransferOp{space, kHostSpace, Region{buffer, range}});
    }
    return plan;
  }

  void apply(const TransferOp& op) {
    valid_[op.region.buffer][op.dst].insert(op.region.range);
  }

  void note_write(const Region& region, SpaceId space) {
    auto& valid = valid_[region.buffer];
    for (SpaceId s = 0; s < space_count_; ++s)
      if (s != space) valid[s].erase(region.range);
    valid[space].insert(region.range);
  }

  void invalidate_device_copies() {
    for (auto& valid : valid_)
      for (SpaceId s = 1; s < space_count_; ++s)
        valid[s] = hetsched::reference::IntervalSet{};
  }

  void reclaim_space_to_host(SpaceId space) {
    for (auto& valid : valid_) {
      valid[kHostSpace].insert(valid[space]);
      valid[space] = hetsched::reference::IntervalSet{};
    }
  }

  void drop_copies(BufferId buffer, SpaceId space) {
    valid_[buffer][space] = hetsched::reference::IntervalSet{};
  }

  std::int64_t resident_bytes_of(BufferId buffer, SpaceId space) const {
    return valid_[buffer][space].measure();
  }

 private:
  std::size_t space_count_;
  std::vector<std::int64_t> sizes_;
  /// valid_[buffer][space]: the bytes of `buffer` valid in `space`.
  std::vector<std::vector<hetsched::reference::IntervalSet>> valid_;
};

}  // namespace hetsched::mem::reference
