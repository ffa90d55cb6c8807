#include "mem/coherence.hpp"

#include "common/error.hpp"

namespace hetsched::mem {

const char* access_mode_name(AccessMode mode) {
  switch (mode) {
    case AccessMode::kRead: return "in";
    case AccessMode::kWrite: return "out";
    case AccessMode::kReadWrite: return "inout";
  }
  return "unknown";
}

CoherenceDirectory::CoherenceDirectory(std::size_t space_count)
    : space_count_(space_count) {
  HS_REQUIRE(space_count >= 1, "need at least the host space");
}

BufferId CoherenceDirectory::register_buffer(std::string name,
                                             std::int64_t size_bytes) {
  HS_REQUIRE(size_bytes > 0, "buffer '" << name << "' size " << size_bytes);
  BufferState st;
  st.desc.id = buffers_.size();
  st.desc.name = std::move(name);
  st.desc.size_bytes = size_bytes;
  st.valid.resize(space_count_);
  st.valid[kHostSpace].insert({0, size_bytes});
  buffers_.push_back(std::move(st));
  return buffers_.back().desc.id;
}

const BufferDesc& CoherenceDirectory::buffer(BufferId id) const {
  return state(id).desc;
}

const CoherenceDirectory::BufferState& CoherenceDirectory::state(
    BufferId id) const {
  HS_REQUIRE(id < buffers_.size(), "unknown buffer id " << id);
  return buffers_[id];
}

CoherenceDirectory::BufferState& CoherenceDirectory::state(BufferId id) {
  HS_REQUIRE(id < buffers_.size(), "unknown buffer id " << id);
  return buffers_[id];
}

namespace {
void require_in_bounds(const BufferDesc& desc, const Region& region) {
  HS_REQUIRE(region.range.begin >= 0 && region.range.end <= desc.size_bytes,
             "region [" << region.range.begin << ", " << region.range.end
                        << ") outside buffer '" << desc.name << "' of size "
                        << desc.size_bytes);
}
}  // namespace

bool CoherenceDirectory::is_valid(const Region& region, SpaceId space) const {
  HS_REQUIRE(space < space_count_, "unknown space " << space);
  const BufferState& st = state(region.buffer);
  require_in_bounds(st.desc, region);
  return st.valid[space].covers(region.range);
}

std::vector<Interval> CoherenceDirectory::gaps_in_space(const Region& region,
                                                        SpaceId space) const {
  HS_REQUIRE(space < space_count_, "unknown space " << space);
  const BufferState& st = state(region.buffer);
  require_in_bounds(st.desc, region);
  std::vector<Interval> gaps;
  st.valid[space].for_each_gap(region.range,
                               [&gaps](Interval gap) { gaps.push_back(gap); });
  return gaps;
}

std::vector<TransferOp> CoherenceDirectory::plan_acquire(const Region& region,
                                                         SpaceId space) const {
  std::vector<TransferOp> plan;
  plan_acquire(region, space, plan);
  return plan;
}

void CoherenceDirectory::plan_acquire(const Region& region, SpaceId space,
                                      std::vector<TransferOp>& plan) const {
  HS_REQUIRE(space < space_count_, "unknown space " << space);
  const BufferState& st = state(region.buffer);
  require_in_bounds(st.desc, region);

  plan.clear();
  st.valid[space].for_each_gap(region.range, [&](Interval gap) {
    // Source each gap from valid holders, host first (cheapest path and the
    // common case: host always regains validity at sync points).
    source_gap(st, gap, space, plan);
    HS_ASSERT_MSG(scratch_.empty(),
                  "no valid copy anywhere for " << scratch_.measure()
                                                << " bytes of buffer '"
                                                << st.desc.name << "'");
  });
}

void CoherenceDirectory::source_gap(const BufferState& st, Interval gap,
                                    SpaceId dst,
                                    std::vector<TransferOp>& plan) const {
  scratch_.clear();
  scratch_.insert(gap);
  for (SpaceId src = 0; src < space_count_ && !scratch_.empty(); ++src) {
    if (src == dst) continue;
    st.valid[src].for_each_piece(gap, [&](Interval piece) {
      scratch_.for_each_piece(piece, [&](Interval usable) {
        plan.push_back(TransferOp{src, dst, Region{st.desc.id, usable}});
      });
      scratch_.erase(piece);
    });
  }
}

void CoherenceDirectory::apply(const TransferOp& op) {
  HS_REQUIRE(op.dst < space_count_ && op.src < space_count_,
             "unknown space in transfer");
  BufferState& st = state(op.region.buffer);
  require_in_bounds(st.desc, op.region);
  HS_ASSERT_MSG(st.valid[op.src].covers(op.region.range),
                "transfer source space " << op.src
                                         << " lost validity for buffer '"
                                         << st.desc.name << "'");
  st.valid[op.dst].insert(op.region.range);
}

void CoherenceDirectory::note_write(const Region& region, SpaceId space) {
  HS_REQUIRE(space < space_count_, "unknown space " << space);
  BufferState& st = state(region.buffer);
  require_in_bounds(st.desc, region);
  for (SpaceId s = 0; s < space_count_; ++s) {
    if (s == space) continue;
    st.valid[s].erase(region.range);
  }
  st.valid[space].insert(region.range);
}

std::vector<TransferOp> CoherenceDirectory::plan_flush_to_host() const {
  std::vector<TransferOp> plan;
  for (const BufferState& st : buffers_) {
    st.valid[kHostSpace].for_each_gap(
        {0, st.desc.size_bytes}, [&](Interval gap) {
          source_gap(st, gap, kHostSpace, plan);
          HS_ASSERT_MSG(scratch_.empty(),
                        "flush: no valid copy anywhere for buffer '"
                            << st.desc.name << "'");
        });
  }
  return plan;
}

void CoherenceDirectory::invalidate_device_copies() {
  for (BufferState& st : buffers_) {
    HS_ASSERT_MSG(st.valid[kHostSpace].covers({0, st.desc.size_bytes}),
                  "invalidate before flush completed for buffer '"
                      << st.desc.name << "'");
    for (SpaceId s = 1; s < space_count_; ++s) st.valid[s].clear();
  }
}

void CoherenceDirectory::reclaim_space_to_host(SpaceId space) {
  HS_REQUIRE(space < space_count_ && space != kHostSpace,
             "reclaim_space_to_host: space " << space);
  for (BufferState& st : buffers_) {
    st.valid[kHostSpace].insert(st.valid[space]);
    st.valid[space].clear();
  }
}

std::int64_t CoherenceDirectory::resident_bytes(SpaceId space) const {
  HS_REQUIRE(space < space_count_, "unknown space " << space);
  std::int64_t total = 0;
  for (const BufferState& st : buffers_) total += st.valid[space].measure();
  return total;
}

std::int64_t CoherenceDirectory::resident_bytes_of(BufferId buffer,
                                                   SpaceId space) const {
  HS_REQUIRE(space < space_count_, "unknown space " << space);
  return state(buffer).valid[space].measure();
}

std::vector<TransferOp> CoherenceDirectory::plan_evict(BufferId buffer,
                                                       SpaceId space) const {
  HS_REQUIRE(space < space_count_ && space != kHostSpace,
             "evicting from space " << space);
  const BufferState& st = state(buffer);
  std::vector<TransferOp> plan;
  st.valid[space].for_each_piece({0, st.desc.size_bytes}, [&](Interval piece) {
    // Only pieces valid in NO other space must travel.
    scratch_.clear();
    scratch_.insert(piece);
    for (SpaceId s = 0; s < space_count_; ++s) {
      if (s == space) continue;
      st.valid[s].for_each_piece(
          piece, [this](Interval covered) { scratch_.erase(covered); });
    }
    scratch_.for_each_piece(piece, [&](Interval lonely) {
      plan.push_back(TransferOp{space, kHostSpace, Region{buffer, lonely}});
    });
  });
  return plan;
}

void CoherenceDirectory::drop_copies(BufferId buffer, SpaceId space) {
  HS_REQUIRE(space < space_count_ && space != kHostSpace,
             "dropping from space " << space);
  BufferState& st = state(buffer);
  // Every other space's copies, together, must cover this space's.
  scratch_.clear();
  for (SpaceId s = 0; s < space_count_; ++s)
    if (s != space) scratch_.insert(st.valid[s]);
  st.valid[space].for_each_piece({0, st.desc.size_bytes}, [&](Interval piece) {
    HS_ASSERT_MSG(scratch_.covers(piece),
                  "dropping the only copy of bytes of buffer '"
                      << st.desc.name << "' — evict first");
  });
  st.valid[space].clear();
}

void CoherenceDirectory::check_no_byte_orphaned() const {
  for (const BufferState& st : buffers_) {
    scratch_.clear();
    for (const IntervalSet& per_space : st.valid) scratch_.insert(per_space);
    HS_ASSERT_MSG(scratch_.covers({0, st.desc.size_bytes}),
                  "buffer '" << st.desc.name
                             << "' has bytes valid in no space");
  }
}

}  // namespace hetsched::mem
