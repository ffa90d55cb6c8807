// Differential test: CoherenceDirectory's planners, which walk the validity
// sets in place and source every gap through one scratch set, against the
// vector-based planners they replaced (tests/mem/reference_coherence.hpp).
// Seeded random sequences of registrations, acquires, writes, taskwait
// flushes, device-loss reclaims and evictions drive both directories in
// lockstep; after every step both must plan the same transfers — source,
// destination, region and order — and hold the same bytes in every space.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "mem/coherence.hpp"
#include "tests/mem/reference_coherence.hpp"

namespace hetsched::mem {
namespace {

using Op = std::tuple<SpaceId, SpaceId, BufferId, std::int64_t, std::int64_t>;

std::vector<Op> ops_of(const std::vector<TransferOp>& plan) {
  std::vector<Op> ops;
  for (const TransferOp& op : plan)
    ops.emplace_back(op.src, op.dst, op.region.buffer, op.region.range.begin,
                     op.region.range.end);
  return ops;
}

/// How often the sequences reached the paths worth checking, so a
/// generator that stops producing them fails loudly.
struct Tally {
  int multi_gap_acquires = 0;
  int device_sourced_ops = 0;
  int flush_ops = 0;
  int evict_ops = 0;
};

/// The directory under test and the reference, driven in lockstep.
class Lockstep {
 public:
  Lockstep(std::size_t spaces, Rng& rng)
      : spaces_(spaces), flat_(spaces), ref_(spaces), rng_(rng) {}

  std::size_t buffer_count() const { return sizes_.size(); }

  void register_buffer() {
    // Sizes on an 8-byte grain, like the regions below, so that separate
    // writes and acquires often share edges.
    const std::int64_t size = rng_.uniform_int(4, 32) * 8;
    flat_.register_buffer("b" + std::to_string(sizes_.size()), size);
    ref_.register_buffer(size);
    sizes_.push_back(size);
  }

  BufferId any_buffer() {
    return static_cast<BufferId>(
        rng_.uniform_int(0, static_cast<std::int64_t>(sizes_.size()) - 1));
  }
  SpaceId any_space() {
    return static_cast<SpaceId>(
        rng_.uniform_int(0, static_cast<std::int64_t>(spaces_) - 1));
  }
  SpaceId any_device() {
    return static_cast<SpaceId>(
        rng_.uniform_int(1, static_cast<std::int64_t>(spaces_) - 1));
  }

  /// A region of `buffer`: mostly on the 8-byte grain, sometimes ragged,
  /// sometimes empty or the whole buffer.
  Region any_region(BufferId buffer) {
    const std::int64_t size = sizes_[buffer];
    const double kind = rng_.uniform();
    if (kind < 0.1) return {buffer, {0, size}};
    if (kind < 0.15) {
      const std::int64_t p = rng_.uniform_int(0, size);
      return {buffer, {p, p}};
    }
    const std::int64_t grain = kind < 0.8 ? 8 : 1;
    const std::int64_t a = rng_.uniform_int(0, size / grain) * grain;
    const std::int64_t b = rng_.uniform_int(0, size / grain) * grain;
    return {buffer, {std::min(a, b), std::max(a, b)}};
  }

  void acquire(Tally& tally) {
    const Region region = any_region(any_buffer());
    const SpaceId space = any_space();
    if (flat_.gaps_in_space(region, space).size() > 1)
      ++tally.multi_gap_acquires;
    const std::vector<TransferOp> plan = flat_.plan_acquire(region, space);
    ASSERT_EQ(ops_of(plan), ops_of(ref_.plan_acquire(region, space)));
    for (const TransferOp& op : plan) {
      if (op.src != kHostSpace) ++tally.device_sourced_ops;
      flat_.apply(op);
      ref_.apply(op);
    }
  }

  void write() {
    const Region region = any_region(any_buffer());
    const SpaceId space = any_space();
    flat_.note_write(region, space);
    ref_.note_write(region, space);
  }

  void flush_and_invalidate(Tally& tally) {
    const std::vector<TransferOp> plan = flat_.plan_flush_to_host();
    ASSERT_EQ(ops_of(plan), ops_of(ref_.plan_flush_to_host()));
    tally.flush_ops += static_cast<int>(plan.size());
    for (const TransferOp& op : plan) {
      flat_.apply(op);
      ref_.apply(op);
    }
    flat_.invalidate_device_copies();
    ref_.invalidate_device_copies();
  }

  void reclaim() {
    const SpaceId device = any_device();
    flat_.reclaim_space_to_host(device);
    ref_.reclaim_space_to_host(device);
  }

  void evict_and_drop(Tally& tally) {
    const BufferId buffer = any_buffer();
    const SpaceId device = any_device();
    const std::vector<TransferOp> plan = flat_.plan_evict(buffer, device);
    ASSERT_EQ(ops_of(plan), ops_of(ref_.plan_evict(buffer, device)));
    tally.evict_ops += static_cast<int>(plan.size());
    for (const TransferOp& op : plan) {
      flat_.apply(op);
      ref_.apply(op);
    }
    flat_.drop_copies(buffer, device);
    ref_.drop_copies(buffer, device);
  }

  /// Both directories hold the same bytes everywhere and would plan the
  /// same flush, evictions and acquires from here.
  void expect_same_plans() {
    for (BufferId buffer = 0; buffer < sizes_.size(); ++buffer) {
      for (SpaceId space = 0; space < spaces_; ++space) {
        ASSERT_EQ(flat_.resident_bytes_of(buffer, space),
                  ref_.resident_bytes_of(buffer, space))
            << "buffer " << buffer << " space " << space;
        if (space == kHostSpace) continue;
        ASSERT_EQ(ops_of(flat_.plan_evict(buffer, space)),
                  ops_of(ref_.plan_evict(buffer, space)))
            << "evict buffer " << buffer << " from " << space;
      }
    }
    ASSERT_NO_THROW(flat_.check_no_byte_orphaned());
    ASSERT_EQ(ops_of(flat_.plan_flush_to_host()),
              ops_of(ref_.plan_flush_to_host()));
    for (int probe = 0; probe < 4; ++probe) {
      const Region region = any_region(any_buffer());
      const SpaceId space = any_space();
      const std::vector<Op> expected = ops_of(ref_.plan_acquire(region, space));
      ASSERT_EQ(ops_of(flat_.plan_acquire(region, space)), expected)
          << "acquire [" << region.range.begin << ", " << region.range.end
          << ") of buffer " << region.buffer << " into " << space;
      // The hot-path overload refills a vector that holds earlier plans.
      flat_.plan_acquire(region, space, reused_);
      ASSERT_EQ(ops_of(reused_), expected);
    }
  }

 private:
  std::size_t spaces_;
  CoherenceDirectory flat_;
  reference::CoherenceDirectory ref_;
  Rng& rng_;
  std::vector<std::int64_t> sizes_;
  std::vector<TransferOp> reused_;
};

TEST(CoherenceDifferential, PlansMatchReferenceOpForOp) {
  Rng rng(0xc0e2e4ce);
  Tally tally;
  for (int trial = 0; trial < 300; ++trial) {
    const auto spaces = static_cast<std::size_t>(rng.uniform_int(1, 4));
    Lockstep dirs(spaces, rng);
    dirs.register_buffer();
    for (int step = 0; step < 60; ++step) {
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " spaces "
                                        << spaces << " step " << step);
      const double pick = rng.uniform();
      if (pick < 0.04) {
        if (dirs.buffer_count() < 3) dirs.register_buffer();
      } else if (pick < 0.40) {
        dirs.acquire(tally);
      } else if (pick < 0.75) {
        dirs.write();
      } else if (pick < 0.83) {
        dirs.flush_and_invalidate(tally);
      } else if (spaces > 1 && pick < 0.88) {
        dirs.reclaim();
      } else if (spaces > 1) {
        dirs.evict_and_drop(tally);
      }
      if (HasFatalFailure()) return;
      dirs.expect_same_plans();
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(tally.multi_gap_acquires, 0);
  EXPECT_GT(tally.device_sourced_ops, 0);
  EXPECT_GT(tally.flush_ops, 0);
  EXPECT_GT(tally.evict_ops, 0);
}

}  // namespace
}  // namespace hetsched::mem
