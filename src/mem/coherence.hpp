#pragma once

#include <string>
#include <vector>

#include "common/interval_set.hpp"
#include "mem/region.hpp"

/// Range-based coherence directory.
///
/// Models the OmpSs memory model: multiple memory spaces (host + one per
/// accelerator), with the runtime keeping track of which byte ranges of
/// which buffers are valid where, generating host<->device transfers on
/// demand, and flushing everything back to the host at `taskwait`.
///
/// Protocol (per byte): a byte range may be valid in several spaces at once
/// (shared, after reads) but a write makes the writing space the *only*
/// valid holder (invalidation), like MSI without the explicit M/S split —
/// we only need to know "who has a current copy".
///
/// Planning walks the validity sets in place and works in one scratch set
/// the directory owns, so it allocates nothing beyond its output. Even the
/// const planners write that scratch set: one directory serves one thread
/// (each executor run owns its own).
namespace hetsched::mem {

/// One planned host<->device (or device<->device via host) copy.
struct TransferOp {
  SpaceId src = kHostSpace;
  SpaceId dst = kHostSpace;
  Region region;

  std::int64_t size_bytes() const { return region.size_bytes(); }
};

class CoherenceDirectory {
 public:
  /// `space_count` = 1 (host) + number of accelerators.
  explicit CoherenceDirectory(std::size_t space_count);

  std::size_t space_count() const { return space_count_; }

  /// Registers a buffer. Its initial contents are valid on the host only
  /// (applications initialize data in host memory).
  BufferId register_buffer(std::string name, std::int64_t size_bytes);

  std::size_t buffer_count() const { return buffers_.size(); }
  const BufferDesc& buffer(BufferId id) const;

  /// True iff every byte of `region` holds a valid copy in `space`.
  bool is_valid(const Region& region, SpaceId space) const;

  /// The parts of `region` NOT currently valid in `space` (what an acquire
  /// would have to bring in).
  std::vector<Interval> gaps_in_space(const Region& region,
                                      SpaceId space) const;

  /// Plans the copies needed before `space` can READ `region`: one TransferOp
  /// per missing piece, sourced from a space that holds a valid copy (host
  /// preferred; the paper-era runtimes stage device-to-device data through
  /// the host, so a device source is reported as-is and the caller routes it).
  /// Does NOT mutate state; call `apply` on each op (in order) to commit.
  std::vector<TransferOp> plan_acquire(const Region& region,
                                       SpaceId space) const;

  /// Allocation-free variant for hot paths: clears `out` and fills it with
  /// the same plan (same ops, same order) the vector overload returns. Once
  /// `out` and the scratch set have grown, a call allocates nothing.
  void plan_acquire(const Region& region, SpaceId space,
                    std::vector<TransferOp>& out) const;

  /// Commits one planned transfer: marks op.region valid in op.dst.
  void apply(const TransferOp& op);

  /// Records that `space` WROTE `region`: `space` becomes the only valid
  /// holder of those bytes.
  void note_write(const Region& region, SpaceId space);

  /// Plans the copies needed to make the host hold a valid copy of every
  /// byte of every buffer — the `taskwait` flush.
  std::vector<TransferOp> plan_flush_to_host() const;

  /// Drops every device-space copy, leaving the host as the only valid
  /// holder. Models the OmpSs-era taskwait, which flushes data to the host
  /// and considers device copies stale afterwards — the reason statically
  /// partitioned multi-kernel codes with synchronization re-upload their
  /// partitions after every sync (paper Section IV-B3/B4). Requires that
  /// the host already covers every buffer (flush first).
  void invalidate_device_copies();

  /// Device-loss recovery: every byte valid in `space` becomes valid on the
  /// host instead, and `space` is left empty. Models a failed device whose
  /// data is recovered from a host-side shadow (the fault subsystem's
  /// checkpoint-on-host model) — unlike plan_evict, no transfer is planned,
  /// because the dead device cannot DMA its memory out. Preserves the
  /// no-byte-orphaned invariant by construction.
  void reclaim_space_to_host(SpaceId space);

  /// Bytes of `space`'s memory currently holding valid data (for device
  /// memory-capacity accounting).
  std::int64_t resident_bytes(SpaceId space) const;

  /// Bytes of ONE buffer valid in `space`.
  std::int64_t resident_bytes_of(BufferId buffer, SpaceId space) const;

  /// Plans the copies needed before `space`'s copy of `buffer` can be
  /// dropped: its ranges valid NOWHERE else go home first. Empty when the
  /// copy is clean.
  std::vector<TransferOp> plan_evict(BufferId buffer, SpaceId space) const;

  /// Drops `space`'s copy of `buffer` (eviction). Requires every byte to be
  /// valid in some other space — apply the plan_evict transfers first.
  void drop_copies(BufferId buffer, SpaceId space);

  /// Invariant check: every byte of every buffer is valid in at least one
  /// space (no data can ever be lost). Throws InternalError on violation.
  void check_no_byte_orphaned() const;

 private:
  struct BufferState {
    BufferDesc desc;
    /// One validity set per space.
    std::vector<IntervalSet> valid;
  };

  const BufferState& state(BufferId id) const;
  BufferState& state(BufferId id);

  /// Appends to `plan` the copies that make `gap` of `st` valid in `dst`:
  /// each byte comes from the first other space, in id order, that holds
  /// it. Leaves in scratch_ the bytes no space holds.
  void source_gap(const BufferState& st, Interval gap, SpaceId dst,
                  std::vector<TransferOp>& plan) const;

  std::size_t space_count_;
  std::vector<BufferState> buffers_;
  /// Working set of the planners and invariant checks; every use starts by
  /// clearing it, and its storage is kept across uses.
  mutable IntervalSet scratch_;
};

}  // namespace hetsched::mem
