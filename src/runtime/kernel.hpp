#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hw/cost_model.hpp"
#include "mem/region.hpp"

/// Kernel definitions: the unit of parallel work an application registers
/// with the runtime (the paper's "task", annotated with OmpSs `task` +
/// `target` constructs).
namespace hetsched::rt {

using KernelId = std::size_t;

/// Functional body: computes items [begin, end) on host data. Optional —
/// benches that only need timing leave it empty; tests and examples use it
/// to verify numerical results.
using KernelBody = std::function<void(std::int64_t begin, std::int64_t end)>;

/// Maps an item range to the byte regions it reads/writes. This is the
/// analogue of OmpSs data-dependency clauses (`in`/`out`/`inout` on array
/// sections) and drives both dependency analysis and coherence transfers.
/// Appends the task's accesses to `out`, which already holds the accesses
/// of earlier tasks: the function must neither clear nor read it.
using AccessFn =
    std::function<void(std::int64_t begin, std::int64_t end,
                       std::vector<mem::RegionAccess>& out)>;

struct KernelDef {
  std::string name;
  hw::KernelTraits traits;
  AccessFn accesses;
  KernelBody body;  ///< may be empty (timing-only execution)

  /// Which device classes have an implementation — the paper's `implements`
  /// clause. A kernel without a GPU implementation never runs on the GPU.
  bool has_cpu_impl = true;
  bool has_gpu_impl = true;

  void validate() const {
    traits.validate();
    HS_REQUIRE(!name.empty(), "KernelDef needs a name");
    HS_REQUIRE(accesses != nullptr,
               "kernel '" << name << "' needs an access function");
    HS_REQUIRE(has_cpu_impl || has_gpu_impl,
               "kernel '" << name << "' has no implementation");
  }
};

}  // namespace hetsched::rt
