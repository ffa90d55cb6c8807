#pragma once

#include <cstdint>
#include <vector>

#include "mem/region.hpp"
#include "runtime/kernel.hpp"

/// Shared helpers for runtime tests: tiny 1D map-style kernels over float
/// buffers (4 bytes per item).
namespace hetsched::rt::testing {

inline constexpr std::int64_t kItemBytes = 4;

inline mem::Region item_region(mem::BufferId buffer, std::int64_t begin,
                               std::int64_t end) {
  return {buffer, {begin * kItemBytes, end * kItemBytes}};
}

/// out[i] = f(in[i]): reads `in`, writes `out`, item-aligned regions.
inline KernelDef make_map_kernel(std::string name, mem::BufferId in,
                                 mem::BufferId out,
                                 KernelBody body = nullptr) {
  KernelDef def;
  def.name = std::move(name);
  def.traits.name = def.name;
  def.traits.flops_per_item = 10.0;
  def.traits.device_bytes_per_item = 8.0;
  def.accesses = [in, out](std::int64_t begin, std::int64_t end,
                           std::vector<mem::RegionAccess>& accesses) {
    accesses.insert(accesses.end(), {
        {item_region(in, begin, end), mem::AccessMode::kRead},
        {item_region(out, begin, end), mem::AccessMode::kWrite},
    });
  };
  def.body = std::move(body);
  return def;
}

/// x[i] = f(x[i]) in place: one inout access.
inline KernelDef make_inplace_kernel(std::string name, mem::BufferId buffer,
                                     KernelBody body = nullptr) {
  KernelDef def;
  def.name = std::move(name);
  def.traits.name = def.name;
  def.traits.flops_per_item = 10.0;
  def.traits.device_bytes_per_item = 8.0;
  def.accesses = [buffer](std::int64_t begin, std::int64_t end,
                          std::vector<mem::RegionAccess>& out) {
    out.push_back({item_region(buffer, begin, end),
                   mem::AccessMode::kReadWrite});
  };
  def.body = std::move(body);
  return def;
}

}  // namespace hetsched::rt::testing
