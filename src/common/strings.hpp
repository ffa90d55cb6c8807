#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// String formatting helpers for reports and diagnostics.
namespace hetsched {

/// "1.50 GB", "64.0 MB", "512 B" — decimal units, like the paper's figures.
std::string format_bytes(double bytes);

/// Fixed-precision double ("3.14"), trailing zeros kept for column alignment.
std::string format_fixed(double value, int decimals);

/// "41.2%" from a 0..1 fraction.
std::string format_percent(double fraction, int decimals = 1);

/// Joins parts with a separator.
std::string join(const std::vector<std::string>& parts,
                 const std::string& separator);

/// FNV-1a 64-bit over `text`: the sweep cache's content address and the
/// shard selector of SingleFlight.
std::uint64_t fnv1a64(std::string_view text);

}  // namespace hetsched
