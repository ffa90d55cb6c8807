#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/error.hpp"

/// Reference implementation of json::format_double on printf/strtod: the
/// search the std::to_chars version in src/common replaced. The body is
/// kept verbatim so the differential test can demand byte-identical output
/// for every double, not just a round trip.
namespace hetsched::reference {

inline std::string format_double(double value) {
  if (std::isnan(value) || std::isinf(value))
    throw InvalidArgument("json cannot represent NaN or Infinity");
  if (value == 0.0) return "0";  // normalizes -0.0 as well
  const double rounded = std::nearbyint(value);
  if (rounded == value && std::fabs(value) < 1e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
    return buffer;
  }
  // Shortest fixed/scientific form that parses back exactly.
  for (int precision = 6; precision <= 17; ++precision) {
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) return buffer;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace hetsched::reference
