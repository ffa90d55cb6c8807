#include "common/strings.hpp"

#include <array>
#include <cmath>
#include <cstdio>

#include "common/time.hpp"

namespace hetsched {

std::string format_bytes(double bytes) {
  static constexpr std::array<const char*, 5> kUnits = {"B", "KB", "MB", "GB",
                                                        "TB"};
  double value = bytes;
  std::size_t unit = 0;
  while (std::abs(value) >= 1000.0 && unit + 1 < kUnits.size()) {
    value /= 1000.0;
    ++unit;
  }
  char buf[64];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%.0f %s", value, kUnits[unit]);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f %s", value, kUnits[unit]);
  }
  return buf;
}

std::string format_fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string format_percent(double fraction, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& separator) {
  std::string result;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) result += separator;
    result += parts[i];
  }
  return result;
}

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (char ch : text) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string format_time(SimTime t) {
  char buf[64];
  const double ns = static_cast<double>(t);
  if (t < 10 * kMicrosecond) {
    std::snprintf(buf, sizeof(buf), "%.0f ns", ns);
  } else if (t < 10 * kMillisecond) {
    std::snprintf(buf, sizeof(buf), "%.2f us", ns / 1e3);
  } else if (t < 10 * kSecond) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", ns / 1e9);
  }
  return buf;
}

}  // namespace hetsched
