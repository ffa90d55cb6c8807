#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "tests/common/reference_format_double.hpp"

/// Differential test of json::format_double against the printf/strtod
/// search it replaced (tests/common/reference_format_double.hpp): every
/// value must format to the same bytes, since the payloads, reports and
/// cache keys built from these strings are pinned byte for byte.
namespace hetsched::json {
namespace {

double from_bits(std::uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

void expect_same_bytes(double value) {
  if (!std::isfinite(value)) return;
  ASSERT_EQ(format_double(value), reference::format_double(value))
      << std::hexfloat << value;
}

TEST(FormatDoubleDifferential, RandomBitPatterns) {
  Rng rng(20151);
  for (int i = 0; i < 100'000; ++i) expect_same_bytes(from_bits(rng()));
}

TEST(FormatDoubleDifferential, DecimalGridValues) {
  // Decimal-looking doubles: what timings, shares and platform parameters
  // are made of, and where "%.*g" stops early.
  for (int exponent = -24; exponent <= 24; ++exponent) {
    const double scale = std::pow(10.0, exponent);
    for (std::int64_t mantissa = 1; mantissa <= 20'000; mantissa += 7) {
      const auto m = static_cast<double>(mantissa);
      expect_same_bytes(m * scale);
      expect_same_bytes(-m * scale);
      expect_same_bytes(m / (1.0 / scale));
    }
  }
  Rng rng(7);
  for (int i = 0; i < 50'000; ++i) {
    // Milliseconds rounded to the nanosecond, as reports print them.
    expect_same_bytes(std::round(rng.uniform(0.0, 5000.0) * 1e6) / 1e6);
    expect_same_bytes(rng.uniform(0.0, 1.0));
  }
}

TEST(FormatDoubleDifferential, SubnormalsAndEdges) {
  Rng rng(3);
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t mantissa = rng() & ((std::uint64_t{1} << 52) - 1);
    expect_same_bytes(from_bits(mantissa));
    expect_same_bytes(-from_bits(mantissa));
  }
  const std::vector<double> edges = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN,
      std::nextafter(DBL_MIN, 0.0),
      DBL_MAX,
      -DBL_MAX,
      DBL_EPSILON,
      1e15,
      1e15 - 1,
      1e15 + 1,
      -1e15,
      -(1e15 - 1),
      -(1e15 + 1),
      std::nextafter(1e15, 0.0),
      std::nextafter(1e15, 2e15),
      9007199254740992.0,
      9007199254740994.0,
      1e100,
      std::nextafter(1e100, 0.0),
      std::nextafter(1e100, 2e100),
      1e-100,
      std::nextafter(1e-100, 0.0),
      std::nextafter(1e-100, 1.0),
      0.1,
      1.0 / 3.0,
      5e-324,
      1e308,
      123456.789,
  };
  for (double value : edges) expect_same_bytes(value);
  // Around every power of ten, where the exponent's digit count and the
  // binade change.
  for (int exponent = -320; exponent <= 308; ++exponent) {
    const double value = std::pow(10.0, exponent);
    expect_same_bytes(value);
    expect_same_bytes(std::nextafter(value, 0.0));
    expect_same_bytes(std::nextafter(value, DBL_MAX));
  }
  // Around every power of two, where the rounding interval is lopsided.
  for (int exponent = -1074; exponent <= 1023; ++exponent) {
    const double value = std::ldexp(1.0, exponent);
    expect_same_bytes(value);
    expect_same_bytes(std::nextafter(value, 0.0));
    expect_same_bytes(std::nextafter(value, DBL_MAX));
  }
}

}  // namespace
}  // namespace hetsched::json
