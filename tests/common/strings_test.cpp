#include "common/strings.hpp"

#include <gtest/gtest.h>

namespace hetsched {
namespace {

TEST(FormatBytes, PlainBytes) {
  EXPECT_EQ(format_bytes(0), "0 B");
  EXPECT_EQ(format_bytes(512), "512 B");
}

TEST(FormatBytes, DecimalUnits) {
  EXPECT_EQ(format_bytes(1500), "1.50 KB");
  EXPECT_EQ(format_bytes(64e6), "64.00 MB");
  EXPECT_EQ(format_bytes(1.5e9), "1.50 GB");
  EXPECT_EQ(format_bytes(2e12), "2.00 TB");
}

TEST(FormatFixed, Decimals) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(3.0, 1), "3.0");
  EXPECT_EQ(format_fixed(-1.005, 0), "-1");
}

TEST(FormatPercent, FromFraction) {
  EXPECT_EQ(format_percent(0.412), "41.2%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
  EXPECT_EQ(format_percent(0.0), "0.0%");
}

TEST(Join, Basic) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, "/"), "a/b/c");
}

TEST(Fnv1a, KnownVectors) {
  // Published FNV-1a 64-bit reference values.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

}  // namespace
}  // namespace hetsched
