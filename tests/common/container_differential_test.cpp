// Differential tests: the flat, sorted-vector IntervalSet and RangeMap<T>
// against their std::map predecessors (tests/common/reference_containers.hpp)
// under the same seeded operation sequences. The point-model properties in
// interval_set_test.cpp and range_map_test.cpp only compare covered points
// and values; these compare the span lists themselves after every
// operation. RangeMap is not canonical — the executor bills a barrier flush
// once per span piece — so a changed split or coalesce rule would move
// simulated results even with every point value unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/interval_set.hpp"
#include "common/range_map.hpp"
#include "common/rng.hpp"
#include "tests/common/reference_containers.hpp"

namespace hetsched {
namespace {

constexpr std::int64_t kUniverse = 96;

std::string describe(Interval iv) {
  return "[" + std::to_string(iv.begin) + ", " + std::to_string(iv.end) + ")";
}

/// A range drawn to hit the interesting cases against `spans`: random,
/// adjacent to a span on either side, nested in one, covering one exactly
/// or with margins, empty, inverted, and 4-aligned (so separate draws often
/// touch).
Interval draw_range(Rng& rng, const std::vector<Interval>& spans) {
  const auto point = [&rng] { return rng.uniform_int(0, kUniverse); };
  const int kind = static_cast<int>(rng.uniform_int(0, 8));
  if (!spans.empty() && kind >= 2 && kind <= 5) {
    const Interval span = spans[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(spans.size()) - 1))];
    const std::int64_t reach = rng.uniform_int(1, 12);
    switch (kind) {
      case 2:  // adjacent on the right
        return {span.end, span.end + reach};
      case 3:  // adjacent on the left
        return {span.begin - reach, span.begin};
      case 4: {  // nested, possibly sharing an edge
        const std::int64_t a = rng.uniform_int(span.begin, span.end);
        const std::int64_t b = rng.uniform_int(span.begin, span.end);
        return {std::min(a, b), std::max(a, b)};
      }
      default:  // exactly the span, or with margins
        return rng.uniform() < 0.5
                   ? span
                   : Interval{span.begin - reach, span.end + reach};
    }
  }
  switch (kind) {
    case 6: {  // empty
      const std::int64_t p = point();
      return {p, p};
    }
    case 7: {  // inverted, which is empty too
      const std::int64_t a = point();
      return {a + 1 + rng.uniform_int(0, 8), a};
    }
    case 8: {  // aligned to 4, so draws share edges
      const std::int64_t a = point() / 4 * 4;
      const std::int64_t b = point() / 4 * 4;
      return {std::min(a, b), std::max(a, b)};
    }
    default: {
      const std::int64_t a = point();
      const std::int64_t b = point();
      return {std::min(a, b), std::max(a, b)};
    }
  }
}

using Piece = std::tuple<std::int64_t, std::int64_t, int>;

template <typename Map>
std::vector<Piece> spans_of(const Map& map) {
  std::vector<Piece> out;
  for (const auto& entry : map.to_vector())
    out.emplace_back(entry.range.begin, entry.range.end, entry.value);
  return out;
}

template <typename Map>
std::vector<Piece> visited(const Map& map, Interval probe) {
  std::vector<Piece> out;
  map.for_each_overlapping(probe, [&out](Interval piece, const int& value) {
    out.emplace_back(piece.begin, piece.end, value);
  });
  return out;
}

template <typename Map>
std::vector<Piece> queried(const Map& map, Interval probe) {
  std::vector<Piece> out;
  for (const auto& entry : map.query(probe))
    out.emplace_back(entry.range.begin, entry.range.end, entry.value);
  return out;
}

/// What the flat set's visitors visit, collected in order.
std::vector<Interval> visited_gaps(const IntervalSet& set, Interval probe) {
  std::vector<Interval> out;
  set.for_each_gap(probe, [&out](Interval gap) { out.push_back(gap); });
  return out;
}

std::vector<Interval> visited_pieces(const IntervalSet& set, Interval probe) {
  std::vector<Interval> out;
  set.for_each_piece(probe, [&out](Interval piece) { out.push_back(piece); });
  return out;
}

/// Asserts that the flat and reference sets answer every query alike.
void expect_same_set(const IntervalSet& flat, const reference::IntervalSet& ref,
                     Rng& rng, const std::string& where) {
  const std::vector<Interval> spans = ref.to_vector();
  ASSERT_EQ(flat.to_vector(), spans) << where;
  ASSERT_EQ(flat.span_count(), ref.span_count()) << where;
  ASSERT_EQ(flat.empty(), ref.empty()) << where;
  ASSERT_EQ(flat.measure(), ref.measure()) << where;
  for (int p = 0; p < 6; ++p) {
    const Interval probe = draw_range(rng, spans);
    const std::string at = where + " probe " + describe(probe);
    ASSERT_EQ(visited_gaps(flat, probe), ref.gaps_within(probe)) << at;
    ASSERT_EQ(visited_pieces(flat, probe), ref.pieces_within(probe)) << at;
    ASSERT_EQ(flat.covers(probe), ref.covers(probe)) << at;
    ASSERT_EQ(flat.intersects(probe), ref.intersects(probe)) << at;
  }
}

/// Asserts that the flat and reference maps answer every query alike.
void expect_same_map(const RangeMap<int>& flat,
                     const reference::RangeMap<int>& ref, Rng& rng,
                     const std::string& where) {
  ASSERT_EQ(spans_of(flat), spans_of(ref)) << where;
  ASSERT_EQ(flat.span_count(), ref.span_count()) << where;
  ASSERT_EQ(flat.empty(), ref.empty()) << where;
  std::vector<Interval> ranges;
  for (const auto& entry : ref.to_vector()) ranges.push_back(entry.range);
  for (int p = 0; p < 6; ++p) {
    const Interval probe = draw_range(rng, ranges);
    const std::string at = where + " probe " + describe(probe);
    ASSERT_EQ(visited(flat, probe), visited(ref, probe)) << at;
    ASSERT_EQ(queried(flat, probe), queried(ref, probe)) << at;
    ASSERT_EQ(flat.values_overlapping(probe), ref.values_overlapping(probe))
        << at;
  }
}

TEST(ContainerDifferential, IntervalSetSpansMatchMapReference) {
  Rng rng(0x5eedf1a7);
  for (int trial = 0; trial < 60; ++trial) {
    IntervalSet flat;
    reference::IntervalSet ref;
    for (int op = 0; op < 120; ++op) {
      const std::string where =
          "trial " + std::to_string(trial) + " op " + std::to_string(op);
      const double pick = rng.uniform();
      if (pick < 0.02) {  // clear: the flat set keeps its storage
        flat.clear();
        ref = reference::IntervalSet{};
        ASSERT_EQ(flat.measure(), 0) << where;
        ASSERT_TRUE(flat.empty()) << where;
      } else if (pick < 0.07) {  // union with another small set
        IntervalSet other_flat;
        reference::IntervalSet other_ref;
        for (int k = 0; k < 3; ++k) {
          const Interval iv = draw_range(rng, ref.to_vector());
          other_flat.insert(iv);
          other_ref.insert(iv);
        }
        flat.insert(other_flat);
        ref.insert(other_ref);
      } else {
        const Interval iv = draw_range(rng, ref.to_vector());
        if (pick < 0.55) {
          flat.insert(iv);
          ref.insert(iv);
        } else {
          flat.erase(iv);
          ref.erase(iv);
        }
      }
      expect_same_set(flat, ref, rng, where);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ContainerDifferential, RangeMapSpansMatchMapReference) {
  Rng rng(0xc0a1e5ce);
  for (int trial = 0; trial < 60; ++trial) {
    RangeMap<int> flat;
    reference::RangeMap<int> ref;
    for (int op = 0; op < 120; ++op) {
      const std::string where =
          "trial " + std::to_string(trial) + " op " + std::to_string(op);
      std::vector<Interval> ranges;
      for (const auto& entry : ref.to_vector()) ranges.push_back(entry.range);
      const Interval iv = draw_range(rng, ranges);
      const double pick = rng.uniform();
      if (pick < 0.02) {
        flat.clear();
        ref.clear();
      } else if (pick < 0.70) {
        // Three values, so equal-valued neighbours (and coalescing) are
        // common.
        const int value = static_cast<int>(rng.uniform_int(0, 2));
        flat.assign(iv, value);
        ref.assign(iv, value);
      } else {
        flat.erase(iv);
        ref.erase(iv);
      }
      expect_same_map(flat, ref, rng, where);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ContainerDifferential, RangeMapSplitsAndCoalescesLikeReference) {
  // The cases the executor's flush billing depends on, spelled out.
  const auto run = [](auto& map) {
    map.assign({0, 100}, 1);
    map.assign({40, 60}, 2);   // split in three
    map.assign({60, 70}, 2);   // coalesce right of a split
    map.assign({30, 40}, 2);   // coalesce left
    map.erase({45, 50});       // split without coalescing back
    map.assign({45, 50}, 2);   // rejoin both sides
    map.assign({100, 110}, 1); // touch the tail with an equal value
    map.assign({0, 10}, 3);
    map.assign({10, 20}, 3);
    return spans_of(map);
  };
  RangeMap<int> flat;
  reference::RangeMap<int> ref;
  const std::vector<Piece> expected = run(ref);
  EXPECT_EQ(run(flat), expected);
  EXPECT_EQ(expected, (std::vector<Piece>{{0, 20, 3},
                                          {20, 30, 1},
                                          {30, 70, 2},
                                          {70, 110, 1}}));
}

}  // namespace
}  // namespace hetsched
