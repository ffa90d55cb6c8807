#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/error.hpp"

/// Half-open integer intervals and interval sets.
///
/// These are the workhorses of both the dependency analyzer (which tasks
/// touch overlapping byte ranges of a buffer?) and the coherence manager
/// (which byte ranges of a buffer are valid in which memory space?).
namespace hetsched {

/// A half-open interval [begin, end). Empty iff begin >= end.
struct Interval {
  std::int64_t begin = 0;
  std::int64_t end = 0;

  constexpr bool empty() const { return begin >= end; }
  constexpr std::int64_t length() const { return empty() ? 0 : end - begin; }

  constexpr bool contains(std::int64_t point) const {
    return point >= begin && point < end;
  }
  constexpr bool contains(const Interval& other) const {
    return other.empty() || (other.begin >= begin && other.end <= end);
  }
  constexpr bool overlaps(const Interval& other) const {
    return !empty() && !other.empty() && begin < other.end &&
           other.begin < end;
  }

  friend constexpr bool operator==(const Interval&, const Interval&) = default;
};

constexpr Interval intersect(const Interval& a, const Interval& b) {
  return Interval{std::max(a.begin, b.begin), std::min(a.end, b.end)};
}

/// An ordered set of disjoint, non-adjacent half-open intervals.
///
/// Maintains the canonical form invariant: intervals are sorted, non-empty,
/// and separated by gaps (adjacent/overlapping inserts coalesce). Spans live
/// in one sorted vector: lookups binary-search it and updates rewrite the
/// affected run of spans in place, so a set that stays small stops touching
/// the allocator after its first few inserts.
class IntervalSet {
 public:
  IntervalSet() = default;
  explicit IntervalSet(Interval iv) { insert(iv); }

  bool empty() const { return spans_.empty(); }
  std::size_t span_count() const { return spans_.size(); }

  /// Total number of points covered.
  std::int64_t measure() const {
    std::int64_t total = 0;
    for (const Interval& span : spans_) total += span.end - span.begin;
    return total;
  }

  /// Adds an interval, coalescing with any overlapping/adjacent spans.
  void insert(Interval iv) {
    if (iv.empty()) return;
    // The run of spans that overlap or touch iv merges into it.
    const auto first = std::partition_point(
        spans_.begin(), spans_.end(),
        [&iv](const Interval& span) { return span.end < iv.begin; });
    const auto last = std::partition_point(
        first, spans_.end(),
        [&iv](const Interval& span) { return span.begin <= iv.end; });
    if (first == last) {
      spans_.insert(first, iv);
      return;
    }
    first->begin = std::min(first->begin, iv.begin);
    first->end = std::max(std::prev(last)->end, iv.end);
    spans_.erase(std::next(first), last);
  }

  void insert(const IntervalSet& other) {
    for (const Interval& span : other.spans_) insert(span);
  }

  /// Removes all points of `iv` from the set (splitting spans as needed).
  void erase(Interval iv) {
    if (iv.empty()) return;
    auto [first, last] = overlapping(spans_, iv);
    if (first == last) return;
    const bool keep_head = first->begin < iv.begin;
    const bool keep_tail = std::prev(last)->end > iv.end;
    if (keep_head && keep_tail && std::next(first) == last) {
      // iv lies strictly inside one span: split it in two.
      const Interval tail{iv.end, first->end};
      first->end = iv.begin;
      spans_.insert(last, tail);
      return;
    }
    if (keep_head) (first++)->end = iv.begin;
    if (keep_tail) (--last)->begin = iv.end;
    spans_.erase(first, last);
  }

  /// True iff every point of `iv` is covered.
  bool covers(Interval iv) const {
    if (iv.empty()) return true;
    const auto [first, last] = overlapping(spans_, iv);
    return first != last && first->begin <= iv.begin && first->end >= iv.end;
  }

  /// True iff any point of `iv` is covered.
  bool intersects(Interval iv) const {
    if (iv.empty()) return false;
    const auto [first, last] = overlapping(spans_, iv);
    return first != last;
  }

  /// The parts of `iv` NOT covered by this set (in order).
  std::vector<Interval> gaps_within(Interval iv) const {
    std::vector<Interval> result;
    if (iv.empty()) return result;
    std::int64_t cursor = iv.begin;
    const auto [first, last] = overlapping(spans_, iv);
    for (auto it = first; it != last; ++it) {
      if (it->begin > cursor) result.push_back({cursor, it->begin});
      cursor = std::min(it->end, iv.end);
    }
    if (cursor < iv.end) result.push_back({cursor, iv.end});
    return result;
  }

  /// The parts of `iv` covered by this set (in order).
  std::vector<Interval> pieces_within(Interval iv) const {
    std::vector<Interval> result;
    if (iv.empty()) return result;
    const auto [first, last] = overlapping(spans_, iv);
    for (auto it = first; it != last; ++it)
      result.push_back(intersect(*it, iv));
    return result;
  }

  std::vector<Interval> to_vector() const { return spans_; }

  friend bool operator==(const IntervalSet& a, const IntervalSet& b) {
    return a.spans_ == b.spans_;
  }

 private:
  /// The run [first, last) of spans overlapping non-empty `iv`. Spans are
  /// disjoint and sorted, so their ends ascend too and both bounds are
  /// binary searches.
  template <typename Spans>
  static auto overlapping(Spans& spans, Interval iv)
      -> std::pair<decltype(spans.begin()), decltype(spans.begin())> {
    const auto first = std::partition_point(
        spans.begin(), spans.end(),
        [&iv](const Interval& span) { return span.end <= iv.begin; });
    const auto last = std::partition_point(
        first, spans.end(),
        [&iv](const Interval& span) { return span.begin < iv.end; });
    return {first, last};
  }

  // Sorted by begin, canonical form.
  std::vector<Interval> spans_;
};

}  // namespace hetsched
