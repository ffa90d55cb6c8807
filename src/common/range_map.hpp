#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/interval_set.hpp"

/// RangeMap<T>: a map from half-open integer intervals to values, where a
/// later assignment overwrites the overlapped parts of earlier ones
/// (splitting them as needed).
///
/// This is exactly the bookkeeping the dependency analyzer needs: "who last
/// wrote byte range [a, b) of buffer X?" is a RangeMap<TaskId> updated by
/// writes and queried by reads.
namespace hetsched {

template <typename T>
class RangeMap {
 public:
  struct Entry {
    Interval range;
    T value;
  };

  bool empty() const { return spans_.empty(); }
  std::size_t span_count() const { return spans_.size(); }

  /// Assigns `value` to every point in `range`, overwriting previous values.
  /// The new span then merges with an equal-valued neighbour that touches
  /// it on either side, keeping the map compact.
  void assign(Interval range, T value) {
    if (range.empty()) return;
    auto [first, last] = overlapping(spans_, range);
    if (first != last && std::next(first) == last &&
        first->range.begin < range.begin && first->range.end > range.end) {
      // `range` lies strictly inside one span: an equal value changes
      // nothing, another splits the span around the new one.
      if (first->value == value) return;
      Entry tail{{range.end, first->range.end}, first->value};
      first->range.end = range.begin;
      const auto at = spans_.insert(last, Entry{range, std::move(value)});
      spans_.insert(std::next(at), std::move(tail));
      return;
    }
    // Trim the spans that stick out of `range`; [first, last) then holds
    // exactly the spans the new one replaces.
    if (first != last && first->range.begin < range.begin)
      (first++)->range.end = range.begin;
    if (first != last && std::prev(last)->range.end > range.end)
      (--last)->range.begin = range.end;
    Entry span{range, std::move(value)};
    if (first != spans_.begin() &&
        std::prev(first)->range.end == range.begin &&
        std::prev(first)->value == span.value) {
      --first;
      span.range.begin = first->range.begin;
    }
    if (last != spans_.end() && last->range.begin == range.end &&
        last->value == span.value) {
      span.range.end = last->range.end;
      ++last;
    }
    if (first == last) {
      spans_.insert(first, std::move(span));
      return;
    }
    *first = std::move(span);
    spans_.erase(std::next(first), last);
  }

  /// Removes all points of `range` from the map.
  void erase(Interval range) {
    if (range.empty()) return;
    auto [first, last] = overlapping(spans_, range);
    if (first == last) return;
    const bool keep_head = first->range.begin < range.begin;
    const bool keep_tail = std::prev(last)->range.end > range.end;
    if (keep_head && keep_tail && std::next(first) == last) {
      // `range` lies strictly inside one span: split it in two.
      Entry tail{{range.end, first->range.end}, first->value};
      first->range.end = range.begin;
      spans_.insert(last, std::move(tail));
      return;
    }
    if (keep_head) (first++)->range.end = range.begin;
    if (keep_tail) (--last)->range.begin = range.end;
    spans_.erase(first, last);
  }

  /// All (sub-range, value) pieces overlapping `range`, in order.
  std::vector<Entry> query(Interval range) const {
    std::vector<Entry> result;
    for_each_overlapping(range, [&result](Interval piece, const T& value) {
      result.push_back({piece, value});
    });
    return result;
  }

  /// Visits every (sub-range, value) piece overlapping `range`, in order —
  /// the allocation-free form of query() for hot paths.
  template <typename Fn>
  void for_each_overlapping(Interval range, Fn&& fn) const {
    if (range.empty()) return;
    const auto [first, last] = overlapping(spans_, range);
    for (auto it = first; it != last; ++it)
      fn(intersect(it->range, range), it->value);
  }

  /// Distinct values overlapping `range` (order of first appearance).
  std::vector<T> values_overlapping(Interval range) const {
    std::vector<T> result;
    for_each_overlapping(range, [&result](Interval, const T& value) {
      if (std::find(result.begin(), result.end(), value) == result.end())
        result.push_back(value);
    });
    return result;
  }

  void clear() { spans_.clear(); }

  std::vector<Entry> to_vector() const { return spans_; }

 private:
  /// The run [first, last) of spans overlapping non-empty `range`. Spans
  /// are disjoint and sorted, so their ends ascend too and both bounds are
  /// binary searches.
  template <typename Spans>
  static auto overlapping(Spans& spans, Interval range)
      -> std::pair<decltype(spans.begin()), decltype(spans.begin())> {
    const auto first = std::partition_point(
        spans.begin(), spans.end(),
        [&range](const Entry& e) { return e.range.end <= range.begin; });
    const auto last = std::partition_point(
        first, spans.end(),
        [&range](const Entry& e) { return e.range.begin < range.end; });
    return {first, last};
  }

  // Sorted by begin; spans are disjoint.
  std::vector<Entry> spans_;
};

}  // namespace hetsched
