#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/interval_set.hpp"

/// Reference implementations of IntervalSet and RangeMap<T> on std::map
/// nodes: the storage the flat, sorted-vector containers in src/common
/// replaced. The class bodies are kept verbatim so the differential tests
/// can demand that the flat containers produce the same spans, splits and
/// coalescing after every operation, not just the same point sets.
namespace hetsched::reference {

/// An ordered set of disjoint, non-adjacent half-open intervals.
///
/// Maintains the canonical form invariant: intervals are sorted, non-empty,
/// and separated by gaps (adjacent/overlapping inserts coalesce).
class IntervalSet {
 public:
  IntervalSet() = default;
  explicit IntervalSet(Interval iv) { insert(iv); }

  bool empty() const { return spans_.empty(); }
  std::size_t span_count() const { return spans_.size(); }

  /// Total number of points covered.
  std::int64_t measure() const {
    std::int64_t total = 0;
    for (const auto& [b, e] : spans_) total += e - b;
    return total;
  }

  /// Adds an interval, coalescing with any overlapping/adjacent spans.
  void insert(Interval iv) {
    if (iv.empty()) return;
    // Find the first span that could merge: the first with end >= iv.begin.
    auto it = spans_.lower_bound(iv.begin);
    if (it != spans_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= iv.begin) it = prev;
    }
    while (it != spans_.end() && it->first <= iv.end) {
      iv.begin = std::min(iv.begin, it->first);
      iv.end = std::max(iv.end, it->second);
      it = spans_.erase(it);
    }
    spans_.emplace(iv.begin, iv.end);
  }

  void insert(const IntervalSet& other) {
    for (const auto& [b, e] : other.spans_) insert({b, e});
  }

  /// Removes all points of `iv` from the set (splitting spans as needed).
  void erase(Interval iv) {
    if (iv.empty() || spans_.empty()) return;
    auto it = spans_.lower_bound(iv.begin);
    if (it != spans_.begin()) {
      auto prev = std::prev(it);
      if (prev->second > iv.begin) it = prev;
    }
    std::vector<Interval> to_add;
    while (it != spans_.end() && it->first < iv.end) {
      const Interval span{it->first, it->second};
      it = spans_.erase(it);
      if (span.begin < iv.begin) to_add.push_back({span.begin, iv.begin});
      if (span.end > iv.end) to_add.push_back({iv.end, span.end});
    }
    for (const auto& piece : to_add) spans_.emplace(piece.begin, piece.end);
  }

  /// True iff every point of `iv` is covered.
  bool covers(Interval iv) const {
    if (iv.empty()) return true;
    auto it = spans_.upper_bound(iv.begin);
    if (it == spans_.begin()) return false;
    --it;
    return it->first <= iv.begin && it->second >= iv.end;
  }

  /// True iff any point of `iv` is covered.
  bool intersects(Interval iv) const {
    if (iv.empty() || spans_.empty()) return false;
    auto it = spans_.lower_bound(iv.begin);
    if (it != spans_.end() && it->first < iv.end) return true;
    if (it == spans_.begin()) return false;
    --it;
    return it->second > iv.begin;
  }

  /// The parts of `iv` NOT covered by this set (in order).
  std::vector<Interval> gaps_within(Interval iv) const {
    std::vector<Interval> result;
    if (iv.empty()) return result;
    std::int64_t cursor = iv.begin;
    auto it = spans_.upper_bound(iv.begin);
    if (it != spans_.begin()) {
      auto prev = std::prev(it);
      if (prev->second > iv.begin) cursor = std::min(prev->second, iv.end);
    }
    for (; it != spans_.end() && it->first < iv.end; ++it) {
      if (it->first > cursor) result.push_back({cursor, it->first});
      cursor = std::min(it->second, iv.end);
    }
    if (cursor < iv.end) result.push_back({cursor, iv.end});
    return result;
  }

  /// The parts of `iv` covered by this set (in order).
  std::vector<Interval> pieces_within(Interval iv) const {
    std::vector<Interval> result;
    if (iv.empty()) return result;
    auto it = spans_.upper_bound(iv.begin);
    if (it != spans_.begin()) --it;
    for (; it != spans_.end() && it->first < iv.end; ++it) {
      const Interval piece = intersect({it->first, it->second}, iv);
      if (!piece.empty()) result.push_back(piece);
    }
    return result;
  }

  std::vector<Interval> to_vector() const {
    std::vector<Interval> result;
    result.reserve(spans_.size());
    for (const auto& [b, e] : spans_) result.push_back({b, e});
    return result;
  }

  friend bool operator==(const IntervalSet& a, const IntervalSet& b) {
    return a.spans_ == b.spans_;
  }

 private:
  // begin -> end, canonical form.
  std::map<std::int64_t, std::int64_t> spans_;
};

/// A map from half-open integer intervals to values, where a later
/// assignment overwrites the overlapped parts of earlier ones (splitting
/// them as needed).
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
  void assign(Interval range, T value) {
    if (range.empty()) return;
    erase(range);
    spans_.emplace(range.begin, Span{range.end, std::move(value)});
    // Merge with equal-valued neighbours to keep the map compact.
    coalesce_around(range.begin);
  }

  /// Removes all points of `range` from the map.
  void erase(Interval range) {
    if (range.empty() || spans_.empty()) return;
    auto it = spans_.lower_bound(range.begin);
    if (it != spans_.begin()) {
      auto prev = std::prev(it);
      if (prev->second.end > range.begin) it = prev;
    }
    std::vector<std::pair<Interval, T>> to_add;
    while (it != spans_.end() && it->first < range.end) {
      const Interval span{it->first, it->second.end};
      T value = std::move(it->second.value);
      it = spans_.erase(it);
      if (span.begin < range.begin)
        to_add.emplace_back(Interval{span.begin, range.begin}, value);
      if (span.end > range.end)
        to_add.emplace_back(Interval{range.end, span.end}, std::move(value));
    }
    for (auto& [piece, value] : to_add)
      spans_.emplace(piece.begin, Span{piece.end, std::move(value)});
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
    if (range.empty() || spans_.empty()) return;
    auto it = spans_.upper_bound(range.begin);
    if (it != spans_.begin()) --it;
    for (; it != spans_.end() && it->first < range.end; ++it) {
      const Interval piece =
          intersect({it->first, it->second.end}, range);
      if (!piece.empty()) fn(piece, it->second.value);
    }
  }

  /// Distinct values overlapping `range` (order of first appearance).
  std::vector<T> values_overlapping(Interval range) const {
    std::vector<T> result;
    for (const Entry& entry : query(range)) {
      bool seen = false;
      for (const T& v : result)
        if (v == entry.value) {
          seen = true;
          break;
        }
      if (!seen) result.push_back(entry.value);
    }
    return result;
  }

  void clear() { spans_.clear(); }

  std::vector<Entry> to_vector() const {
    std::vector<Entry> result;
    result.reserve(spans_.size());
    for (const auto& [begin, span] : spans_)
      result.push_back({{begin, span.end}, span.value});
    return result;
  }

 private:
  struct Span {
    std::int64_t end;
    T value;
  };

  void coalesce_around(std::int64_t begin) {
    auto it = spans_.find(begin);
    if (it == spans_.end()) return;
    // Merge with the predecessor if touching and equal-valued.
    if (it != spans_.begin()) {
      auto prev = std::prev(it);
      if (prev->second.end == it->first &&
          prev->second.value == it->second.value) {
        prev->second.end = it->second.end;
        spans_.erase(it);
        it = prev;
      }
    }
    // Merge with the successor likewise.
    auto next = std::next(it);
    if (next != spans_.end() && it->second.end == next->first &&
        it->second.value == next->second.value) {
      it->second.end = next->second.end;
      spans_.erase(next);
    }
  }

  // begin -> (end, value); spans are disjoint.
  std::map<std::int64_t, Span> spans_;
};

}  // namespace hetsched::reference
