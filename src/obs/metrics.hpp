#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/time.hpp"

/// Deterministic metrics registry (counters, gauges, time-weighted
/// histograms, and counter tracks), keyed by `name{label=value}` strings.
///
/// Everything here runs on virtual time only — no wall clock ever enters a
/// metric — so two identical simulations produce byte-identical exports.
/// Exposition formats:
///   - `to_json()`       byte-stable JSON (sorted keys, format_double)
///   - `to_prometheus()` Prometheus text format (for script gating)
///   - counter tracks render as Perfetto "ph":"C" events via
///     obs::chrome_trace_with_counters (observability.hpp)
///
/// The registry is near-zero-cost when disabled: every mutation checks one
/// bool and returns, and nothing is allocated.
namespace hetsched::obs {

/// Canonical metric key: `name{k1=v1,k2=v2}` with labels sorted by key
/// (`name` alone when no labels). Sorted labels make the key independent of
/// call-site argument order.
std::string metric_key(
    std::string_view name,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels);

/// A histogram over explicit bucket upper bounds with weighted observations
/// (weight = duration for time-weighted distributions, 1 for plain counts).
/// Bucket i holds the total weight of values <= bounds[i] (first matching
/// bound, Prometheus `le` semantics); one overflow bucket catches the rest.
///
/// Each bucket optionally retains one OpenMetrics-style *exemplar* — the
/// most recent observation tagged with a trace id — so a fat latency bucket
/// in `/metrics` links to a concrete request tree (`# {trace_id="..."} v`
/// suffix on the bucket line). Exemplars are only recorded when the caller
/// supplies a trace id, so untraced histograms expose byte-identical
/// output to before exemplars existed.
class Histogram {
 public:
  struct Exemplar {
    double value = 0.0;
    std::string trace_id;
    bool valid = false;
  };

  explicit Histogram(std::vector<double> bounds = default_bounds());

  void observe(double value, double weight = 1.0,
               std::string_view exemplar_trace = {});

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket weights; size bounds().size() + 1 (last = overflow).
  const std::vector<double>& weights() const { return weights_; }
  /// Per-bucket exemplars; size bounds().size() + 1 (last = overflow).
  const std::vector<Exemplar>& exemplars() const { return exemplars_; }
  bool has_exemplars() const { return has_exemplars_; }
  double sum() const { return sum_; }
  /// Total observed weight (the Prometheus `_count` under weighting).
  double total_weight() const { return total_weight_; }

  /// Exponential default bounds suitable for millisecond durations.
  static std::vector<double> default_bounds();

 private:
  std::vector<double> bounds_;
  std::vector<double> weights_;
  std::vector<Exemplar> exemplars_;
  bool has_exemplars_ = false;
  double sum_ = 0.0;
  double total_weight_ = 0.0;
};

/// A value that evolves over virtual time (queue depth, EMA estimate,
/// in-flight transfers). Samples are recorded as absolute values or deltas
/// in any order; `series()` integrates them into one (time, value) step
/// function, deterministically (stable w.r.t. recording order at equal
/// times).
class CounterTrack {
 public:
  struct Sample {
    SimTime time = 0;
    double value = 0.0;
  };

  /// Records an absolute value at `time`.
  void set(SimTime time, double value) {
    events_.push_back({time, value, /*absolute=*/true});
  }
  /// Records a delta applied at `time`.
  void add(SimTime time, double delta) {
    events_.push_back({time, delta, /*absolute=*/false});
  }

  bool empty() const { return events_.empty(); }
  std::size_t event_count() const { return events_.size(); }

  /// The integrated step function: sorted by time, one sample per distinct
  /// timestamp (the value after all events at that timestamp applied).
  std::vector<Sample> series() const;

 private:
  struct Event {
    SimTime time = 0;
    double value = 0.0;
    bool absolute = false;
  };
  std::vector<Event> events_;
};

class MetricsRegistry {
 public:
  void enable(bool on = true) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // --- mutation (no-ops while disabled) ---
  void counter_add(std::string_view key, std::int64_t delta = 1);
  void gauge_set(std::string_view key, double value);
  void observe(std::string_view key, double value, double weight = 1.0,
               std::string_view exemplar_trace = {});
  /// Sets the bucket bounds a histogram key will be created with (must be
  /// called before its first observe; later calls are ignored).
  void histogram_bounds(std::string_view key, std::vector<double> bounds);
  void track_add(std::string_view key, SimTime time, double delta);
  void track_set(std::string_view key, SimTime time, double value);

  // --- read access ---
  std::int64_t counter(std::string_view key) const;
  double gauge(std::string_view key) const;
  const Histogram* find_histogram(std::string_view key) const;
  const CounterTrack* find_track(std::string_view key) const;

  const std::map<std::string, std::int64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, CounterTrack>& tracks() const {
    return tracks_;
  }

  // --- exposition ---
  json::Value to_json() const;
  std::string to_json_string() const { return to_json().dump(); }
  /// Prometheus text exposition: counters/gauges verbatim, histograms as
  /// cumulative `_bucket`/`_sum`/`_count` series, tracks as gauges holding
  /// their final value. Names are prefixed `hs_` and sanitized.
  std::string to_prometheus() const;

  /// Structural health check: returns one message per violation (negative
  /// counters, non-finite values, malformed keys, negative sample times).
  /// Empty means the registry is well-formed.
  std::vector<std::string> validate() const;

 private:
  bool enabled_ = false;
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, std::vector<double>> pending_bounds_;
  std::map<std::string, CounterTrack> tracks_;
};

/// Folds a counter-track step function into `registry`'s histogram at
/// `hist_key`, weighting each value by the virtual time spent at it (ms),
/// up to `horizon`. This is how per-device queue-depth distributions are
/// derived at end of run.
void observe_time_weighted(MetricsRegistry& registry,
                           std::string_view hist_key,
                           const std::vector<CounterTrack::Sample>& series,
                           SimTime horizon);

}  // namespace hetsched::obs
