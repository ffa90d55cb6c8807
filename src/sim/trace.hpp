#pragma once

#include <string>
#include <vector>

#include "common/time.hpp"

/// Execution trace recording and export.
///
/// The runtime records one TraceEvent per task execution, data transfer, and
/// synchronization. The recorder only records and exports: `to_chrome_json`
/// emits a file loadable in chrome://tracing / Perfetto for visual timeline
/// inspection, and sim::analyze_trace (trace_stats.hpp) is the one place
/// that aggregates events into per-lane and per-category time.
namespace hetsched::sim {

enum class TraceKind {
  kCompute,
  kTransferH2D,
  kTransferD2H,
  kOverhead,
  kSync,
  /// An injected perturbation window (fault subsystem): slowdown, stall,
  /// link degradation, or device failure, painted on a dedicated lane.
  kFault,
  /// A resilience action: chunk retry/migration, queue re-partitioning, or
  /// an abandoned chunk.
  kRecovery,
};

const char* trace_kind_name(TraceKind kind);

struct TraceEvent {
  std::string lane;   ///< Resource the event occupied ("gpu0", "cpu.t3", ...).
  std::string label;  ///< Human-readable description.
  TraceKind kind = TraceKind::kCompute;
  SimTime start = 0;
  SimTime end = 0;

  SimTime duration() const { return end - start; }
};

class TraceRecorder {
 public:
  void record(TraceEvent event) { events_.push_back(std::move(event)); }
  void record(std::string lane, std::string label, TraceKind kind,
              SimTime start, SimTime end) {
    events_.push_back({std::move(lane), std::move(label), kind, start, end});
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  void clear() { events_.clear(); }
  /// Pre-sizes the event vector (recorders that know the approximate event
  /// count avoid growth reallocations in the record hot loop).
  void reserve(std::size_t capacity) { events_.reserve(capacity); }

  /// Latest end time across all events (0 when empty).
  SimTime makespan() const;

  /// Chrome trace-event JSON ("traceEvents" array of complete events).
  std::string to_chrome_json() const;

  /// Same, with pre-rendered event objects (e.g. Perfetto "ph":"C" counter
  /// samples from the observability layer) appended to the array. Each
  /// string must be one complete JSON object, no trailing comma.
  std::string to_chrome_json(
      const std::vector<std::string>& extra_event_objects) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace hetsched::sim
