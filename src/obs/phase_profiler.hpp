#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

/// Always-on scoped phase profiler: per-process wall-time attribution
/// across named stages of the serving and simulation pipeline.
///
/// A `ScopedPhase` is a nested RAII timer. On destruction it records its
/// inclusive wall time under its stage name, and — via a thread-local stack
/// of open phases — also attributes *self* time (inclusive minus the time
/// spent in nested phases), so "serve-compute" and the "sim-event-loop" it
/// contains do not double-count when asking "where did the wall clock go".
///
/// The snapshot appears in `/metrics` (as `phase_total_ms{stage=…}` /
/// `phase_self_ms{stage=…}` / `phase_calls_total{stage=…}` gauges), in the
/// daemon's final shutdown snapshot, and in hsbench's per-pass phase
/// deltas (bench/perf).
///
/// Cost when idle is zero; cost per phase is two steady_clock reads plus
/// one short mutex hold at scope exit — negligible next to any stage worth
/// naming. Unlike the per-run MetricsRegistry (virtual time, byte-stable),
/// the profiler is explicitly wall-clock and process-global, so its numbers
/// never enter a cacheable payload.
namespace hetsched::obs {

/// Canonical stage names of the built-in instrumentation sites. Free-form
/// names are allowed, but sharing these constants keeps the `/metrics`
/// stage labels, hsbench's phase deltas, and docs/observability in
/// agreement.
inline constexpr std::string_view kPhaseAdmission = "admission";
inline constexpr std::string_view kPhaseCache = "cache";
inline constexpr std::string_view kPhaseCompute = "compute";
inline constexpr std::string_view kPhasePartitionSolve = "partition-solve";
inline constexpr std::string_view kPhaseSimEventLoop = "sim-event-loop";
inline constexpr std::string_view kPhaseSweepScenario = "sweep-scenario";
inline constexpr std::string_view kPhaseSerialize = "serialize";

struct PhaseStats {
  std::int64_t calls = 0;
  double total_ms = 0.0;  ///< inclusive wall time
  double self_ms = 0.0;   ///< inclusive minus nested phases
  double max_ms = 0.0;    ///< worst single inclusive call
};

class PhaseProfiler {
 public:
  /// Records one finished phase (normally called by ScopedPhase).
  void record(std::string_view stage, double inclusive_ms, double self_ms);

  /// Snapshot of every stage seen so far, sorted by stage name.
  std::map<std::string, PhaseStats> snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, PhaseStats> stages_;
};

/// The process-wide profiler every instrumentation site records into.
PhaseProfiler& phase_profiler();

/// RAII timer for one named stage. Nesting is tracked per thread: a parent
/// phase's self time excludes the inclusive time of phases opened inside
/// it on the same thread.
class ScopedPhase {
 public:
  explicit ScopedPhase(std::string_view stage,
                       PhaseProfiler& profiler = phase_profiler());
  ~ScopedPhase();

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseProfiler& profiler_;
  std::string stage_;
  std::uint64_t start_ns_ = 0;
  double child_ms_ = 0.0;       ///< accumulated inclusive time of children
  ScopedPhase* parent_ = nullptr;
};

}  // namespace hetsched::obs
