#pragma once

#include <map>
#include <string>
#include <vector>

#include "runtime/explore.hpp"
#include "sweep/cache.hpp"
#include "sweep/scenario.hpp"

/// Batch scenario-sweep engine.
///
/// Takes a list of Scenarios (typically an app x strategy x platform
/// matrix), fans them out over a worker-thread pool — every scenario builds
/// its own Application + Executor, so simulations share nothing and the
/// sweep is embarrassingly parallel — and memoizes results in a
/// content-addressed on-disk cache so repeated sweeps only recompute
/// scenarios whose key closure changed. Results are exact: a cache hit
/// reconstructs the same bytes a fresh simulation would produce.
///
/// This is the substrate for the golden-shape regression suite
/// (tests/golden) and for the `hetsched_cli sweep` verb.
namespace hetsched::sweep {

enum class ScenarioStatus {
  kOk,
  /// The strategy does not apply to the application class / platform
  /// (e.g. SP-Single on STREAM, Only-GPU on cpu-only) — expected when
  /// sweeping a full matrix.
  kInapplicable,
  /// The simulation raised an unexpected error (message in `error`).
  kFailed,
};

const char* scenario_status_name(ScenarioStatus status);

/// Everything the figures and rankings are computed from, flattened out of
/// the StrategyResult so it can round-trip through the cache.
struct ScenarioMetrics {
  double time_ms = 0.0;
  double gpu_fraction_overall = 0.0;
  std::vector<double> gpu_fraction_per_kernel;
  std::int64_t h2d_bytes = 0;
  std::int64_t d2h_bytes = 0;
  double h2d_ms = 0.0;
  double d2h_ms = 0.0;
  double overhead_ms = 0.0;
  std::int64_t tasks_executed = 0;
  std::int64_t barriers = 0;
  std::int64_t scheduling_decisions = 0;
  /// Fault axis (meaningful only when Scenario::fault_plan is set; zeros
  /// and run_completed=true otherwise). The engine first computes the same
  /// scenario fault-free to obtain `baseline_time_ms`, resolves the named
  /// plan against that makespan, and reports the slowdown as
  /// degradation_ratio = faulted time / baseline time (0 when the faulted
  /// run did not complete — an honest DNF, not a number).
  double degradation_ratio = 0.0;
  double baseline_time_ms = 0.0;
  std::int64_t faults_injected = 0;
  std::int64_t fault_retries = 0;
  std::int64_t migrated_tasks = 0;
  std::int64_t repartitioned_tasks = 0;
  std::int64_t abandoned_tasks = 0;
  bool run_completed = true;
  /// Discrete events the simulator fired for this scenario (the measured
  /// run only, not the baseline twin) — hsbench's `sim.events`.
  std::int64_t sim_events = 0;
};

struct ScenarioOutcome {
  Scenario scenario;
  ScenarioStatus status = ScenarioStatus::kOk;
  std::string error;  ///< set when status != kOk
  ScenarioMetrics metrics;
  /// Full rt::report_to_json serialization of the ExecutionReport (empty
  /// when status != kOk). Byte-identical whether computed or cache-loaded.
  std::string report_json;

  /// Run metadata — not part of the canonical payload.
  /// Chrome-trace timeline (only when SweepOptions::record_trace).
  std::string trace_json;
  /// obs::validate_trace findings for the recorded timeline (only when
  /// SweepOptions::record_trace; empty = clean).
  std::vector<std::string> trace_violations;
  bool cache_hit = false;
  /// Result was copied from an identical scenario computed earlier in the
  /// same run (in-process dedup, no simulation and no disk involved).
  bool memo_hit = false;
  double wall_ms = 0.0;

  double time_ms() const { return metrics.time_ms; }
  double gpu_fraction_overall() const {
    return metrics.gpu_fraction_overall;
  }
  const std::vector<double>& gpu_fraction_per_kernel() const {
    return metrics.gpu_fraction_per_kernel;
  }
  bool ok() const { return status == ScenarioStatus::kOk; }

  /// Canonical serialization: scenario + status + metrics + report. This is
  /// the cache payload and the determinism-comparison string; run metadata
  /// (trace, cache_hit, wall_ms) is excluded.
  std::string to_payload() const;
  static ScenarioOutcome from_payload(const std::string& payload);
};

struct SweepOptions {
  /// Fan scenarios out over a thread pool; false runs them in submission
  /// order on the calling thread (reference mode for determinism tests).
  bool parallel = true;
  /// Worker count when parallel (0 = hardware concurrency).
  unsigned jobs = 0;
  /// Reuse / populate the on-disk result cache.
  bool use_cache = false;
  std::string cache_dir = ".hs-sweep-cache";
  /// Record a chrome trace per scenario. Incompatible with use_cache: the
  /// trace is run metadata the cache payload does not carry, so the engine
  /// rejects the combination up front.
  bool record_trace = false;
  /// Schedule-exploration spec threaded into every scenario's measured
  /// execution (see runtime/explore.hpp). Incompatible with use_cache: the
  /// scenario cache key does not close over the spec, so mixing them would
  /// poison the cache — the engine rejects the combination up front.
  /// Baseline twins run under the same spec, keeping the whole outcome a
  /// deterministic function of (scenario, spec).
  rt::ExploreSpec explore;
};

struct SweepSummary {
  std::size_t scenarios = 0;
  std::size_t ok = 0;
  std::size_t inapplicable = 0;
  std::size_t failed = 0;
  std::size_t cache_hits = 0;
  /// Cache lookups that found no usable entry (0 when the cache is off).
  std::size_t cache_misses = 0;
  /// Entries the cache discarded this run (corrupt files plus entries whose
  /// payload failed deserialization).
  std::size_t cache_evictions = 0;
  /// Store attempts the cache dropped (unwritable directory, failed
  /// rename); the sweep result is unaffected, only future reuse is lost.
  std::size_t cache_dropped_stores = 0;
  std::size_t computed = 0;
  /// Fault-free baseline twins served from the in-run memo instead of being
  /// recomputed (S faulted scenarios sharing one twin => S - 1 hits).
  std::size_t twin_memo_hits = 0;
  /// Baseline twins actually computed this run.
  std::size_t twin_computes = 0;
  /// Scenarios whose key matched an earlier scenario in the same input list
  /// and were copied instead of recomputed.
  std::size_t scenario_dedup_hits = 0;
  double wall_ms = 0.0;
};

struct SweepRun {
  std::vector<ScenarioOutcome> outcomes;  ///< same order as the input
  SweepSummary summary;
};

class SweepEngine {
 public:
  explicit SweepEngine(SweepOptions options = {});

  const SweepOptions& options() const { return options_; }

  /// Runs every scenario (resolving cache hits first) and returns outcomes
  /// in input order plus the run summary.
  SweepRun run(const std::vector<Scenario>& scenarios) const;

  /// Runs one scenario without touching the cache or the in-run memo (the
  /// reference path memoized runs are compared against).
  ScenarioOutcome compute(const Scenario& scenario) const;

 private:
  /// A scenario's outcome plus, for a healthy scenario, the strategy plan
  /// its measured run executed (defined in sweep.cpp).
  struct Computed;
  /// The run's single-flight memo and twin counters (defined in sweep.cpp).
  struct RunMemo;

  /// compute() with an optional memo. A faulted scenario executes its
  /// fault-free twin's plan instead of profiling again; when `memo` is
  /// non-null the twin resolves through the run's single-flight table
  /// instead of being recomputed.
  Computed compute_scenario(const Scenario& scenario, RunMemo* memo) const;

  SweepOptions options_;
};

/// Per-group ranking: scenarios that share Scenario::group() (same app,
/// platform, sync, size) ordered by ascending time, inapplicable/failed
/// ones excluded.
struct GroupRanking {
  std::string group;
  /// Strategies best-first with their times.
  std::vector<std::pair<analyzer::StrategyKind, double>> order;
  /// Best strategy excluding the Only-CPU/Only-GPU baselines (the paper's
  /// "winner"); kOnlyCpu if the group has no partitioning strategy at all.
  analyzer::StrategyKind winner = analyzer::StrategyKind::kOnlyCpu;
};

std::vector<GroupRanking> compute_rankings(
    const std::vector<ScenarioOutcome>& outcomes);

/// Machine-readable form of a whole run: summary, per-scenario outcomes
/// (reports embedded as objects), and the per-group rankings.
std::string sweep_to_json(const SweepRun& run);

}  // namespace hetsched::sweep
