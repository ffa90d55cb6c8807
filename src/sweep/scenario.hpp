#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analyzer/strategy.hpp"
#include "apps/registry.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "runtime/executor.hpp"

/// Scenario descriptors for the batch sweep engine.
///
/// A Scenario pins down ONE simulated experiment completely: which paper
/// application at which problem size, which partitioning strategy, which
/// platform variant, and every knob that feeds the runtime. Because the
/// simulator is deterministic, a Scenario is a pure function of these
/// fields — which is what makes the content-addressed result cache sound:
/// two runs with equal scenario keys are guaranteed to produce identical
/// ExecutionReports.
namespace hetsched::sweep {

/// Bump whenever the meaning of a cached result changes — a scheduler or
/// cost-model behaviour change, new default StrategyOptions, a report
/// schema change. The version participates in every cache key, so bumping
/// it invalidates all previously cached results at once.
/// hs-sweep-4: payloads gained metrics.sim_events and optional persisted
/// trace/trace_violations members.
/// hs-sweep-5: a DNF run's makespan now extends to its last fault-handling
/// action (abandon/retry), so recorded recovery events stay in-window.
inline constexpr const char* kSweepCodeVersion = "hs-sweep-5";

struct Scenario {
  apps::PaperApp app = apps::PaperApp::kMatrixMul;
  analyzer::StrategyKind strategy = analyzer::StrategyKind::kSPSingle;
  /// Platform variant name, resolved via hw::platform_by_name.
  std::string platform = "reference";
  /// The paper's "w sync" scenario: taskwait after every kernel.
  bool sync = false;
  /// Use the small functional configuration instead of the paper size.
  bool small = false;
  /// Chunk count m (see StrategyOptions::task_count).
  int task_count = 12;
  /// Runtime overhead knobs charged by the executor.
  rt::RuntimeCosts costs;
  /// Named fault plan (faults::make_named_plan) injected into the measured
  /// execution; empty = healthy run. Plan horizons resolve against the
  /// scenario's own fault-free makespan, which the engine computes first.
  std::string fault_plan;
  /// Seed for seeded plan families ("storm"); ignored otherwise.
  std::uint64_t fault_seed = 0;

  /// Human-readable identifier, e.g. "matrixmul/sp-single+sync" (the
  /// platform is included only when it is not the reference one:
  /// "matrixmul/sp-single@small-gpu+sync").
  std::string label() const;

  /// Scenarios sharing a group ran the same workload under different
  /// strategies, so their times are comparable (ranking substrate):
  /// "<app>@<platform>[+sync][+small]".
  std::string group() const;

  json::Value to_json() const;
  static Scenario from_json(const json::Value& value);
};

/// The canonical cache key: a stable text serialization of everything the
/// simulation result depends on — the application configuration (problem
/// size, iterations, functional flag), the strategy and its options, the
/// full platform specification (every device/link parameter), the runtime
/// costs, and kSweepCodeVersion. Field changes anywhere in this closure
/// change the key.
std::string scenario_key(const Scenario& scenario);

/// FNV-1a lives in common/strings; callers still spell it sweep::fnv1a64.
using ::hetsched::fnv1a64;

/// Hex digest of `scenario_key`, used as the cache file name.
std::string scenario_hash(const Scenario& scenario);

/// The full cross product in deterministic order (apps major, then
/// strategies, then platforms, then sync variants).
std::vector<Scenario> enumerate_matrix(
    const std::vector<apps::PaperApp>& app_list,
    const std::vector<analyzer::StrategyKind>& strategies,
    const std::vector<std::string>& platforms,
    const std::vector<bool>& sync_variants, bool small);

/// Convenience: all six paper apps x all seven paper strategies on the
/// reference platform, both sync variants.
std::vector<Scenario> default_matrix(bool small = false);

}  // namespace hetsched::sweep
