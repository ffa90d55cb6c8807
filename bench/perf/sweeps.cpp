#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <filesystem>
#include <functional>
#include <mutex>
#include <set>
#include <thread>

#include "analyzer/strategy.hpp"
#include "apps/registry.hpp"
#include "common/rng.hpp"
#include "hsbench.hpp"
#include "hw/platform.hpp"
#include "sweep/sweep.hpp"

namespace hetsched::perf {

namespace {

using sweep::Scenario;
using sweep::ScenarioOutcome;

const std::vector<int> kTaskCounts = {12, 24, 48, 96};

/// Slices per round. The timed unit of sweep-explore and faults-storm is a
/// slice of the matrix, not the whole matrix, so that a run times many
/// short calls and reports their median. Slice k holds the scenarios at
/// positions i with i % K == k. For explore, K is coprime to the sizes of
/// the inner axes (sync 2, platforms 12, strategies 7, apps 6), so every
/// slice mixes them alike; for faults, 8 divides the 64 seeds of each
/// (app, strategy, platform, plan), so every slice holds 8 of them.
constexpr std::size_t kExploreSlices = 11;
constexpr std::size_t kFaultsSlices = 8;

/// sweep-rerun times each pass as this many interleaved chunks, one
/// SweepEngine::run each on the calling thread, spread over kJobs threads.
/// The engine loads and parses cache hits serially on its calling thread,
/// and one such thread runs at the speed of whichever core it is on, which
/// on a shared host wanders by a third from run to run; four average over
/// the cores. Chunk c holds the positions i with i % K == c, so every chunk
/// mixes replayed hits and fresh misses alike.
constexpr std::size_t kRerunChunks = 48;

/// Never-used synthetic platforms, `quota[k]` of them with k + 1
/// accelerators.
std::vector<std::string> draw_synth_platforms(Rng& rng,
                                              std::array<int, 3> quota,
                                              std::set<std::uint64_t>& used) {
  std::vector<std::string> names;
  for (std::size_t k = 0; k < quota.size(); ++k)
    for (int n = 0; n < quota[k]; ++n)
      names.push_back(fresh_synth_platform(rng, k + 1, used));
  return names;
}

std::vector<Scenario> matrix_over(const std::vector<apps::PaperApp>& app_list,
                                  const std::vector<std::string>& platforms,
                                  const std::vector<int>& task_counts) {
  std::vector<Scenario> scenarios;
  for (int m : task_counts) {
    for (Scenario scenario : sweep::enumerate_matrix(
             app_list, analyzer::paper_strategies(), platforms,
             {false, true}, /*small=*/false)) {
      scenario.task_count = m;
      scenarios.push_back(std::move(scenario));
    }
  }
  return scenarios;
}

/// The sweep-explore matrix and the sweep-rerun replay set: 6 paper apps x
/// 7 paper strategies x sync {off, on} x 12 platforms x m in {12..96}.
struct ExploreInputs {
  std::vector<std::string> platforms;
  std::vector<Scenario> matrix;
};

ExploreInputs explore_inputs(const Options& options, Rng& rng,
                             std::set<std::uint64_t>& used) {
  ExploreInputs inputs;
  if (options.quick) {
    inputs.platforms = {"reference"};
    for (const std::string& name : draw_synth_platforms(rng, {1, 0, 0}, used))
      inputs.platforms.push_back(name);
    inputs.matrix = matrix_over(
        {apps::PaperApp::kMatrixMul, apps::PaperApp::kStreamSeq},
        inputs.platforms, {12});
    return inputs;
  }
  inputs.platforms = {"reference", "dual-gpu", "quad", "big-little"};
  for (const std::string& name : draw_synth_platforms(rng, {3, 3, 2}, used))
    inputs.platforms.push_back(name);
  inputs.matrix =
      matrix_over(apps::all_paper_apps(), inputs.platforms, kTaskCounts);
  return inputs;
}

json::Value string_array(const std::vector<std::string>& values) {
  json::Value array{json::Value::Array{}};
  for (const std::string& value : values) array.push_back(json::Value(value));
  return array;
}

/// Canonical-payload hash of every outcome, in input order (spread over
/// kJobs threads: serializing a paper-size pass takes longer than the
/// checks it feeds).
std::vector<std::uint64_t> payload_hashes(
    const std::vector<ScenarioOutcome>& outcomes) {
  std::vector<std::uint64_t> hashes(outcomes.size());
  std::vector<std::thread> workers;
  const std::size_t stride = (outcomes.size() + kJobs - 1) / kJobs;
  for (unsigned w = 0; w < kJobs; ++w) {
    const std::size_t first = w * stride;
    const std::size_t last = std::min(outcomes.size(), first + stride);
    if (first >= last) break;
    workers.emplace_back([&outcomes, &hashes, first, last] {
      for (std::size_t i = first; i < last; ++i)
        hashes[i] = sweep::fnv1a64(outcomes[i].to_payload());
    });
  }
  for (std::thread& worker : workers) worker.join();
  return hashes;
}

/// The scenarios of one slice with their reference payload hashes.
struct Slice {
  std::vector<Scenario> scenarios;
  std::vector<std::uint64_t> reference;
  /// Fault-free twins a run of this slice computes: one per distinct
  /// (app, strategy, platform) among its faulted scenarios.
  std::size_t twins = 0;
};

/// Slice k holds the positions i with i % count == k, last position first:
/// the matrices put the largest task counts last, and a slice that
/// dispatches its longest scenarios first does not end waiting on one.
std::vector<Slice> make_slices(const std::vector<Scenario>& scenarios,
                               const std::vector<std::uint64_t>& reference,
                               std::size_t count) {
  std::vector<Slice> slices(count);
  std::vector<std::set<std::string>> groups(count);
  for (std::size_t i = scenarios.size(); i-- > 0;) {
    Slice& slice = slices[i % count];
    slice.scenarios.push_back(scenarios[i]);
    slice.reference.push_back(reference[i]);
    if (!scenarios[i].fault_plan.empty())
      groups[i % count].insert(std::string(apps::paper_app_id(
                                   scenarios[i].app)) +
                               "|" +
                               analyzer::strategy_name(scenarios[i].strategy) +
                               "|" + scenarios[i].platform);
  }
  for (std::size_t k = 0; k < count; ++k) slices[k].twins = groups[k].size();
  return slices;
}

/// Everything one timed pass (one SweepEngine::run call) yields.
struct Pass {
  double wall_s = 0.0;
  /// Process CPU time over the same interval as wall_s.
  double cpu_s = 0.0;
  sweep::SweepSummary summary;
  std::int64_t sim_events = 0;
  std::int64_t migrated_tasks = 0;
  std::int64_t faults_injected = 0;
  /// ScenarioOutcome::wall_ms of every outcome, in input order.
  std::vector<double> scenario_ms;
  double outcome_wall_ms = 0.0;
  /// Outcomes whose payload differs from the reference.
  std::int64_t mismatches = 0;
  std::map<std::string, obs::PhaseStats> phases;
  std::vector<std::uint64_t> hashes;
};

/// SweepEngine::run over `scenarios` in `chunks` interleaved chunks (chunk
/// c holds the positions i with i % chunks == c), one call per chunk,
/// spread over kJobs threads. Outcomes come back in input order; the
/// summaries' counts are summed.
sweep::SweepRun run_chunked(const sweep::SweepEngine& engine,
                            const std::vector<Scenario>& scenarios,
                            std::size_t chunks) {
  sweep::SweepRun run;
  run.outcomes.resize(scenarios.size());
  std::mutex mutex;  // guards run.summary and failure
  std::exception_ptr failure;
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < kJobs; ++w) {
    workers.emplace_back([&] {
      try {
        for (std::size_t c = next++; c < chunks; c = next++) {
          std::vector<Scenario> part;
          for (std::size_t i = c; i < scenarios.size(); i += chunks)
            part.push_back(scenarios[i]);
          sweep::SweepRun done = engine.run(part);
          for (std::size_t j = 0; j < done.outcomes.size(); ++j)
            run.outcomes[c + j * chunks] = std::move(done.outcomes[j]);
          const std::lock_guard<std::mutex> lock(mutex);
          sweep::SweepSummary& sum = run.summary;
          sum.scenarios += done.summary.scenarios;
          sum.failed += done.summary.failed;
          sum.cache_hits += done.summary.cache_hits;
          sum.cache_misses += done.summary.cache_misses;
          sum.twin_computes += done.summary.twin_computes;
          sum.twin_memo_hits += done.summary.twin_memo_hits;
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (!failure) failure = std::current_exception();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  if (failure) std::rethrow_exception(failure);
  return run;
}

/// Runs one pass of `scenarios` — one SweepEngine::run, or `chunks`
/// of them (see run_chunked) when non-zero — timed around the calls only,
/// and checks its first `reference.size()` payloads against `reference`.
Pass run_pass(const sweep::SweepEngine& engine,
              const std::vector<Scenario>& scenarios,
              const std::vector<std::uint64_t>& reference, Tracer& tracer,
              std::size_t chunks = 0) {
  Pass pass;
  const Scope root(tracer, "pass");
  const auto before = obs::phase_profiler().snapshot();
  sweep::SweepRun run;
  {
    const Scope call(tracer, "sweep.run", root.id());
    const Clock::time_point start = Clock::now();
    const double cpu_start = process_cpu_s();
    run = chunks == 0 ? engine.run(scenarios)
                      : run_chunked(engine, scenarios, chunks);
    pass.cpu_s = process_cpu_s() - cpu_start;
    pass.wall_s = seconds_since(start);
  }
  pass.phases = phase_delta(before, obs::phase_profiler().snapshot());

  const Scope check(tracer, "check", root.id());
  pass.summary = run.summary;
  pass.scenario_ms.reserve(run.outcomes.size());
  for (const ScenarioOutcome& outcome : run.outcomes) {
    pass.scenario_ms.push_back(outcome.wall_ms);
    pass.outcome_wall_ms += outcome.wall_ms;
    if (!outcome.ok()) continue;
    pass.sim_events += outcome.metrics.sim_events;
    pass.migrated_tasks += outcome.metrics.migrated_tasks;
    pass.faults_injected += outcome.metrics.faults_injected;
  }
  pass.hashes = payload_hashes(run.outcomes);
  for (std::size_t i = 0; i < reference.size() && i < pass.hashes.size(); ++i)
    if (pass.hashes[i] != reference[i]) ++pass.mismatches;
  return pass;
}

/// One pass per complete round of `slices` consecutive passes: walls,
/// counts and profiler stages summed and scenario walls joined, so that it
/// describes the whole matrix.
std::vector<Pass> rounds_of(const std::vector<Pass>& passes,
                            std::size_t slices) {
  std::vector<Pass> rounds;
  for (std::size_t first = 0; first + slices <= passes.size();
       first += slices) {
    Pass round;
    for (std::size_t i = first; i < first + slices; ++i) {
      const Pass& pass = passes[i];
      round.wall_s += pass.wall_s;
      round.cpu_s += pass.cpu_s;
      round.summary.scenarios += pass.summary.scenarios;
      round.summary.failed += pass.summary.failed;
      round.summary.cache_hits += pass.summary.cache_hits;
      round.summary.cache_misses += pass.summary.cache_misses;
      round.summary.twin_computes += pass.summary.twin_computes;
      round.summary.twin_memo_hits += pass.summary.twin_memo_hits;
      round.sim_events += pass.sim_events;
      round.migrated_tasks += pass.migrated_tasks;
      round.faults_injected += pass.faults_injected;
      round.scenario_ms.insert(round.scenario_ms.end(),
                               pass.scenario_ms.begin(),
                               pass.scenario_ms.end());
      round.outcome_wall_ms += pass.outcome_wall_ms;
      round.mismatches += pass.mismatches;
      for (const auto& [stage, stats] : pass.phases) {
        obs::PhaseStats& sum = round.phases[stage];
        sum.calls += stats.calls;
        sum.total_ms += stats.total_ms;
        sum.self_ms += stats.self_ms;
      }
    }
    rounds.push_back(std::move(round));
  }
  return rounds;
}

template <typename Field>
std::vector<double> per_pass(const std::vector<Pass>& passes, Field field) {
  std::vector<double> values;
  for (const Pass& pass : passes) values.push_back(field(pass));
  return values;
}

double stage_self_ms(const Pass& pass, std::string_view stage) {
  const auto it = pass.phases.find(std::string(stage));
  return it == pass.phases.end() ? 0.0 : it->second.self_ms;
}

double stage_calls(const Pass& pass, std::string_view stage) {
  const auto it = pass.phases.find(std::string(stage));
  return it == pass.phases.end() ? 0.0
                                 : static_cast<double>(it->second.calls);
}

/// Runs passes over slices 0, 1, ..., slices - 1, 0, ... until the phase
/// has lasted `options.seconds` and covered at least one round (and three
/// passes), or exactly `fixed` passes when non-zero (two rounds for
/// --quick).
std::vector<Pass> timed_passes(
    const Options& options, std::size_t slices, std::size_t fixed,
    const std::function<Pass(std::size_t slice)>& one_pass) {
  if (options.quick && fixed == 0) fixed = 2 * slices;
  const std::size_t at_least = std::max<std::size_t>(3, slices);
  std::vector<Pass> passes;
  const Clock::time_point start = Clock::now();
  while (fixed != 0 ? passes.size() < fixed
                    : passes.size() < at_least ||
                          seconds_since(start) < options.seconds) {
    passes.push_back(one_pass(passes.size() % slices));
  }
  return passes;
}

double scenarios_per_s(const Pass& pass) {
  return static_cast<double>(pass.summary.scenarios) / pass.wall_s;
}

double scenarios_per_cpu_s(const Pass& pass) {
  return static_cast<double>(pass.summary.scenarios) / pass.cpu_s;
}

/// End-to-end metrics shared by the three sweeps: rates are the median over
/// passes; scenario latencies are quantiles over each whole round's
/// outcomes (thousands, so forty and more beyond the p99), median over the
/// rounds, so that a host stall spoils some rounds and not the result.
///
/// The gated rate is per second of process CPU time, not of wall time: on
/// the shared host the bounds were set on, the host takes 10-35% of the
/// virtual CPUs' time away (steal) and that share drifts from minute to
/// minute, which moves wall rates by up to half between runs of the same
/// code. Steal is not in the process's CPU time. A change that only makes
/// the workers wait (worse load balance, a serial step) does not show here;
/// it shows in throughput_per_s and sweep.parallel_efficiency.
void record_sweep_e2e(const std::vector<Pass>& passes, std::size_t slices,
                      Result& result) {
  result.set_param("pass_walls_s",
                   number_array(per_pass(
                       passes, [](const Pass& pass) { return pass.wall_s; })));
  result.set_param("pass_cpu_s",
                   number_array(per_pass(
                       passes, [](const Pass& pass) { return pass.cpu_s; })));
  std::vector<double> p50_ms, p99_ms;
  for (const Pass& round : rounds_of(passes, slices)) {
    p50_ms.push_back(quantile(round.scenario_ms, 0.50));
    p99_ms.push_back(quantile(round.scenario_ms, 0.99));
  }
  result.metric("scenarios_per_cpu_s",
                median(per_pass(passes, scenarios_per_cpu_s)), "1/s",
                Better::kHigher, "e2e");
  result.metric("throughput_per_s", median(per_pass(passes, scenarios_per_s)),
                "1/s", Better::kHigher, "e2e");
  result.metric("sim_events_per_s",
                median(per_pass(passes,
                                [](const Pass& pass) {
                                  return static_cast<double>(pass.sim_events) /
                                         pass.wall_s;
                                })),
                "1/s", Better::kHigher, "e2e");
  result.metric("latency_p50_ms", median(p50_ms), "ms", Better::kLower,
                "e2e");
  result.metric("latency_p99_ms", median(p99_ms), "ms", Better::kLower,
                "e2e");
}

/// Counts every scenario of `passes` as attempted, and failed outcomes and
/// payload mismatches as failed.
void count_ops(const std::vector<Pass>& passes, Result& result) {
  for (const Pass& pass : passes) {
    result.add_ops(static_cast<std::int64_t>(pass.summary.scenarios),
                   static_cast<std::int64_t>(pass.summary.failed) +
                       pass.mismatches);
  }
}

/// Deterministic per-pass counts (identical on every pass at one seed).
void record_sweep_counts(const Pass& pass, Result& result) {
  result.count("sim.events", static_cast<double>(pass.sim_events), "sim");
  result.count("sweep.cache_hits",
               static_cast<double>(pass.summary.cache_hits), "sweep");
  result.count("sweep.cache_misses",
               static_cast<double>(pass.summary.cache_misses), "sweep");
  const double lookups =
      static_cast<double>(pass.summary.cache_hits + pass.summary.cache_misses);
  result.metric("sweep.cache_hit_ratio",
                lookups > 0 ? static_cast<double>(pass.summary.cache_hits) /
                                  lookups
                            : 0.0,
                "ratio", Better::kExact, "sweep");
  result.count("faults.twin_computes",
               static_cast<double>(pass.summary.twin_computes), "faults");
  result.count("faults.twin_memo_hits",
               static_cast<double>(pass.summary.twin_memo_hits), "faults");
  const double twins = static_cast<double>(pass.summary.twin_memo_hits +
                                           pass.summary.twin_computes);
  result.metric("faults.twin_share",
                twins > 0 ? static_cast<double>(pass.summary.twin_memo_hits) /
                                twins
                          : 0.0,
                "ratio", Better::kExact, "faults");
  result.count("faults.migrated_tasks",
               static_cast<double>(pass.migrated_tasks), "faults");
  result.count("faults.faults_injected",
               static_cast<double>(pass.faults_injected), "faults");
  result.count("glinda.solve_calls",
               stage_calls(pass, obs::kPhasePartitionSolve), "glinda");
}

/// Per-layer metrics of the traced rounds: profiler stage self times read
/// at pass boundaries and summed per round, parallel efficiency, and how
/// much of the round's wall time the layer self times account for. The
/// trace overhead compares the passes' gated (CPU-time) rates.
void record_sweep_layers(const std::vector<Pass>& untraced,
                         const std::vector<Pass>& traced,
                         const std::vector<Pass>& traced_rounds,
                         double serial_s_per_round, Result& result) {
  result.metric("runtime.event_loop_self_ms",
                median(per_pass(traced_rounds,
                                [](const Pass& pass) {
                                  return stage_self_ms(
                                      pass, obs::kPhaseSimEventLoop);
                                })),
                "ms", Better::kLower, "runtime");
  result.metric("sweep.scenario_self_ms",
                median(per_pass(traced_rounds,
                                [](const Pass& pass) {
                                  return stage_self_ms(
                                      pass, obs::kPhaseSweepScenario);
                                })),
                "ms", Better::kLower, "sweep");
  result.metric("sweep.parallel_efficiency",
                median(per_pass(traced_rounds,
                                [](const Pass& pass) {
                                  return pass.outcome_wall_ms / 1000.0 /
                                         (kJobs * pass.wall_s);
                                })),
                "ratio", Better::kHigher, "sweep");
  // Layer self times run on kJobs workers at once; the coordinator's
  // serial work (keys, cache loads and stores) is estimated from the probe.
  result.metric(
      "obs.layer_coverage",
      median(per_pass(traced_rounds,
                      [serial_s_per_round](const Pass& pass) {
                        double self_ms = 0.0;
                        for (const auto& [stage, stats] : pass.phases)
                          self_ms += stats.self_ms;
                        return (self_ms / 1000.0 / kJobs +
                                serial_s_per_round) /
                               pass.wall_s;
                      })),
      "ratio", Better::kHigher, "obs");
  const double plain = median(per_pass(untraced, scenarios_per_cpu_s));
  const double spans = median(per_pass(traced, scenarios_per_cpu_s));
  result.metric("obs.trace_overhead_pct", (plain - spans) / plain * 100.0, "%",
                Better::kLower, "obs");
}

/// Checks and counts the operations of `passes` (`what` names them).
void check_passes(const std::vector<Pass>& passes, const std::string& what,
                  Result& result) {
  std::int64_t mismatches = 0;
  std::size_t failed = 0;
  for (const Pass& pass : passes) {
    mismatches += pass.mismatches;
    failed += pass.summary.failed;
  }
  count_ops(passes, result);
  result.check(what + ": payloads identical to the reference",
               mismatches == 0,
               std::to_string(mismatches) + " mismatching outcomes");
  result.check(what + ": no scenario failed", failed == 0,
               std::to_string(failed) + " failed outcomes");
}

std::vector<ProbeItem> probe_items(const std::vector<Scenario>& scenarios) {
  std::vector<ProbeItem> items;
  items.reserve(scenarios.size());
  for (const Scenario& scenario : scenarios) {
    ProbeItem item;
    item.app = apps::paper_app_id(scenario.app);
    item.platform = scenario.platform;
    item.strategy = analyzer::strategy_name(scenario.strategy);
    item.sync = scenario.sync;
    item.small = scenario.small;
    item.task_count = scenario.task_count;
    items.push_back(std::move(item));
  }
  return items;
}

/// Estimated coordinator-thread seconds per pass: key derivation for every
/// scenario, load + parse per hit, serialize + store per miss, from the
/// probe's per-call medians.
double serial_seconds(const Result& result, const sweep::SweepSummary& pass) {
  const auto us = [&result](const std::string& name) {
    const auto it = result.metrics().find(name);
    return it == result.metrics().end() ? 0.0 : it->second.value;
  };
  return (us("sweep.scenario_key_us") * static_cast<double>(pass.scenarios) +
          (us("sweep.cache_load_us") + us("sweep.from_payload_us")) *
              static_cast<double>(pass.cache_hits) +
          (us("sweep.to_payload_us") + us("sweep.cache_store_us")) *
              static_cast<double>(pass.cache_misses)) /
         1e6;
}

sweep::SweepOptions sweep_options(bool use_cache) {
  sweep::SweepOptions options;
  options.jobs = kJobs;
  options.use_cache = use_cache;
  return options;
}

/// The common shape of sweep-explore and faults-storm: `setups` full warm-up
/// passes (each generates the inputs anew; the first one's payloads are the
/// reference), then timed passes over `slices` slices of the matrix, then —
/// traced — the identical passes with spans on and the layer probes. Every
/// pass must compute exactly its slice's fault-free twins.
void run_plain_sweep(const Options& options, Result& result,
                     const std::function<std::vector<Scenario>()>& make_inputs,
                     std::size_t slice_count) {
  const sweep::SweepEngine engine(sweep_options(false));
  Tracer off(false);

  std::vector<double> setups, setup_cpu;
  std::vector<Scenario> scenarios;
  std::vector<std::uint64_t> reference;
  std::int64_t setup_mismatches = 0;
  for (int i = 0; i < options.setups; ++i) {
    const Clock::time_point start =
        i == 0 ? options.process_start : Clock::now();
    const double cpu_start = i == 0 ? 0.0 : process_cpu_s();
    scenarios = make_inputs();
    const Pass warm = run_pass(engine, scenarios, reference, off);
    setups.push_back(seconds_since(start));
    setup_cpu.push_back(process_cpu_s() - cpu_start);
    if (reference.empty()) reference = warm.hashes;
    setup_mismatches += warm.mismatches;
  }
  record_setups(setups, setup_cpu, result);
  result.check("set-up passes identical", setup_mismatches == 0,
               std::to_string(setup_mismatches) + " mismatching outcomes");
  result.set_digest(fold_digest(reference));
  result.set_param("scenarios_per_round",
                   json::Value(static_cast<std::int64_t>(scenarios.size())));
  result.set_param("slices", json::Value(static_cast<std::int64_t>(
                                 slice_count)));
  const std::vector<Slice> slices =
      make_slices(scenarios, reference, slice_count);
  result.set_param("expected_twin_computes_per_pass",
                   json::Value(static_cast<std::int64_t>(
                       slices.front().twins)));

  // A slice fires the same events on every round and computes exactly its
  // own twins.
  const auto check_counts = [&](const std::vector<Pass>& checked) {
    bool stable = true;
    for (std::size_t i = 0; i < checked.size(); ++i) {
      const Pass& pass = checked[i];
      stable = stable &&
               pass.summary.twin_computes == slices[i % slice_count].twins &&
               (i < slice_count ||
                pass.sim_events == checked[i - slice_count].sim_events);
    }
    result.check("deterministic counts stable across rounds", stable,
                 "sim events in the first pass " +
                     std::to_string(checked.front().sim_events) +
                     ", twin computes " +
                     std::to_string(checked.front().summary.twin_computes) +
                     " of " + std::to_string(slices.front().twins));
  };
  const auto one_pass = [&](Tracer& tracer) {
    return [&engine, &slices, spans = &tracer](std::size_t k) {
      return run_pass(engine, slices[k].scenarios, slices[k].reference,
                      *spans);
    };
  };

  const std::vector<Pass> passes =
      timed_passes(options, slice_count, 0, one_pass(off));
  result.set_param("timed_passes",
                   json::Value(static_cast<std::int64_t>(passes.size())));
  record_sweep_e2e(passes, slice_count, result);
  check_passes(passes, "timed passes", result);
  check_counts(passes);
  record_sweep_counts(rounds_of(passes, slice_count).front(), result);
  if (!options.trace) return;

  Tracer tracer(true);
  const std::vector<Pass> traced =
      timed_passes(options, slice_count, passes.size(), one_pass(tracer));
  check_passes(traced, "traced passes", result);
  check_counts(traced);
  run_layer_probes(options, probe_items(scenarios), tracer, result);
  const std::vector<Pass> traced_rounds = rounds_of(traced, slice_count);
  record_sweep_layers(passes, traced, traced_rounds,
                      serial_seconds(result, traced_rounds.front().summary),
                      result);
  finish_trace(options, tracer, result);
}

}  // namespace

void run_sweep_explore(const Options& options, Result& result) {
  std::vector<std::string> platforms;
  run_plain_sweep(
      options, result,
      [&] {
        Rng rng(options.seed);
        std::set<std::uint64_t> used;
        ExploreInputs inputs = explore_inputs(options, rng, used);
        platforms = inputs.platforms;
        return inputs.matrix;
      },
      kExploreSlices);
  result.set_param("platforms", string_array(platforms));
}

void run_faults_storm(const Options& options, Result& result) {
  const std::vector<apps::PaperApp> app_list =
      options.quick ? std::vector<apps::PaperApp>{apps::PaperApp::kMatrixMul,
                                                  apps::PaperApp::kStreamSeq}
                    : apps::all_paper_apps();
  const std::vector<analyzer::StrategyKind> strategies = {
      analyzer::StrategyKind::kDPPerf, analyzer::StrategyKind::kDPDep,
      analyzer::StrategyKind::kSPUnified, analyzer::StrategyKind::kSPVaried,
      analyzer::StrategyKind::kSPSingle};
  const std::vector<std::string> platforms = {"reference", "dual-gpu", "quad"};
  const std::vector<std::string> plans = {"storm", "storm-all"};
  const int seeds_per_plan = options.quick ? 4 : 64;

  // Every faulted scenario shares its fault-free twin with the others of
  // its (app, strategy, platform) in the same pass: every slice holds all
  // 90 of them, so each pass computes exactly 90 twins.
  std::vector<std::uint64_t> fault_seeds;
  run_plain_sweep(
      options, result,
      [&] {
        Rng rng(options.seed);
        std::set<std::uint64_t> unique;
        fault_seeds.clear();
        while (fault_seeds.size() < static_cast<std::size_t>(seeds_per_plan)) {
          const auto seed =
              static_cast<std::uint64_t>(rng.uniform_int(1, 1'000'000'000));
          if (unique.insert(seed).second) fault_seeds.push_back(seed);
        }
        std::vector<Scenario> scenarios;
        for (apps::PaperApp app : app_list)
          for (analyzer::StrategyKind strategy : strategies)
            for (const std::string& platform : platforms)
              for (const std::string& plan : plans)
                for (std::uint64_t seed : fault_seeds) {
                  Scenario scenario;
                  scenario.app = app;
                  scenario.strategy = strategy;
                  scenario.platform = platform;
                  scenario.fault_plan = plan;
                  scenario.fault_seed = seed;
                  scenarios.push_back(std::move(scenario));
                }
        return scenarios;
      },
      kFaultsSlices);
  result.set_param("platforms", string_array(platforms));
  result.set_param("plans", string_array(plans));
  result.set_param("seeds_per_plan", json::Value(seeds_per_plan));
}

void run_sweep_rerun(const Options& options, Result& result) {
  namespace fs = std::filesystem;
  Rng rng(options.seed);
  std::set<std::uint64_t> used;
  ExploreInputs inputs;
  const std::vector<apps::PaperApp> fresh_apps =
      options.quick ? std::vector<apps::PaperApp>{apps::PaperApp::kMatrixMul,
                                                  apps::PaperApp::kStreamSeq}
                    : apps::all_paper_apps();
  const std::array<int, 3> fresh_quota =
      options.quick ? std::array<int, 3>{1, 0, 0} : std::array<int, 3>{2, 2, 2};
  // Pass p replays the matrix plus scenarios on never-seen platforms, which
  // miss, compute and store.
  const auto fresh_for_pass = [&] {
    return matrix_over(fresh_apps,
                       draw_synth_platforms(rng, fresh_quota, used), {12});
  };

  const auto cache_dir = [&options](int setup) {
    return (fs::path(options.work_dir) /
            ("rerun-cache-" + std::to_string(setup)))
        .string();
  };
  for (int i = 0; i < options.setups; ++i) fs::remove_all(cache_dir(i));

  Tracer off(false);
  // Fills and timed passes alike run one engine call per chunk.
  sweep::SweepOptions cached = sweep_options(true);
  cached.parallel = false;
  std::vector<double> setups, setup_cpu;
  std::vector<std::uint64_t> reference;
  std::int64_t setup_mismatches = 0;
  for (int i = 0; i < options.setups; ++i) {
    // Each set-up starts with the previous fill written back.
    if (i > 0) flush_writes(options.work_dir);
    const Clock::time_point start =
        i == 0 ? options.process_start : Clock::now();
    const double cpu_start = i == 0 ? 0.0 : process_cpu_s();
    if (i == 0) inputs = explore_inputs(options, rng, used);
    cached.cache_dir = cache_dir(i);
    const Pass fill = run_pass(sweep::SweepEngine(cached), inputs.matrix,
                               reference, off, kRerunChunks);
    setups.push_back(seconds_since(start));
    setup_cpu.push_back(process_cpu_s() - cpu_start);
    if (reference.empty()) reference = fill.hashes;
    setup_mismatches += fill.mismatches;
    if (fill.summary.cache_misses != inputs.matrix.size())
      result.check("set-up fills a cold cache", false,
                   std::to_string(fill.summary.cache_misses) + " misses");
  }
  record_setups(setups, setup_cpu, result);
  result.check("set-up fills identical", setup_mismatches == 0,
               std::to_string(setup_mismatches) + " mismatching outcomes");
  result.set_digest(fold_digest(reference));
  const sweep::SweepEngine engine(cached);

  // The first pass's fresh scenarios with the payload hashes they produced,
  // for the cache-off recompute below.
  std::vector<Scenario> first_fresh;
  std::vector<std::uint64_t> first_fresh_hashes;
  std::size_t per_pass_scenarios = 0;
  const auto one_pass = [&](Tracer& tracer) {
    return [&, spans = &tracer](std::size_t) {
      std::vector<Scenario> scenarios = inputs.matrix;
      const std::vector<Scenario> fresh = fresh_for_pass();
      scenarios.insert(scenarios.end(), fresh.begin(), fresh.end());
      per_pass_scenarios = scenarios.size();
      Pass pass =
          run_pass(engine, scenarios, reference, *spans, kRerunChunks);
      if (first_fresh.empty()) {
        first_fresh = fresh;
        first_fresh_hashes.assign(
            pass.hashes.begin() +
                static_cast<std::ptrdiff_t>(inputs.matrix.size()),
            pass.hashes.end());
      }
      if (pass.summary.cache_hits != inputs.matrix.size() ||
          pass.summary.cache_misses != fresh.size())
        result.check("replayed scenarios hit, fresh ones miss", false,
                     std::to_string(pass.summary.cache_hits) + " hits, " +
                         std::to_string(pass.summary.cache_misses) +
                         " misses");
      return pass;
    };
  };
  flush_writes(options.work_dir);
  const std::vector<Pass> passes = timed_passes(options, 1, 0, one_pass(off));
  result.set_param("timed_passes",
                   json::Value(static_cast<std::int64_t>(passes.size())));
  result.set_param("scenarios_per_pass",
                   json::Value(static_cast<std::int64_t>(per_pass_scenarios)));
  record_sweep_e2e(passes, 1, result);
  check_passes(passes, "timed passes", result);
  record_sweep_counts(passes.front(), result);

  Tracer tracer(options.trace);
  std::vector<Pass> traced;
  if (options.trace) {
    flush_writes(options.work_dir);
    traced = timed_passes(options, 1, passes.size(), one_pass(tracer));
    check_passes(traced, "traced passes", result);
  }

  // Untimed: every replayed hit, and the first pass's computed misses,
  // must equal a cache-off recompute of the same scenario.
  std::vector<Scenario> recheck = inputs.matrix;
  recheck.insert(recheck.end(), first_fresh.begin(), first_fresh.end());
  std::vector<std::uint64_t> expected = reference;
  expected.insert(expected.end(), first_fresh_hashes.begin(),
                  first_fresh_hashes.end());
  const Pass recompute =
      run_pass(sweep::SweepEngine(sweep_options(false)), recheck, expected,
               off);
  result.add_ops(0, recompute.mismatches);
  result.check("cache hits equal a cache-off recompute",
               recompute.mismatches == 0,
               std::to_string(recompute.mismatches) + " of " +
                   std::to_string(recheck.size()) + " differ");

  result.set_param("platforms", string_array(inputs.platforms));
  if (options.trace) {
    run_layer_probes(options, probe_items(inputs.matrix), tracer, result);
    // The chunks' keys, loads and stores run on kJobs threads at once.
    record_sweep_layers(passes, traced, traced,
                        serial_seconds(result, traced.front().summary) / kJobs,
                        result);
    finish_trace(options, tracer, result);
  }
  // Leave no deletes pending for whatever runs next.
  for (int i = 0; i < options.setups; ++i) fs::remove_all(cache_dir(i));
  flush_writes(options.work_dir);
}

}  // namespace hetsched::perf
