#include "check/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "analyzer/matchmaker.hpp"
#include "analyzer/ranking.hpp"
#include "apps/registry.hpp"
#include "glinda/multi_device.hpp"
#include "hw/platform.hpp"
#include "sweep/sweep.hpp"

namespace hetsched::check {

namespace {

bool want(const std::string& only, const char* name) {
  return only.empty() || only == name;
}

template <typename... Parts>
void add(std::vector<Violation>& out, const char* oracle, Parts&&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  out.push_back({oracle, os.str()});
}

// ---------------------------------------------------------------------------
// Planted-bug mutations (mutation-testing the oracles themselves). Applied
// to the oracle substrate AFTER the simulation: the oracles must notice a
// corrupted report exactly as they would a real accounting bug.
// ---------------------------------------------------------------------------

/// Rebuilds the report with the first positive per-kernel item count
/// decremented by one (json::Value is read-only, so mutate-by-copy).
json::Value drop_one_item(const json::Value& report, bool& dropped) {
  json::Value out;
  for (const auto& [key, member] : report.as_object()) {
    if (key != "devices") {
      out.set(key, member);
      continue;
    }
    json::Value devices{json::Value::Array{}};
    for (const json::Value& device : member.as_array()) {
      json::Value rebuilt;
      for (const auto& [field, value] : device.as_object()) {
        if (field != "items_per_kernel" || dropped) {
          rebuilt.set(field, value);
          continue;
        }
        json::Value items{json::Value::Object{}};
        for (const auto& [kernel, count] : value.as_object()) {
          std::int64_t n = count.as_int64();
          if (!dropped && n > 0) {
            --n;
            dropped = true;
          }
          items.set(kernel, json::Value(n));
        }
        rebuilt.set(field, std::move(items));
      }
      devices.push_back(std::move(rebuilt));
    }
    out.set(key, std::move(devices));
  }
  return out;
}

/// Rebuilds the report with its schedule record edited by `edit`. The two
/// schedule mutations are defined over the schedule record: on an
/// unexplored run (no record) there is nothing to corrupt, so the report
/// passes through untouched — the fuzz engine's canonical pass stays
/// clean and the planted bug surfaces on the explored schedules.
template <typename Edit>
json::Value mutate_schedule(const json::Value& report, Edit&& edit) {
  json::Value out;
  for (const auto& [key, member] : report.as_object()) {
    if (key != "schedule") {
      out.set(key, member);
      continue;
    }
    json::Value schedule = member;
    edit(schedule);
    out.set(key, std::move(schedule));
  }
  return out;
}

/// The classic tie-break bug: a dependent task's completion is recorded
/// before its predecessor's. Swaps the task ids of the two completion
/// records of one dependency edge whose endpoints both completed. A run
/// whose record has no such edge (independent tasks, or the dependent ones
/// never finished) offers nothing to corrupt and passes through — the fuzz
/// engine keeps scanning seeds until one is susceptible.
void swap_completion_before_pred(json::Value& schedule) {
  const json::Value::Array& completions =
      schedule.at("completions").as_array();
  std::map<std::int64_t, std::size_t> position;
  for (std::size_t i = 0; i < completions.size(); ++i)
    position[completions[i].as_array()[0].as_int64()] = i;
  std::size_t pred_at = 0;
  std::size_t succ_at = 0;
  bool found = false;
  for (const json::Value& edge : schedule.at("edges").as_array()) {
    const json::Value::Array& pair = edge.as_array();
    const auto pred = position.find(pair[0].as_int64());
    const auto succ = position.find(pair[1].as_int64());
    if (pred == position.end() || succ == position.end()) continue;
    if (pred->second == succ->second) continue;
    pred_at = pred->second;
    succ_at = succ->second;
    found = true;
    break;
  }
  if (!found) return;
  json::Value rebuilt{json::Value::Array{}};
  for (std::size_t i = 0; i < completions.size(); ++i) {
    const std::size_t from =
        i == pred_at ? succ_at : (i == succ_at ? pred_at : i);
    json::Value entry{json::Value::Array{}};
    entry.push_back(completions[from].as_array()[0]);
    entry.push_back(completions[i].as_array()[1]);
    rebuilt.push_back(std::move(entry));
  }
  schedule.set("completions", std::move(rebuilt));
}

/// The late-fault bug: an abandoned chunk resurfaces after the makespan.
void append_late_abandon(json::Value& schedule) {
  json::Value rebuilt = schedule.at("abandons");
  json::Value entry{json::Value::Array{}};
  entry.push_back(json::Value(std::int64_t{0}));
  entry.push_back(
      json::Value(schedule.at("makespan_ns").as_int64() + 1));
  rebuilt.push_back(std::move(entry));
  schedule.set("abandons", std::move(rebuilt));
}

void apply_mutation(sweep::ScenarioOutcome& subject,
                    const std::string& mutation) {
  if (mutation.empty()) return;
  if (mutation == "drop-items") {
    bool dropped = false;
    subject.report_json =
        drop_one_item(json::Value::parse(subject.report_json), dropped)
            .dump();
    HS_REQUIRE(dropped,
               "drop-items mutation found no executed items to drop");
    return;
  }
  if (mutation == "skew-time") {
    subject.metrics.time_ms = subject.metrics.time_ms * 1.25 + 1.0;
    return;
  }
  if (mutation == "completion-before-pred") {
    subject.report_json =
        mutate_schedule(json::Value::parse(subject.report_json),
                        swap_completion_before_pred)
            .dump();
    return;
  }
  if (mutation == "late-fault") {
    subject.report_json =
        mutate_schedule(json::Value::parse(subject.report_json),
                        append_late_abandon)
            .dump();
    return;
  }
  throw InvalidArgument("unknown mutation '" + mutation + "'");
}

// ---------------------------------------------------------------------------
// Execution oracles (over ScenarioOutcomes of c.scenario)
// ---------------------------------------------------------------------------

/// Items in == items completed + DNF'd. Expected per-kernel counts come
/// from the application itself (items_of x iterations); actuals are summed
/// by kernel name across every device of the report. A completed run must
/// match exactly — the executor reverses in-flight accounting when a
/// failure displaces a dispatch precisely so this holds across
/// migration/retry. A DNF run may only be missing work, and the deficit
/// must be explained by abandoned/unfinished tasks.
void check_conservation(const FuzzCase& c,
                        const sweep::ScenarioOutcome& outcome,
                        std::vector<Violation>& out) {
  constexpr const char* kOracle = "work-conservation";
  const hw::PlatformSpec platform =
      hw::platform_by_name(c.scenario.platform);
  const apps::Application::Config config =
      c.scenario.small ? apps::test_config(c.scenario.app)
                       : apps::paper_config(c.scenario.app);
  const auto application =
      apps::make_paper_app(c.scenario.app, platform, config);

  std::map<std::string, std::int64_t> expected;
  const std::vector<rt::KernelDef>& defs =
      application->executor().kernels();
  const std::vector<rt::KernelId>& sequence = application->kernels();
  for (std::size_t i = 0; i < sequence.size(); ++i)
    expected[defs[sequence[i]].name] +=
        application->items_of(i) * application->iterations();

  const json::Value report = json::Value::parse(outcome.report_json);
  std::map<std::string, std::int64_t> actual;
  for (const json::Value& device : report.at("devices").as_array())
    for (const auto& [kernel, items] :
         device.at("items_per_kernel").as_object())
      actual[kernel] += items.as_int64();

  for (const auto& [kernel, items] : actual)
    if (!expected.count(kernel))
      add(out, kOracle, "report executed unknown kernel '", kernel, "' (",
          items, " items)");

  const json::Value& faults = report.at("faults");
  const bool completed = faults.at("run_completed").as_bool();
  std::int64_t deficit = 0;
  for (const auto& [kernel, items] : expected) {
    const auto it = actual.find(kernel);
    const std::int64_t ran = it == actual.end() ? 0 : it->second;
    if (completed && ran != items) {
      add(out, kOracle, "completed run executed ", ran, "/", items,
          " items of kernel '", kernel, "'");
    } else if (!completed && ran > items) {
      add(out, kOracle, "DNF run over-executed kernel '", kernel, "': ",
          ran, "/", items, " items");
    }
    deficit += items - ran;
  }
  if (!completed && deficit > 0 &&
      faults.at("abandoned").as_int64() +
              faults.at("unfinished_tasks").as_int64() ==
          0)
    add(out, kOracle, "DNF run is missing ", deficit,
        " items with no abandoned or unfinished tasks to account for them");
  if (!completed && faults.at("abandoned").as_int64() == 0)
    add(out, kOracle,
        "run_completed=false but no task was ever abandoned");
}

/// The flattened ScenarioMetrics must agree with the embedded full report —
/// they are two serializations of one simulation.
void check_consistency(const sweep::ScenarioOutcome& outcome,
                       std::vector<Violation>& out) {
  constexpr const char* kOracle = "report-consistency";
  const sweep::ScenarioMetrics& m = outcome.metrics;
  const json::Value report = json::Value::parse(outcome.report_json);

  const auto expect_eq = [&](const char* what, double metric,
                             double reported) {
    if (metric != reported)
      add(out, kOracle, what, ": metrics=", json::format_double(metric),
          " report=", json::format_double(reported));
  };
  expect_eq("time_ms", m.time_ms, report.at("makespan_ms").as_number());
  expect_eq("tasks_executed", static_cast<double>(m.tasks_executed),
            report.at("tasks_executed").as_number());
  expect_eq("barriers", static_cast<double>(m.barriers),
            report.at("barriers").as_number());
  expect_eq("scheduling_decisions",
            static_cast<double>(m.scheduling_decisions),
            report.at("scheduling_decisions").as_number());
  expect_eq("sim_events", static_cast<double>(m.sim_events),
            report.at("sim_events").as_number());
  expect_eq("overhead_ms", m.overhead_ms,
            report.at("overhead_ms").as_number());
  const json::Value& transfers = report.at("transfers");
  expect_eq("h2d_bytes", static_cast<double>(m.h2d_bytes),
            transfers.at("h2d_bytes").as_number());
  expect_eq("d2h_bytes", static_cast<double>(m.d2h_bytes),
            transfers.at("d2h_bytes").as_number());
  expect_eq("h2d_ms", m.h2d_ms, transfers.at("h2d_ms").as_number());
  expect_eq("d2h_ms", m.d2h_ms, transfers.at("d2h_ms").as_number());
  const json::Value& faults = report.at("faults");
  expect_eq("faults_injected", static_cast<double>(m.faults_injected),
            faults.at("injected").as_number());
  expect_eq("fault_retries", static_cast<double>(m.fault_retries),
            faults.at("retries").as_number());
  expect_eq("migrated_tasks", static_cast<double>(m.migrated_tasks),
            faults.at("migrated").as_number());
  expect_eq("repartitioned_tasks",
            static_cast<double>(m.repartitioned_tasks),
            faults.at("repartitioned").as_number());
  expect_eq("abandoned_tasks", static_cast<double>(m.abandoned_tasks),
            faults.at("abandoned").as_number());
  if (m.run_completed != faults.at("run_completed").as_bool())
    add(out, kOracle, "run_completed: metrics=", m.run_completed,
        " report=", faults.at("run_completed").as_bool());

  if (m.gpu_fraction_overall < 0.0 || m.gpu_fraction_overall > 1.0)
    add(out, kOracle, "gpu_fraction_overall out of [0,1]: ",
        json::format_double(m.gpu_fraction_overall));
  for (std::size_t k = 0; k < m.gpu_fraction_per_kernel.size(); ++k)
    if (m.gpu_fraction_per_kernel[k] < 0.0 ||
        m.gpu_fraction_per_kernel[k] > 1.0)
      add(out, kOracle, "gpu_fraction_per_kernel[", k, "] out of [0,1]: ",
          json::format_double(m.gpu_fraction_per_kernel[k]));

  // Recompute the accelerator share from the report's device item counts.
  // Device 0 is hw::kCpuDevice by construction of every PlatformSpec.
  const json::Value::Array& devices = report.at("devices").as_array();
  std::int64_t total = 0;
  std::int64_t cpu_items = 0;
  for (std::size_t d = 0; d < devices.size(); ++d) {
    std::int64_t device_items = 0;
    for (const auto& [kernel, items] :
         devices[d].at("items_per_kernel").as_object())
      device_items += items.as_int64();
    total += device_items;
    if (d == hw::kCpuDevice) cpu_items = device_items;
  }
  if (total > 0) {
    const double recomputed =
        1.0 - static_cast<double>(cpu_items) / static_cast<double>(total);
    if (std::abs(recomputed - m.gpu_fraction_overall) > 1e-12)
      add(out, kOracle, "gpu_fraction_overall=",
          json::format_double(m.gpu_fraction_overall),
          " but device item counts give ", json::format_double(recomputed));
  }

  if (m.run_completed && m.baseline_time_ms > 0.0 &&
      m.degradation_ratio != m.time_ms / m.baseline_time_ms)
    add(out, kOracle, "degradation_ratio=",
        json::format_double(m.degradation_ratio), " but time/baseline=",
        json::format_double(m.time_ms / m.baseline_time_ms));
  if (!m.run_completed && m.degradation_ratio != 0.0)
    add(out, kOracle,
        "DNF run must report degradation_ratio=0 (an honest DNF, not a "
        "number), got ",
        json::format_double(m.degradation_ratio));
}

/// Explored-schedule oracle: the completion order the executor recorded
/// must be a linearization consistent with the dependency DAG — no task
/// completes before (or without) its predecessors, times never regress,
/// nothing happens after the makespan, no abandoned chunk resurfaces, and
/// the record agrees with the fault report's accounting. A report without
/// a schedule record (canonical, unexplored run) passes trivially.
void check_linearization(const sweep::ScenarioOutcome& outcome,
                         std::vector<Violation>& out) {
  constexpr const char* kOracle = "dag-linearization";
  const json::Value report = json::Value::parse(outcome.report_json);
  const json::Value* schedule = report.find("schedule");
  if (schedule == nullptr) return;

  const std::int64_t makespan = schedule->at("makespan_ns").as_int64();
  const std::int64_t tasks = schedule->at("tasks").as_int64();

  // Completion sequence: valid ids, no duplicates, non-decreasing times,
  // nothing past the makespan.
  std::map<std::int64_t, std::size_t> completed_at;  // task -> order index
  std::int64_t previous = 0;
  std::size_t index = 0;
  for (const json::Value& entry : schedule->at("completions").as_array()) {
    const json::Value::Array& pair = entry.as_array();
    const std::int64_t task = pair[0].as_int64();
    const std::int64_t at = pair[1].as_int64();
    if (task < 0 || task >= tasks)
      add(out, kOracle, "completion records unknown task ", task, " (graph has ",
          tasks, " tasks)");
    else if (completed_at.count(task))
      add(out, kOracle, "task ", task, " completed twice");
    else
      completed_at[task] = index;
    if (at < previous)
      add(out, kOracle, "completion times regress: task ", task,
          " completed at ", at, " ns after a completion at ", previous,
          " ns");
    if (at > makespan)
      add(out, kOracle, "task ", task, " completed at ", at,
          " ns, beyond the makespan ", makespan, " ns");
    previous = std::max(previous, at);
    ++index;
  }

  // Abandons: valid ids, disjoint from completions, inside the run window
  // (an abandoned chunk must never resurface after the makespan).
  std::int64_t abandons = 0;
  for (const json::Value& entry : schedule->at("abandons").as_array()) {
    const json::Value::Array& pair = entry.as_array();
    const std::int64_t task = pair[0].as_int64();
    const std::int64_t at = pair[1].as_int64();
    if (task < 0 || task >= tasks)
      add(out, kOracle, "abandon records unknown task ", task);
    if (completed_at.count(task))
      add(out, kOracle, "task ", task, " was both completed and abandoned");
    if (at > makespan)
      add(out, kOracle, "abandoned chunk of task ", task, " resurfaces at ",
          at, " ns, after the makespan ", makespan, " ns");
    ++abandons;
  }

  // Every dependency edge must be respected by the completion ORDER, not
  // just the timestamps: with zero-cost ties a successor may legally share
  // its predecessor's completion time, but it can never precede it in the
  // recorded sequence.
  for (const json::Value& edge : schedule->at("edges").as_array()) {
    const json::Value::Array& pair = edge.as_array();
    const std::int64_t pred = pair[0].as_int64();
    const std::int64_t succ = pair[1].as_int64();
    const auto done = completed_at.find(succ);
    if (done == completed_at.end()) continue;
    const auto before = completed_at.find(pred);
    if (before == completed_at.end())
      add(out, kOracle, "task ", succ, " completed but its predecessor ",
          pred, " never did");
    else if (before->second > done->second)
      add(out, kOracle, "completion order violates dependency ", pred,
          " -> ", succ, ": the successor completed first");
  }

  // The schedule record and the fault report are two views of one run.
  const json::Value& faults = report.at("faults");
  if (abandons != faults.at("abandoned").as_int64())
    add(out, kOracle, "schedule records ", abandons,
        " abandons but the fault report counts ",
        faults.at("abandoned").as_int64());
  if (faults.at("run_completed").as_bool() &&
      static_cast<std::int64_t>(completed_at.size()) != tasks)
    add(out, kOracle, "completed run recorded ", completed_at.size(), "/",
        tasks, " task completions");
}

// ---------------------------------------------------------------------------
// Analyzer oracles (over the generated structure)
// ---------------------------------------------------------------------------

analyzer::AppClass wrapped_in_main_loop(analyzer::AppClass cls) {
  using analyzer::AppClass;
  switch (cls) {
    case AppClass::kSKOne: return AppClass::kSKLoop;
    case AppClass::kSKLoop: return AppClass::kSKLoop;
    case AppClass::kMKSeq: return AppClass::kMKLoop;
    case AppClass::kMKLoop: return AppClass::kMKLoop;
    case AppClass::kMKDag: return AppClass::kMKDag;
  }
  return cls;
}

void check_ranking(const FuzzCase& c, std::vector<Violation>& out) {
  constexpr const char* kOracle = "ranking-relations";
  using analyzer::StrategyKind;
  const analyzer::KernelGraph& graph = c.structure.structure;
  const analyzer::AppClass cls = analyzer::classify(graph);
  const bool sync = c.structure.inter_kernel_sync();

  const analyzer::MatchResult match =
      analyzer::Matchmaker().match(c.structure);
  if (match.app_class != cls)
    add(out, kOracle, "matchmaker class ",
        analyzer::app_class_name(match.app_class), " != classify() ",
        analyzer::app_class_name(cls));
  if (match.inter_kernel_sync != sync)
    add(out, kOracle, "matchmaker sync flag ", match.inter_kernel_sync,
        " != descriptor sync ", sync);

  const std::vector<StrategyKind> table =
      analyzer::ranked_strategies(cls, sync);
  if (table.empty()) {
    add(out, kOracle, "empty Table-I ranking for class ",
        analyzer::app_class_name(cls));
    return;
  }
  if (match.ranking != table)
    add(out, kOracle, "matchmaker ranking differs from Table I for class ",
        analyzer::app_class_name(cls));
  if (match.best != table.front())
    add(out, kOracle, "matchmaker best ",
        analyzer::strategy_name(match.best), " is not the ranking head ",
        analyzer::strategy_name(table.front()));

  const auto position = [&table](StrategyKind kind) -> std::ptrdiff_t {
    const auto it = std::find(table.begin(), table.end(), kind);
    return it == table.end() ? -1 : it - table.begin();
  };
  for (std::size_t i = 0; i < table.size(); ++i)
    for (std::size_t j = i + 1; j < table.size(); ++j)
      if (table[i] == table[j])
        add(out, kOracle, "duplicate strategy ",
            analyzer::strategy_name(table[i]), " in Table-I ranking");
  // Proposition 1 holds for every class: DP-Perf >= DP-Dep.
  const std::ptrdiff_t perf = position(StrategyKind::kDPPerf);
  const std::ptrdiff_t dep = position(StrategyKind::kDPDep);
  if (perf < 0 || dep < 0 || perf > dep)
    add(out, kOracle,
        "Proposition 1 violated: DP-Perf must rank at or above DP-Dep ",
        "for class ", analyzer::app_class_name(cls));

  // The proposition expectation must describe the same order Table I
  // publishes (the expectation is the testable form of the ranking).
  const analyzer::RankingExpectation expectation =
      analyzer::ranking_expectation(cls, sync);
  if (expectation.order.size() != expectation.strict.size() + 1 &&
      !expectation.order.empty())
    add(out, kOracle, "ranking expectation has ", expectation.order.size(),
        " strategies but ", expectation.strict.size(),
        " adjacency relations");
  std::ptrdiff_t previous = -1;
  for (const StrategyKind kind : expectation.order) {
    const std::ptrdiff_t at = position(kind);
    if (at < 0) {
      add(out, kOracle, "expectation strategy ",
          analyzer::strategy_name(kind), " missing from Table-I ranking");
      continue;
    }
    if (at < previous)
      add(out, kOracle, "expectation orders ",
          analyzer::strategy_name(kind), " differently than Table I");
    previous = at;
  }

  // Metamorphic: wrapping the whole structure in a main loop moves the
  // class along SK-One->SK-Loop / MK-Seq->MK-Loop and fixes the others.
  analyzer::KernelGraph wrapped = graph;
  wrapped.main_loop = true;
  const analyzer::AppClass wrapped_class = analyzer::classify(wrapped);
  if (wrapped_class != wrapped_in_main_loop(cls))
    add(out, kOracle, "main-loop wrap of ", analyzer::app_class_name(cls),
        " classified as ", analyzer::app_class_name(wrapped_class),
        ", expected ",
        analyzer::app_class_name(wrapped_in_main_loop(cls)));

  // Metamorphic: per-kernel inner loops are unfolded for classification —
  // toggling them never changes a multi-kernel class (paper Section III-B).
  if (graph.kernel_count() > 1) {
    analyzer::KernelGraph toggled = graph;
    for (analyzer::KernelNode& kernel : toggled.kernels)
      kernel.inner_loop = !kernel.inner_loop;
    const analyzer::AppClass toggled_class = analyzer::classify(toggled);
    if (toggled_class != cls)
      add(out, kOracle, "inner-loop toggle changed multi-kernel class ",
          analyzer::app_class_name(cls), " -> ",
          analyzer::app_class_name(toggled_class));
  } else {
    // Single kernel: looped iff a main loop or its own inner loop exists.
    const bool looped = graph.main_loop || graph.kernels[0].inner_loop;
    const analyzer::AppClass expected_class =
        looped ? analyzer::AppClass::kSKLoop : analyzer::AppClass::kSKOne;
    if (cls != expected_class)
      add(out, kOracle, "single-kernel graph (main_loop=", graph.main_loop,
          ", inner_loop=", graph.kernels[0].inner_loop, ") classified as ",
          analyzer::app_class_name(cls));
  }
}

void check_dag_profile(const FuzzCase& c, std::vector<Violation>& out) {
  constexpr const char* kOracle = "dag-profile";
  const analyzer::KernelGraph& graph = c.structure.structure;
  const analyzer::DagProfile profile = analyzer::profile_dag(graph);
  std::size_t total = 0;
  std::size_t widest = 0;
  for (const std::size_t width : profile.level_widths) {
    total += width;
    widest = std::max(widest, width);
  }
  if (total != graph.kernel_count())
    add(out, kOracle, "level widths sum to ", total, " for ",
        graph.kernel_count(), " kernels");
  if (profile.depth != profile.level_widths.size())
    add(out, kOracle, "depth ", profile.depth, " != level count ",
        profile.level_widths.size());
  if (profile.depth == 0)
    add(out, kOracle, "non-empty graph profiled with depth 0");
  if (profile.max_width != widest)
    add(out, kOracle, "max_width ", profile.max_width,
        " != widest level ", widest);
  if (profile.depth > 0 &&
      profile.parallelism != static_cast<double>(graph.kernel_count()) /
                                 static_cast<double>(profile.depth))
    add(out, kOracle, "parallelism ",
        json::format_double(profile.parallelism), " != kernels/depth");
  if (profile.wide() != (profile.max_width >= 2))
    add(out, kOracle, "wide() disagrees with max_width ",
        profile.max_width);
}

// ---------------------------------------------------------------------------
// Partition-model oracles (over the generated estimate)
// ---------------------------------------------------------------------------

void check_partition(const FuzzCase& c, std::vector<Violation>& out) {
  constexpr const char* kOracle = "partition-model";
  const glinda::PartitionOptions options;
  const glinda::PartitionModel model(options);
  const std::int64_t n = c.model_items;
  const glinda::PartitionDecision decision = model.solve(c.estimate, n);

  if (decision.gpu_items + decision.cpu_items != n)
    add(out, kOracle, "split loses items: gpu=", decision.gpu_items,
        " cpu=", decision.cpu_items, " n=", n);
  if (decision.gpu_items < 0 || decision.cpu_items < 0)
    add(out, kOracle, "negative share: gpu=", decision.gpu_items, " cpu=",
        decision.cpu_items);
  if (decision.beta < 0.0 || decision.beta > 1.0)
    add(out, kOracle, "beta out of [0,1]: ",
        json::format_double(decision.beta));
  using glinda::HardwareConfig;
  if ((decision.config == HardwareConfig::kOnlyCpu &&
       decision.gpu_items != 0) ||
      (decision.config == HardwareConfig::kOnlyGpu &&
       decision.cpu_items != 0) ||
      (decision.config == HardwareConfig::kPartition &&
       (decision.gpu_items == 0 || decision.cpu_items == 0)))
    add(out, kOracle, "config ",
        glinda::hardware_config_name(decision.config),
        " contradicts split gpu=", decision.gpu_items,
        " cpu=", decision.cpu_items);

  // The chosen split can be worse than the best single device only by the
  // discretization the model applies on purpose: granularity rounding and
  // the min_share collapse. Bound both.
  const double tg = c.estimate.gpu_seconds_per_item_effective();
  const double tc = c.estimate.cpu.seconds_per_item;
  const double single = std::min(decision.predicted_cpu_seconds,
                                 decision.predicted_gpu_seconds);
  const double slack =
      (options.min_share * static_cast<double>(n) +
       2.0 * options.gpu_granularity + 2.0) *
          (tg + tc) +
      1e-9 * (1.0 + single);
  if (decision.predicted_partition_seconds > single + slack)
    add(out, kOracle, "predicted partition time ",
        json::format_double(decision.predicted_partition_seconds),
        " exceeds best single device ", json::format_double(single),
        " beyond the discretization slack ", json::format_double(slack));
  const double replayed = model.predict_split_seconds(
      c.estimate, decision.gpu_items, decision.cpu_items);
  if (replayed != decision.predicted_partition_seconds)
    add(out, kOracle, "predicted partition time ",
        json::format_double(decision.predicted_partition_seconds),
        " does not replay through predict_split_seconds (",
        json::format_double(replayed), ")");

  // Metamorphic (paper Propositions substrate): speeding the GPU up never
  // shrinks its optimal share — in beta or in rounded items.
  glinda::KernelEstimate faster = c.estimate;
  faster.gpu.seconds_per_item /= c.scale_factor;
  const glinda::PartitionDecision scaled = model.solve(faster, n);
  if (scaled.beta + 1e-15 < decision.beta)
    add(out, kOracle, "GPU sped up x",
        json::format_double(c.scale_factor), " but beta fell ",
        json::format_double(decision.beta), " -> ",
        json::format_double(scaled.beta));
  if (scaled.gpu_items < decision.gpu_items)
    add(out, kOracle, "GPU sped up x",
        json::format_double(c.scale_factor), " but its share fell ",
        decision.gpu_items, " -> ", scaled.gpu_items, " items");

  const glinda::PartitionMetrics metrics = derive_metrics(c.estimate);
  if (!(metrics.relative_capability > 0.0))
    add(out, kOracle, "relative capability R must be positive, got ",
        json::format_double(metrics.relative_capability));
  if (metrics.compute_transfer_gap < 0.0)
    add(out, kOracle, "compute/transfer gap G must be >= 0, got ",
        json::format_double(metrics.compute_transfer_gap));
}

void check_multi_partition(const FuzzCase& c, std::vector<Violation>& out) {
  constexpr const char* kOracle = "multi-partition-model";
  const glinda::PartitionOptions options;
  const std::int64_t n = c.model_items;

  glinda::MultiDeviceEstimate two;
  two.devices = {c.estimate.cpu, c.estimate.gpu};
  two.link_bytes_per_second = c.estimate.link_bytes_per_second;
  two.transfer_on_critical_path = c.estimate.transfer_on_critical_path;

  // N=2 regression wall: the vector entry point must delegate to the
  // scalar closed-form solver bit for bit — same items, same predicted
  // seconds, no numerical luck involved.
  const glinda::PartitionDecision scalar =
      glinda::PartitionModel(options).solve(c.estimate, n);
  const glinda::MultiPartitionDecision vec =
      glinda::solve_multi_partition(two, n, options);
  if (vec.items_per_device.size() != 2 ||
      vec.items_per_device[0] != scalar.cpu_items ||
      vec.items_per_device[1] != scalar.gpu_items)
    add(out, kOracle, "N=2 split diverges from the scalar solver: cpu ",
        vec.items_per_device.empty() ? -1 : vec.items_per_device[0], " vs ",
        scalar.cpu_items, ", accelerator ",
        vec.items_per_device.size() < 2 ? -1 : vec.items_per_device[1],
        " vs ", scalar.gpu_items);
  double scalar_predicted = scalar.predicted_partition_seconds;
  if (scalar.config == glinda::HardwareConfig::kOnlyCpu)
    scalar_predicted = scalar.predicted_cpu_seconds;
  if (scalar.config == glinda::HardwareConfig::kOnlyGpu)
    scalar_predicted = scalar.predicted_gpu_seconds;
  if (vec.predicted_seconds != scalar_predicted)
    add(out, kOracle, "N=2 predicted seconds diverge from the scalar ",
        "solver: ", json::format_double(vec.predicted_seconds), " vs ",
        json::format_double(scalar_predicted));

  // Three devices: the second accelerator is a strictly faster clone of
  // the first (same transfers, per-item cost / scale_factor).
  glinda::MultiDeviceEstimate three = two;
  glinda::DeviceProfile faster_clone = c.estimate.gpu;
  faster_clone.seconds_per_item /= c.scale_factor;
  three.devices.push_back(faster_clone);
  const glinda::MultiPartitionDecision multi =
      glinda::solve_multi_partition(three, n, options);

  std::int64_t total = 0;
  for (std::size_t d = 0; d < multi.items_per_device.size(); ++d) {
    if (multi.items_per_device[d] < 0)
      add(out, kOracle, "vector solve gave device ", d, " a negative ",
          "share: ", multi.items_per_device[d]);
    total += multi.items_per_device[d];
  }
  if (total != n)
    add(out, kOracle, "vector split loses items: ", total, " != ", n);
  if (!std::isfinite(multi.predicted_seconds) ||
      multi.predicted_seconds <= 0.0)
    add(out, kOracle, "vector predicted seconds not finite-positive: ",
        json::format_double(multi.predicted_seconds));

  // Shared-link bound: the makespan can never beat the total time the one
  // host link spends moving the accelerators' slabs.
  double link_seconds = 0.0;
  for (std::size_t d = 0; d < multi.items_per_device.size(); ++d)
    link_seconds += static_cast<double>(multi.items_per_device[d]) *
                    three.transfer_seconds_per_item(d);
  if (multi.predicted_seconds +
          1e-9 * (1.0 + multi.predicted_seconds) <
      link_seconds)
    add(out, kOracle, "predicted makespan ",
        json::format_double(multi.predicted_seconds),
        " beats the shared-link occupancy ",
        json::format_double(link_seconds));

  // The prediction must replay through the model's own predictor.
  const double replayed = glinda::MultiPartitionModel(options).predict_seconds(
      three, multi.items_per_device);
  if (replayed != multi.predicted_seconds)
    add(out, kOracle, "vector predicted seconds ",
        json::format_double(multi.predicted_seconds),
        " do not replay through predict_seconds (",
        json::format_double(replayed), ")");

  // Faster-clone dominance: device 2 beats device 1 in everything, so its
  // slab can only be smaller by the sequential granularity rounding /
  // final-clamp discretization (bounded by two granules).
  const std::int64_t slack = 2 * options.gpu_granularity + 2;
  if (multi.items_per_device[2] + slack < multi.items_per_device[1])
    add(out, kOracle, "device 2 is a x",
        json::format_double(c.scale_factor),
        " faster clone of device 1 but received fewer items: ",
        multi.items_per_device[2], " vs ", multi.items_per_device[1]);
}

sweep::SweepEngine plain_engine(const rt::ExploreSpec& explore) {
  sweep::SweepOptions options;
  options.parallel = false;
  options.use_cache = false;
  options.record_trace = false;
  options.explore = explore;
  return sweep::SweepEngine(options);
}

/// Shared body of run_oracles / run_schedule_oracles. With
/// `schedule_subset`, only the schedule-sensitive oracles run (the pure
/// analyzer/model oracles and the cache/trace transparency oracles see the
/// same answer on every interleaving).
std::vector<Violation> run_impl(const FuzzCase& c, const std::string& only,
                                const rt::ExploreSpec& explore,
                                bool schedule_subset) {
  if (!only.empty()) {
    const std::vector<std::string>& names = oracle_names();
    HS_REQUIRE(std::find(names.begin(), names.end(), only) != names.end(),
               "unknown oracle '" << only << "'");
  }
  std::vector<Violation> out;

  // The serve oracle is opt-in (a daemon round-trip per case): it runs
  // only when explicitly named, never as part of the default library.
  if (only == "cache-transparency-serve") {
    check_serve_transparency(c, out);
    return out;
  }

  // Pure oracles first: no simulation involved.
  if (!schedule_subset) {
    if (want(only, "ranking-relations")) check_ranking(c, out);
    if (want(only, "dag-profile")) check_dag_profile(c, out);
    if (want(only, "partition-model")) check_partition(c, out);
    if (want(only, "multi-partition-model")) check_multi_partition(c, out);
  }

  const bool need_execution =
      want(only, "no-unexpected-failure") ||
      want(only, "work-conservation") ||
      want(only, "report-consistency") || want(only, "determinism") ||
      want(only, "dag-linearization") ||
      (!schedule_subset && (want(only, "cache-transparency") ||
                            want(only, "trace-validity")));
  if (!need_execution) return out;

  const sweep::SweepEngine engine = plain_engine(explore);
  const sweep::ScenarioOutcome base = engine.compute(c.scenario);

  if (want(only, "no-unexpected-failure") &&
      base.status == sweep::ScenarioStatus::kFailed)
    add(out, "no-unexpected-failure", "scenario ", c.scenario.label(),
        " failed: ", base.error);

  if (want(only, "determinism")) {
    const sweep::ScenarioOutcome again = engine.compute(c.scenario);
    if (base.to_payload() != again.to_payload())
      add(out, "determinism", "two computations of ", c.scenario.label(),
          " produced different payloads");
  }

  if (!base.ok()) return out;  // execution substrate oracles need a report

  // The planted mutation corrupts a COPY of the outcome; conservation,
  // consistency, and linearization run over the corrupted substrate (and
  // must object), while the transparency/trace oracles keep comparing
  // genuine computations.
  sweep::ScenarioOutcome subject = base;
  apply_mutation(subject, c.mutation);
  if (want(only, "work-conservation")) check_conservation(c, subject, out);
  if (want(only, "report-consistency")) check_consistency(subject, out);
  if (want(only, "dag-linearization")) check_linearization(subject, out);

  if (schedule_subset) return out;

  if (want(only, "cache-transparency")) {
    const std::string payload = base.to_payload();
    const std::string round_trip =
        sweep::ScenarioOutcome::from_payload(payload).to_payload();
    if (round_trip != payload)
      add(out, "cache-transparency",
          "payload round-trip is not byte-identical for ",
          c.scenario.label());
    const sweep::SweepRun memoized =
        engine.run({c.scenario, c.scenario});
    for (std::size_t i = 0; i < memoized.outcomes.size(); ++i)
      if (memoized.outcomes[i].to_payload() != payload)
        add(out, "cache-transparency", "run() outcome #", i, " of ",
            c.scenario.label(),
            " differs from the standalone computation");
    if (memoized.summary.scenario_dedup_hits != 1)
      add(out, "cache-transparency",
          "duplicate scenario was not served by the in-run memo (",
          memoized.summary.scenario_dedup_hits, " dedup hits)");
  }

  if (want(only, "trace-validity")) {
    sweep::SweepOptions traced_options;
    traced_options.parallel = false;
    traced_options.record_trace = true;
    traced_options.explore = explore;
    const sweep::ScenarioOutcome traced =
        sweep::SweepEngine(traced_options).compute(c.scenario);
    for (const std::string& violation : traced.trace_violations)
      add(out, "trace-validity", violation);
    if (traced.trace_json.empty())
      add(out, "trace-validity", "traced run recorded no timeline for ",
          c.scenario.label());
    // Tracing is observation: the trace is run metadata, so a traced run's
    // canonical payload must match the untraced one byte for byte.
    if (traced.to_payload() != base.to_payload())
      add(out, "trace-validity",
          "recording a trace changed the canonical payload of ",
          c.scenario.label());
  }

  return out;
}

}  // namespace

const std::vector<std::string>& oracle_names() {
  // Append-only: the first nine names are pinned by tests and repro files.
  static const std::vector<std::string> kNames = {
      "no-unexpected-failure", "work-conservation",  "report-consistency",
      "determinism",           "cache-transparency", "trace-validity",
      "ranking-relations",     "dag-profile",        "partition-model",
      "dag-linearization",     "cache-transparency-serve",
      "multi-partition-model",
  };
  return kNames;
}

std::vector<Violation> run_oracles(const FuzzCase& c, const std::string& only,
                                   const rt::ExploreSpec& explore) {
  return run_impl(c, only, explore, /*schedule_subset=*/false);
}

std::vector<Violation> run_schedule_oracles(const FuzzCase& c,
                                            const rt::ExploreSpec& explore) {
  return run_impl(c, std::string(), explore, /*schedule_subset=*/true);
}

}  // namespace hetsched::check
