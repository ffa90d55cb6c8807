#include <algorithm>
#include <filesystem>
#include <fstream>

#include "analyzer/strategy.hpp"
#include "apps/registry.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "glinda/partition_model.hpp"
#include "glinda/profile.hpp"
#include "hsbench.hpp"
#include "hw/platform.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "sim/engine.hpp"
#include "strategies/strategy_runner.hpp"
#include "sweep/cache.hpp"
#include "sweep/sweep.hpp"

namespace hetsched::perf {

namespace {

/// The probe runs one sampled scenario in 16, at most this many.
constexpr std::size_t kSampleOneIn = 16;
constexpr std::size_t kMaxSample = 256;
/// Partition solves per timed probe call (one solve is ~a microsecond).
constexpr int kSolveRepeats = 64;

/// Times `fn` and records it as a child span of `parent`; returns seconds.
template <typename Fn>
double timed(Tracer& tracer, std::string_view name, Tracer::Id parent,
             Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  const Clock::time_point end = Clock::now();
  tracer.record(name, start, end, parent);
  return seconds_between(start, end);
}

std::vector<std::size_t> sample_indices(std::size_t count, bool quick,
                                        std::uint64_t seed) {
  Rng rng(seed ^ 0x6c617965725f7072ull);
  std::vector<std::size_t> indices = shuffled_indices(count, rng);
  const std::size_t keep = std::min(
      quick ? std::size_t{4} : kMaxSample,
      std::max<std::size_t>(1, (count + kSampleOneIn - 1) / kSampleOneIn));
  indices.resize(std::min(keep, count));
  std::sort(indices.begin(), indices.end());
  return indices;
}

/// Self-rescheduling event: keeps the engine's queue at a steady depth.
struct Tick {
  sim::Engine* engine;
  Rng* rng;
  std::int64_t* remaining;
  void operator()() const {
    if (*remaining <= 0) return;
    --*remaining;
    engine->schedule_in(1 + rng->uniform_int(0, 999), Tick{*this});
  }
};

/// Synthetic event core: schedule + pop at a steady queue depth, in ns per
/// fired event (median of three runs).
double engine_ns_per_event(std::size_t depth, std::int64_t events,
                           std::uint64_t seed) {
  std::vector<double> runs;
  for (int rep = 0; rep < 3; ++rep) {
    sim::Engine engine;
    engine.reserve_events(depth + 1);
    Rng rng(seed + static_cast<std::uint64_t>(rep));
    std::int64_t remaining = events;
    for (std::size_t i = 0; i < depth; ++i)
      engine.schedule_at(rng.uniform_int(0, 999),
                         Tick{&engine, &rng, &remaining});
    const Clock::time_point start = Clock::now();
    engine.run();
    const double seconds = seconds_since(start);
    runs.push_back(seconds * 1e9 /
                   static_cast<double>(engine.fired_events()));
  }
  return median(runs);
}

/// Functional kernel bodies of one paper app at its test size, in ns per
/// item (median of five full passes over the app's kernel sequence).
double kernel_ns_per_item(apps::PaperApp app) {
  const auto application = apps::make_paper_app(
      app, hw::make_reference_platform(), apps::test_config(app));
  const std::vector<rt::KernelDef>& defs = application->executor().kernels();
  std::vector<double> runs;
  for (int rep = 0; rep < 5; ++rep) {
    std::int64_t items = 0;
    const Clock::time_point start = Clock::now();
    for (std::size_t k = 0; k < application->kernels().size(); ++k) {
      const rt::KernelDef& def = defs[application->kernels()[k]];
      if (!def.body) continue;
      def.body(0, application->items_of(k));
      items += application->items_of(k);
    }
    if (items > 0)
      runs.push_back(seconds_since(start) * 1e9 / static_cast<double>(items));
  }
  return median(runs);
}

serve::QueryRequest request_for(const ProbeItem& item, const std::string& op) {
  serve::QueryRequest request;
  request.op = op;
  request.app = item.app;
  request.platform = item.platform;
  request.sync = item.sync;
  request.small = item.small;
  request.tasks = item.task_count;
  return request;
}

}  // namespace

void run_layer_probes(const Options& options,
                      const std::vector<ProbeItem>& items, Tracer& tracer,
                      Result& result) {
  namespace fs = std::filesystem;
  const fs::path cache_dir = fs::path(options.work_dir) / "probe-cache";
  fs::remove_all(cache_dir);
  const sweep::ResultCache cache(cache_dir.string());
  sweep::SweepOptions sweep_options;
  sweep_options.parallel = false;
  const sweep::SweepEngine engine(sweep_options);

  std::map<std::string, std::vector<double>> us;
  std::int64_t errors = 0;
  std::string first_error;
  const std::vector<std::size_t> sample =
      sample_indices(items.size(), options.quick, options.seed);
  for (std::size_t index : sample) {
    const ProbeItem& item = items[index];
    const Tracer::Id root = tracer.open("probe");
    try {
      const hw::PlatformSpec platform = hw::platform_by_name(item.platform);
      if (item.paper_app) {
        sweep::Scenario scenario;
        scenario.app = apps::paper_app_from_name(item.app);
        scenario.strategy = analyzer::strategy_from_name(item.strategy);
        scenario.platform = item.platform;
        scenario.sync = item.sync;
        scenario.small = item.small;
        scenario.task_count = item.task_count;
        std::string key;
        us["sweep.scenario_key_us"].push_back(
            1e6 * timed(tracer, "sweep.scenario_key", root,
                        [&] { key = sweep::scenario_key(scenario); }));
        sweep::ScenarioOutcome outcome;
        timed(tracer, "sweep.compute", root,
              [&] { outcome = engine.compute(scenario); });
        std::string payload;
        us["sweep.to_payload_us"].push_back(
            1e6 * timed(tracer, "sweep.to_payload", root,
                        [&] { payload = outcome.to_payload(); }));
        us["sweep.cache_store_us"].push_back(
            1e6 * timed(tracer, "sweep.cache_store", root,
                        [&] { cache.store(key, payload); }));
        std::optional<std::string> loaded;
        us["sweep.cache_load_us"].push_back(
            1e6 * timed(tracer, "sweep.cache_load", root,
                        [&] { loaded = cache.load(key); }));
        HS_REQUIRE(loaded && *loaded == payload,
                   "cache load returned other bytes for " << scenario.label());
        sweep::ScenarioOutcome parsed;
        us["sweep.from_payload_us"].push_back(
            1e6 * timed(tracer, "sweep.from_payload", root, [&] {
              parsed = sweep::ScenarioOutcome::from_payload(*loaded);
            }));
        HS_REQUIRE(parsed.to_payload() == payload,
                   "payload round trip changed bytes for "
                       << scenario.label());
      }

      std::unique_ptr<apps::Application> app;
      us["apps.make_app_us"].push_back(
          1e6 * timed(tracer, "apps.make_app", root, [&] {
            app = serve::make_named_app(item.app, platform, item.small);
          }));

      // Glinda: profile the CPU and the first accelerator, then solve.
      glinda::KernelEstimate estimate;
      const glinda::Profiler profiler;
      const std::size_t devices =
          std::min<std::size_t>(2, platform.device_count());
      for (hw::DeviceId device = 0; device < devices; ++device) {
        glinda::DeviceProfile profile;
        us["glinda.profile_us"].push_back(
            1e6 * timed(tracer, "glinda.profile", root, [&] {
              profile = profiler.profile_device(
                  app->executor(), app->single_kernel_factory(0), device,
                  app->items_of(0));
            }));
        (device == 0 ? estimate.cpu : estimate.gpu) = profile;
      }
      if (devices == 2) {
        estimate.link_bytes_per_second = platform.link.bandwidth_gbs * 1e9;
        const glinda::PartitionModel model;
        us["glinda.solve_us"].push_back(
            1e6 / kSolveRepeats *
            timed(tracer, "glinda.solve", root, [&] {
              for (int i = 0; i < kSolveRepeats; ++i)
                (void)model.solve(estimate, app->items_of(0));
            }));
      }

      // Runtime: the app's full program, chunked and unpinned, under the
      // FIFO scheduler.
      const int chunks = item.task_count;
      const rt::Program program = app->build_program(
          [&app, chunks](rt::Program& p, std::size_t k, rt::KernelId id) {
            p.submit_chunked(id, 0, app->items_of(k), chunks);
          },
          item.sync);
      rt::FifoScheduler fifo;
      rt::ExecutionReport report;
      const double execute_s = timed(tracer, "runtime.execute", root, [&] {
        report = app->executor().execute(program, fifo);
      });
      us["runtime.execute_us"].push_back(1e6 * execute_s);
      if (report.sim_events > 0)
        us["runtime.us_per_event"].push_back(
            1e6 * execute_s / static_cast<double>(report.sim_events));

      // Strategies: one full strategy run (profiling + measured execution);
      // strategies that do not apply to the app are skipped.
      strategies::StrategyOptions strategy_options;
      strategy_options.sync_between_kernels = item.sync;
      strategy_options.task_count = item.task_count;
      strategies::StrategyRunner runner(*app, strategy_options);
      const analyzer::StrategyKind kind =
          analyzer::strategy_from_name(item.strategy);
      const Clock::time_point run_start = Clock::now();
      try {
        (void)runner.run(kind);
        const Clock::time_point run_end = Clock::now();
        tracer.record("strategies.run", run_start, run_end, root);
        us["strategies.run_us"].push_back(
            1e6 * seconds_between(run_start, run_end));
      } catch (const InvalidArgument&) {
      }

      // Serve: each op's offline answer, and the wire codec round trip.
      for (const std::string& op : serve::served_ops()) {
        const serve::QueryRequest request = request_for(item, op);
        std::string output;
        us["serve.answer_us." + op].push_back(
            1e6 * timed(tracer, "serve.answer." + op, root,
                        [&] { output = serve::answer(request); }));
        serve::QueryResponse response;
        response.output = output;
        us["serve.codec_us"].push_back(
            1e6 * timed(tracer, "serve.codec", root, [&] {
              const serve::QueryRequest decoded =
                  serve::QueryRequest::from_json(
                      json::Value::parse(request.to_json().dump()));
              const serve::QueryResponse echoed =
                  serve::QueryResponse::from_json(
                      json::Value::parse(response.to_json().dump()));
              HS_REQUIRE(decoded.cache_key() == request.cache_key() &&
                             echoed.output == output,
                         "codec round trip changed the frame");
            }));
      }
    } catch (const std::exception& error) {
      ++errors;
      if (first_error.empty()) first_error = item.app + "@" + item.platform +
                                             ": " + error.what();
    }
    tracer.close(root);
  }
  fs::remove_all(cache_dir);
  result.check("layer probe calls succeed", errors == 0,
               errors == 0 ? std::to_string(sample.size()) + " samples"
                           : first_error);
  result.set_param("probe_samples",
                   json::Value(static_cast<std::int64_t>(sample.size())));

  const auto layer_of = [](const std::string& name) {
    return name.substr(0, name.find('.'));
  };
  for (auto& [name, values] : us) {
    if (name == "strategies.run_us") {
      result.metric("strategies.run_us.p50", quantile(values, 0.50), "us",
                    Better::kLower, "strategies");
      result.metric("strategies.run_us.p99", quantile(values, 0.99), "us",
                    Better::kLower, "strategies");
      continue;
    }
    result.metric(name, median(values), "us", Better::kLower, layer_of(name));
  }

  const std::int64_t events = options.quick ? 1 << 14 : 1 << 19;
  result.metric("sim.ns_per_event.d64",
                engine_ns_per_event(64, events, options.seed), "ns",
                Better::kLower, "sim");
  result.metric("sim.ns_per_event.d4096",
                engine_ns_per_event(4096, events, options.seed), "ns",
                Better::kLower, "sim");
  for (apps::PaperApp app : apps::all_paper_apps())
    result.metric(std::string("apps.kernel_ns_per_item.") +
                      apps::paper_app_id(app),
                  kernel_ns_per_item(app), "ns", Better::kLower, "apps");
}

void finish_trace(const Options& options, const Tracer& tracer,
                  Result& result) {
  namespace fs = std::filesystem;
  const std::vector<std::string> problems = tracer.validate();
  result.check("trace well formed", problems.empty(),
               problems.empty() ? std::to_string(tracer.size()) + " spans"
                                : problems.front());
  const fs::path directory = options.out.empty()
                                 ? fs::path(options.work_dir)
                                 : fs::path(options.out).parent_path();
  const fs::path file =
      (directory.empty() ? fs::path(".") : directory) /
      ("trace-" + options.workload + ".json");
  std::ofstream stream(file);
  stream << tracer.to_chrome_json() << "\n";
  result.check("trace written", static_cast<bool>(stream), file.string());
  result.set_param("trace_file", json::Value(file.string()));
  // Where the traced time went, span by span.
  json::Value self;
  for (const auto& [name, values] : tracer.self_us_by_name()) {
    double total_us = 0.0;
    for (double value : values) total_us += value;
    json::Value entry;
    entry.set("spans", json::Value(static_cast<std::int64_t>(values.size())));
    entry.set("self_ms", json::Value(total_us / 1e3));
    self.set(name, std::move(entry));
  }
  result.set_param("span_self", std::move(self));
}

}  // namespace hetsched::perf
