#include <sys/utsname.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "hsbench.hpp"

/// Build facts baked in by CMakeLists.txt.
#ifndef HSBENCH_BUILD_TYPE
#define HSBENCH_BUILD_TYPE "unknown"
#endif
#ifndef HSBENCH_CXX_FLAGS
#define HSBENCH_CXX_FLAGS ""
#endif
#ifndef HSBENCH_SANITIZE
#define HSBENCH_SANITIZE ""
#endif
#ifndef HSBENCH_SOURCE_ROOT
#define HSBENCH_SOURCE_ROOT "."
#endif

namespace hetsched::perf {

namespace {

constexpr const char* kUsage =
    "usage: hsbench --workload <name> [--seed N] [--seconds S] [--trace]\n"
    "               [--quick] [--out FILE] [--work-dir DIR]\n"
    "       hsbench compare --base <results...> --head <results...>\n"
    "               [--bounds BENCHMARK.json]\n"
    "workloads: sweep-explore, sweep-rerun, faults-storm, serve-zipf\n";

const std::map<std::string, void (*)(const Options&, Result&)> kWorkloads = {
    {"sweep-explore", run_sweep_explore},
    {"sweep-rerun", run_sweep_rerun},
    {"faults-storm", run_faults_storm},
    {"serve-zipf", run_serve_zipf},
};

/// Counts every result carries, so runs of different workloads share one
/// metric set; 0 means the workload does no such work.
const std::vector<std::pair<const char*, const char*>> kSharedCounts = {
    {"sim.events", "sim"},
    {"glinda.solve_calls", "glinda"},
    {"sweep.cache_hits", "sweep"},
    {"sweep.cache_misses", "sweep"},
    {"faults.twin_computes", "faults"},
    {"faults.twin_memo_hits", "faults"},
    {"faults.migrated_tasks", "faults"},
    {"faults.faults_injected", "faults"},
    {"serve.computes", "serve"},
};

std::string sanitizers() {
  std::string found = HSBENCH_SANITIZE;
#if defined(__SANITIZE_ADDRESS__)
  if (found.empty()) found = "address";
#endif
#if defined(__SANITIZE_THREAD__)
  if (found.empty()) found = "thread";
#endif
  return found;
}

bool optimized() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

bool ndebug() {
#if defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

/// `git describe --always --dirty` of the source tree, reading only that
/// tree's own .git; "none" outside a git checkout.
std::string git_describe() {
  const std::filesystem::path root = HSBENCH_SOURCE_ROOT;
  if (!std::filesystem::exists(root / ".git")) return "none";
  const std::string command = "git --git-dir='" + (root / ".git").string() +
                              "' --work-tree='" + root.string() +
                              "' describe --always --dirty 2>/dev/null";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return "none";
  char buffer[128] = {};
  std::string text;
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) text += buffer;
  ::pclose(pipe);
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r'))
    text.pop_back();
  return text.empty() ? "none" : text;
}

json::Value provenance() {
  json::Value value;
  value.set("build_type", json::Value(HSBENCH_BUILD_TYPE));
#if defined(__clang__)
  value.set("compiler", json::Value(std::string("clang ") + __VERSION__));
#elif defined(__GNUC__)
  value.set("compiler", json::Value(std::string("gcc ") + __VERSION__));
#else
  value.set("compiler", json::Value("unknown"));
#endif
  value.set("cxx_flags", json::Value(HSBENCH_CXX_FLAGS));
  value.set("optimized", json::Value(optimized()));
  value.set("ndebug", json::Value(ndebug()));
  value.set("sanitizers", json::Value(sanitizers()));
  value.set("nproc", json::Value(static_cast<std::int64_t>(
                         std::thread::hardware_concurrency())));
  utsname host{};
  if (::uname(&host) == 0) {
    value.set("os", json::Value(std::string(host.sysname) + " " +
                                host.release));
    value.set("machine", json::Value(host.machine));
  }
  value.set("git_describe", json::Value(git_describe()));
  return value;
}

/// Why this build must not be timed, or empty when it may.
std::string timing_refusal() {
  if (!optimized()) return "an unoptimized build";
  if (std::string(HSBENCH_BUILD_TYPE) == "Debug") return "a Debug build";
  if (!sanitizers().empty()) return "a sanitizer build (" + sanitizers() + ")";
  return "";
}

json::Value result_json(const Options& options, const Result& result) {
  json::Value metrics;
  for (const std::string& name : result.order()) {
    const Metric& metric = result.metrics().at(name);
    json::Value entry;
    entry.set("value", json::Value(metric.value));
    entry.set("unit", json::Value(metric.unit));
    entry.set("better", json::Value(better_name(metric.better)));
    entry.set("layer", json::Value(metric.layer));
    metrics.set(name, std::move(entry));
  }
  json::Value document;
  document.set("schema", json::Value("hsbench-1"));
  document.set("workload", json::Value(options.workload));
  document.set("seed", json::Value(static_cast<std::int64_t>(options.seed)));
  document.set("seconds", json::Value(options.seconds));
  document.set("traced", json::Value(options.trace));
  document.set("quick", json::Value(options.quick));
  document.set("correct", json::Value(result.correct()));
  document.set("attempted", json::Value(result.attempted()));
  document.set("failed", json::Value(result.failed()));
  document.set("outputs_digest", json::Value(hex64(result.digest())));
  document.set("metrics", std::move(metrics));
  document.set("checks", result.checks_json());
  document.set("params", json::Value(result.params()));
  document.set("provenance", provenance());
  return document;
}

void print(const Options& options, const Result& result) {
  std::printf("hsbench %s seed=%llu%s%s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? " traced" : "", options.quick ? " quick" : "");
  for (const std::string& name : result.order()) {
    const Metric& metric = result.metrics().at(name);
    std::printf("  %-34s %16.6g %-6s %s\n", name.c_str(), metric.value,
                metric.unit.c_str(), metric.layer.c_str());
  }
  const json::Value checks = result.checks_json();
  for (const json::Value& check : checks.as_array()) {
    if (!check.at("ok").as_bool())
      std::printf("  FAILED CHECK %s: %s\n",
                  check.at("name").as_string().c_str(),
                  check.at("detail").as_string().c_str());
  }
  std::printf("  correct=%s attempted=%lld failed=%lld outputs_digest=%s\n",
              result.correct() ? "true" : "false",
              static_cast<long long>(result.attempted()),
              static_cast<long long>(result.failed()),
              hex64(result.digest()).c_str());
}

int run(int argc, char** argv, Clock::time_point process_start) {
  Options options;
  options.process_start = process_start;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--out") {
      options.out = value();
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  const auto workload = kWorkloads.find(options.workload);
  if (workload == kWorkloads.end() || !(options.seconds > 0.0))
    throw std::invalid_argument("need a known --workload and --seconds > 0");
  if (options.quick) options.setups = 1;
  if (options.work_dir.empty())
    options.work_dir = ".hsbench-work-" + options.workload;
  std::filesystem::create_directories(options.work_dir);

  const std::string refusal = timing_refusal();
  if (!refusal.empty() && !options.quick) {
    std::fprintf(stderr,
                 "hsbench: refusing to time %s; rebuild with "
                 "-DCMAKE_BUILD_TYPE=Release (or pass --quick)\n",
                 refusal.c_str());
    return 3;
  }

  Result result;
  workload->second(options, result);

  for (const auto& [name, layer] : kSharedCounts)
    if (result.metrics().find(name) == result.metrics().end())
      result.count(name, 0.0, layer);
  result.metric("peak_rss_mb", peak_rss_mb(), "MB", Better::kLower, "e2e");
  result.metric("failed_ratio",
                result.attempted() > 0
                    ? static_cast<double>(result.failed()) /
                          static_cast<double>(result.attempted())
                    : 1.0,
                "ratio", Better::kLower, "e2e");
  result.set_param("setups", json::Value(options.setups));
  result.set_param("jobs", json::Value(static_cast<std::int64_t>(kJobs)));

  if (!options.out.empty()) {
    const std::filesystem::path out = options.out;
    if (out.has_parent_path())
      std::filesystem::create_directories(out.parent_path());
    std::ofstream stream(out);
    stream << result_json(options, result).dump() << "\n";
    if (!stream) throw std::runtime_error("cannot write " + options.out);
  }
  print(options, result);
  return result.correct() ? 0 : 1;
}

}  // namespace

}  // namespace hetsched::perf

int main(int argc, char** argv) {
  const auto process_start = hetsched::perf::Clock::now();
  try {
    if (argc >= 2 && std::string(argv[1]) == "compare")
      return hetsched::perf::run_compare(
          std::vector<std::string>(argv + 2, argv + argc));
    return hetsched::perf::run(argc, argv, process_start);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "hsbench: %s\n%s", error.what(),
                 hetsched::perf::kUsage);
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "hsbench: %s\n", error.what());
    return 1;
  }
}
