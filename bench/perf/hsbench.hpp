#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "obs/phase_profiler.hpp"

/// hsbench: the end-to-end and per-layer performance benchmark.
///
/// The harness drives the program from outside, through its public calls
/// only, and times it with its own clock. Each invocation runs one workload
/// (sweeps.cpp, serve_zipf.cpp), checks every output against a
/// reference, and writes one result document; `hsbench compare` gates a set
/// of head results against a set of base results.
namespace hetsched::perf {

using Clock = std::chrono::steady_clock;

/// Sweep worker threads and helper threads: one per core of the 4-core host
/// the bounds were set on. On that shared host the cores slow down one at
/// a time, second by second; a sweep spread over all of them repeats far
/// better than a serial one, which runs at the speed of whichever core its
/// thread is on.
inline constexpr unsigned kJobs = 4;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of one timed phase; every workload sizes its passes or rate
  /// steps to fill it.
  double seconds = 10.0;
  /// Repeat the timed phase with spans on and run the per-layer probes.
  bool trace = false;
  /// Tiny inputs for the smoke test: exempt from the build guard, not a
  /// measurement.
  bool quick = false;
  std::string out;
  /// Scratch space for cache directories and the trace file.
  std::string work_dir;
  /// How many times set-up runs; setup_s is the median.
  int setups = 3;
  /// Filled in by main from the build: process start instant.
  Clock::time_point process_start;
};

enum class Better { kLower, kHigher, kExact };

const char* better_name(Better better);

struct Metric {
  double value = 0.0;
  std::string unit;
  Better better = Better::kExact;
  /// "e2e" or the src/ module the number describes.
  std::string layer;
};

/// One run's outcome: metrics, operation counts, correctness checks and the
/// outputs digest. Serialized by main.cpp.
class Result {
 public:
  void metric(const std::string& name, double value, std::string unit,
              Better better, std::string layer);
  /// A deterministic count (compared exactly by `compare`).
  void count(const std::string& name, double value, std::string layer) {
    metric(name, value, "count", Better::kExact, std::move(layer));
  }
  /// Records a named check; a failed check makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail);
  void add_ops(std::int64_t attempted, std::int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void set_digest(std::uint64_t digest) { digest_ = digest; }
  void set_param(const std::string& key, json::Value value) {
    params_.set(key, std::move(value));
  }

  bool correct() const;
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  std::uint64_t digest() const { return digest_; }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& order() const { return order_; }
  const json::Value& params() const { return params_; }
  json::Value checks_json() const;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> order_;
  struct Check {
    std::string name;
    bool ok = true;
    std::string detail;
  };
  std::vector<Check> checks_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::uint64_t digest_ = 0;
  json::Value params_;
};

/// Spans recorded by the benchmark around its calls into the program. Kept
/// in memory and written once as Chrome trace events. A disabled tracer
/// records nothing and returns id 0.
class Tracer {
 public:
  using Id = std::uint64_t;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span now. A span with parent 0 is the root of a new group (one
  /// pass, probe sample or request); children inherit their parent's group.
  Id open(std::string_view name, Id parent = 0, int lane = 0);
  void close(Id id);
  /// Records a finished span measured elsewhere.
  Id record(std::string_view name, Clock::time_point start,
            Clock::time_point end, Id parent = 0, int lane = 0);

  /// Problems with the span forest: a group without exactly one root, or a
  /// child not contained in its parent. Empty when well formed.
  std::vector<std::string> validate() const;
  /// Self time (duration minus the part covered by children), in
  /// microseconds, of every closed span, grouped by span name.
  std::map<std::string, std::vector<double>> self_us_by_name() const;
  std::size_t size() const;
  /// Chrome trace events (`ph: X`), one per closed span.
  std::string to_chrome_json() const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    bool closed = false;
    Id parent = 0;
    std::int64_t group = 0;
    int lane = 0;
  };

  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::int64_t next_group_ = 0;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span; a no-op on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& tracer, std::string_view name, Tracer::Id parent = 0)
      : tracer_(tracer), id_(tracer.open(name, parent)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  Tracer::Id id() const { return id_; }

 private:
  Tracer& tracer_;
  Tracer::Id id_;
};

/// Difference of two phase-profiler snapshots (stage -> stats).
std::map<std::string, obs::PhaseStats> phase_delta(
    const std::map<std::string, obs::PhaseStats>& before,
    const std::map<std::string, obs::PhaseStats>& after);

// ---- statistics -----------------------------------------------------------

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1] (0 for an empty sample).
double quantile(std::vector<double> values, double q);
/// Quartiles by the method of Python's statistics.quantiles(n=4) (the
/// "exclusive" method), so spreads match what other tools report.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

/// FNV-1a over a sequence of 64-bit item hashes: the outputs digest.
std::uint64_t fold_digest(const std::vector<std::uint64_t>& hashes);
std::string hex64(std::uint64_t value);
json::Value number_array(const std::vector<double>& values);

/// Peak resident set of this process in MB (getrusage max RSS).
double peak_rss_mb();

/// CPU time this process has used since it started (user + system, every
/// thread, ended ones included), in seconds. Time during which the host
/// ran something else on the virtual CPU (steal) is not in it.
double process_cpu_s();

/// Records `setup_s`, the median of the set-ups' process CPU times, and
/// `setup_wall_s`, the median of their walls. CPU time is the gated one:
/// on a shared host the wall also holds whatever the host takes away.
void record_setups(const std::vector<double>& setup_walls_s,
                   const std::vector<double>& setup_cpu_s, Result& result);

/// Writes back everything pending on the filesystem holding `directory`
/// (syncfs), so that a timed phase does not pay for the writes, deletes and
/// discards of the untimed work before it.
void flush_writes(const std::string& directory);

// ---- inputs ---------------------------------------------------------------

/// 0 .. count-1 in an order drawn from `rng` (Fisher-Yates).
std::vector<std::size_t> shuffled_indices(std::size_t count, Rng& rng);

/// Name of a synthetic platform ("synth-<seed>") with `accelerators`
/// accelerators whose seed is drawn from `rng` and not in `used` (it is
/// added). Workloads ask for fixed counts per accelerator number, so the
/// simulated work of a matrix barely depends on the seed.
std::string fresh_synth_platform(Rng& rng, std::size_t accelerators,
                                 std::set<std::uint64_t>& used);

// ---- workloads ------------------------------------------------------------

void run_sweep_explore(const Options& options, Result& result);
void run_sweep_rerun(const Options& options, Result& result);
void run_faults_storm(const Options& options, Result& result);
void run_serve_zipf(const Options& options, Result& result);

/// One unit of the per-layer probe: a scenario the workload runs, named the
/// way every layer's public call needs it.
struct ProbeItem {
  std::string app;  ///< served app name (paper app id for paper apps)
  bool paper_app = true;
  std::string platform;
  std::string strategy;  ///< analyzer strategy name
  bool sync = false;
  bool small = false;
  int task_count = 12;
};

/// Runs a seeded sample of `items` through each layer's public call one
/// layer at a time (spans on `tracer`), plus the synthetic event-core and
/// kernel-body probes, and records the per-layer timing metrics.
void run_layer_probes(const Options& options,
                      const std::vector<ProbeItem>& items, Tracer& tracer,
                      Result& result);

/// Records span-derived metrics common to every traced run (trace
/// validity, trace file).
void finish_trace(const Options& options, const Tracer& tracer,
                  Result& result);

// ---- compare gate ---------------------------------------------------------

/// `hsbench compare --base <files...> --head <files...> [--bounds <file>]`.
int run_compare(const std::vector<std::string>& args);

}  // namespace hetsched::perf
