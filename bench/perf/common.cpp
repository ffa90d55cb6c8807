#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "hsbench.hpp"
#include "hw/platform.hpp"

namespace hetsched::perf {

const char* better_name(Better better) {
  switch (better) {
    case Better::kLower: return "lower";
    case Better::kHigher: return "higher";
    case Better::kExact: return "exact";
  }
  return "exact";
}

void Result::metric(const std::string& name, double value, std::string unit,
                    Better better, std::string layer) {
  if (metrics_.find(name) == metrics_.end()) order_.push_back(name);
  metrics_[name] = Metric{value, std::move(unit), better, std::move(layer)};
}

void Result::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back(Check{name, ok, detail});
}

bool Result::correct() const {
  if (failed_ != 0 || attempted_ <= 0) return false;
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& check) { return check.ok; });
}

json::Value Result::checks_json() const {
  json::Value checks{json::Value::Array{}};
  for (const Check& check : checks_) {
    json::Value entry;
    entry.set("name", json::Value(check.name));
    entry.set("ok", json::Value(check.ok));
    entry.set("detail", json::Value(check.detail));
    checks.push_back(std::move(entry));
  }
  return checks;
}

// ---- Tracer ---------------------------------------------------------------

Tracer::Id Tracer::open(std::string_view name, Id parent, int lane) {
  if (!enabled_) return 0;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = std::string(name);
  span.start = now;
  span.parent = parent;
  span.lane = lane;
  span.group = parent == 0 ? ++next_group_ : spans_[parent - 1].group;
  spans_.push_back(std::move(span));
  return spans_.size();
}

void Tracer::close(Id id) {
  if (!enabled_ || id == 0) return;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end = now;
  spans_[id - 1].closed = true;
}

Tracer::Id Tracer::record(std::string_view name, Clock::time_point start,
                          Clock::time_point end, Id parent, int lane) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = std::string(name);
  span.start = start;
  span.end = end;
  span.closed = true;
  span.parent = parent;
  span.lane = lane;
  span.group = parent == 0 ? ++next_group_ : spans_[parent - 1].group;
  spans_.push_back(std::move(span));
  return spans_.size();
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<std::string> Tracer::validate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> problems;
  std::map<std::int64_t, int> roots;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent == 0) ++roots[span.group];
    if (!span.closed) {
      problems.push_back("span " + std::to_string(i + 1) + " (" + span.name +
                         ") never closed");
      continue;
    }
    if (span.end < span.start)
      problems.push_back("span " + std::to_string(i + 1) + " ends first");
    if (span.parent == 0) continue;
    const Span& parent = spans_[span.parent - 1];
    if (span.start < parent.start || (parent.closed && span.end > parent.end))
      problems.push_back("span " + std::to_string(i + 1) + " (" + span.name +
                         ") escapes its parent " + parent.name);
  }
  for (const auto& [group, count] : roots) {
    if (count != 1)
      problems.push_back("group " + std::to_string(group) + " has " +
                         std::to_string(count) + " roots");
  }
  return problems;
}

namespace {

double micros(Clock::duration duration) {
  return std::chrono::duration<double, std::micro>(duration).count();
}

}  // namespace

std::map<std::string, std::vector<double>> Tracer::self_us_by_name() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0) children[spans_[i].parent - 1].push_back(i);
  }
  std::map<std::string, std::vector<double>> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (!span.closed) continue;
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
    for (std::size_t child : children[i]) {
      if (!spans_[child].closed) continue;
      covered.emplace_back(std::max(spans_[child].start, span.start),
                           std::min(spans_[child].end, span.end));
    }
    std::sort(covered.begin(), covered.end());
    Clock::duration covered_total{0};
    Clock::time_point reach = span.start;
    for (const auto& [from, to] : covered) {
      const Clock::time_point begin = std::max(from, reach);
      if (to > begin) {
        covered_total += to - begin;
        reach = to;
      }
    }
    self[span.name].push_back(micros(span.end - span.start - covered_total));
  }
  return self;
}

std::string Tracer::to_chrome_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  json::Value events{json::Value::Array{}};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (!span.closed) continue;
    json::Value args;
    args.set("id", json::Value(static_cast<std::int64_t>(i + 1)));
    args.set("parent", json::Value(static_cast<std::int64_t>(span.parent)));
    args.set("group", json::Value(span.group));
    json::Value event;
    event.set("name", json::Value(span.name));
    event.set("ph", json::Value("X"));
    event.set("ts", json::Value(micros(span.start - epoch_)));
    event.set("dur", json::Value(micros(span.end - span.start)));
    event.set("pid", json::Value(1));
    event.set("tid", json::Value(span.lane));
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }
  json::Value document;
  document.set("traceEvents", std::move(events));
  document.set("displayTimeUnit", json::Value("ms"));
  return document.dump();
}

std::map<std::string, obs::PhaseStats> phase_delta(
    const std::map<std::string, obs::PhaseStats>& before,
    const std::map<std::string, obs::PhaseStats>& after) {
  std::map<std::string, obs::PhaseStats> delta;
  for (const auto& [stage, stats] : after) {
    obs::PhaseStats diff = stats;
    const auto it = before.find(stage);
    if (it != before.end()) {
      diff.calls -= it->second.calls;
      diff.total_ms -= it->second.total_ms;
      diff.self_ms -= it->second.self_ms;
    }
    delta[stage] = diff;
  }
  return delta;
}

// ---- statistics -----------------------------------------------------------

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * fraction;
}

Quartiles quartiles(std::vector<double> values) {
  Quartiles result;
  if (values.empty()) return result;
  std::sort(values.begin(), values.end());
  result.median = quantile(values, 0.5);
  const long count = static_cast<long>(values.size());
  if (count == 1) {
    result.q1 = result.q3 = values[0];
    return result;
  }
  const auto cut = [&values, count](long i) {
    constexpr long kParts = 4;
    const long m = count + 1;
    const long j = std::clamp(i * m / kParts, 1L, count - 1);
    const long delta = i * m - j * kParts;
    return (values[j - 1] * static_cast<double>(kParts - delta) +
            values[j] * static_cast<double>(delta)) /
           static_cast<double>(kParts);
  };
  result.q1 = cut(1);
  result.q3 = cut(3);
  return result;
}

std::uint64_t fold_digest(const std::vector<std::uint64_t>& hashes) {
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (std::uint64_t hash : hashes) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (hash >> (8 * byte)) & 0xFFu;
      digest *= 0x100000001b3ull;
    }
  }
  return digest;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_s() {
  timespec now{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

json::Value number_array(const std::vector<double>& values) {
  json::Value array{json::Value::Array{}};
  for (double value : values) array.push_back(json::Value(value));
  return array;
}

void record_setups(const std::vector<double>& setup_walls_s,
                   const std::vector<double>& setup_cpu_s, Result& result) {
  result.metric("setup_s", median(setup_cpu_s), "s", Better::kLower, "e2e");
  result.metric("setup_wall_s", median(setup_walls_s), "s", Better::kLower,
                "e2e");
  result.set_param("setup_walls_s", number_array(setup_walls_s));
  result.set_param("setup_cpu_s", number_array(setup_cpu_s));
}

void flush_writes(const std::string& directory) {
  const int fd = ::open(directory.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

std::vector<std::size_t> shuffled_indices(std::size_t count, Rng& rng) {
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) order[i] = i;
  for (std::size_t i = count; i > 1; --i)
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(i - 1)))]);
  return order;
}

std::string fresh_synth_platform(Rng& rng, std::size_t accelerators,
                                 std::set<std::uint64_t>& used) {
  for (;;) {
    const auto seed =
        static_cast<std::uint64_t>(rng.uniform_int(1, 2'000'000'000));
    if (used.count(seed) != 0 ||
        hw::make_synthetic_platform(seed).accelerators.size() != accelerators)
      continue;
    used.insert(seed);
    return "synth-" + std::to_string(seed);
  }
}

}  // namespace hetsched::perf
