#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "hsbench.hpp"

namespace hetsched::perf {

namespace {

json::Value load(const std::string& path) {
  std::ifstream stream(path);
  if (!stream) throw std::invalid_argument("cannot read " + path);
  std::stringstream text;
  text << stream.rdbuf();
  return json::Value::parse(text.str());
}

struct Bound {
  double share = 0.0;
  bool higher_is_better = false;
};

/// End-to-end bounds by metric name, from BENCHMARK.json.
std::map<std::string, Bound> load_bounds(const std::string& path) {
  std::map<std::string, Bound> bounds;
  const json::Value benchmark = load(path);
  for (const json::Value& metric : benchmark.at("end_to_end").as_array()) {
    bounds[metric.at("name").as_string()] =
        Bound{metric.at("bound").as_number(),
              metric.at("better").as_string() == "higher"};
  }
  return bounds;
}

std::vector<double> values_of(const std::vector<const json::Value*>& runs,
                              const std::string& metric) {
  std::vector<double> values;
  for (const json::Value* run : runs) {
    if (const json::Value* entry = run->at("metrics").find(metric))
      values.push_back(entry->at("value").as_number());
  }
  return values;
}

double spread(const Quartiles& q) {
  return q.median != 0.0 ? (q.q3 - q.q1) / std::fabs(q.median) : 0.0;
}

/// Verdict per the benchmark's rules: unresolved when either side's
/// quartile spread exceeds the bound (unless every head run beats every
/// base run); worse when the head median is worse by more than the bound;
/// better when head wins at least nine tenths of all base x head pairs and
/// the medians differ by more than the base's own quartile spread.
std::string verdict(const std::vector<double>& base,
                    const std::vector<double>& head, const Bound& bound) {
  const Quartiles b = quartiles(base);
  const Quartiles h = quartiles(head);
  const auto beats = [&bound](double x, double y) {
    return bound.higher_is_better ? x > y : x < y;
  };
  std::size_t wins = 0;
  std::size_t pairs = 0;
  for (double x : head)
    for (double y : base) {
      ++pairs;
      if (beats(x, y)) ++wins;
    }
  const bool all_beat = pairs > 0 && wins == pairs;
  const bool gain =
      pairs > 0 &&
      static_cast<double>(wins) >= 0.9 * static_cast<double>(pairs) &&
      std::fabs(h.median - b.median) > b.q3 - b.q1;
  if (std::max(spread(b), spread(h)) > bound.share)
    return all_beat ? "better" : "unresolved";
  const double worse_by =
      b.median == 0.0
          ? 0.0
          : (bound.higher_is_better ? b.median - h.median
                                    : h.median - b.median) /
                std::fabs(b.median);
  if (worse_by > bound.share) return "worse";
  return gain ? "better" : "no worse";
}

std::string quartile_text(const std::vector<double>& values) {
  const Quartiles q = quartiles(values);
  char text[96];
  std::snprintf(text, sizeof(text), "%.5g [%.5g, %.5g]", q.median, q.q1,
                q.q3);
  return text;
}

}  // namespace

int run_compare(const std::vector<std::string>& args) {
  std::vector<std::string> base_files, head_files;
  std::string bounds_file = "BENCHMARK.json";
  std::vector<std::string>* side = nullptr;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--base") {
      side = &base_files;
    } else if (args[i] == "--head") {
      side = &head_files;
    } else if (args[i] == "--bounds" && i + 1 < args.size()) {
      bounds_file = args[++i];
      side = nullptr;
    } else if (side != nullptr) {
      side->push_back(args[i]);
    } else {
      throw std::invalid_argument("unexpected argument '" + args[i] + "'");
    }
  }
  if (base_files.empty() || head_files.empty())
    throw std::invalid_argument("compare needs --base and --head results");
  const std::map<std::string, Bound> bounds = load_bounds(bounds_file);

  std::vector<json::Value> documents;
  for (const std::string& file : base_files) documents.push_back(load(file));
  for (const std::string& file : head_files) documents.push_back(load(file));
  // workload -> runs per side
  std::map<std::string, std::pair<std::vector<const json::Value*>,
                                  std::vector<const json::Value*>>>
      by_workload;
  for (std::size_t i = 0; i < documents.size(); ++i) {
    auto& sides = by_workload[documents[i].at("workload").as_string()];
    (i < base_files.size() ? sides.first : sides.second)
        .push_back(&documents[i]);
  }

  bool worse = false;
  std::size_t flags = 0;
  std::printf("%-14s %-22s %-34s %-34s %-8s %s\n", "workload", "metric",
              "base median [q1, q3]", "head median [q1, q3]", "bound",
              "verdict");
  for (const auto& [workload, sides] : by_workload) {
    const auto& [base, head] = sides;
    if (base.empty() || head.empty()) {
      std::printf("%-14s only on one side; not compared\n", workload.c_str());
      continue;
    }
    std::set<std::string> names;
    for (const json::Value* run : head)
      for (const auto& [name, entry] : run->at("metrics").as_object())
        if (entry.at("layer").as_string() == "e2e") names.insert(name);
    for (const std::string& name : names) {
      const std::vector<double> b = values_of(base, name);
      const std::vector<double> h = values_of(head, name);
      if (b.empty() || h.empty()) continue;
      std::string text = "info";
      std::string bound_text = "-";
      if (name == "failed_ratio") {
        const bool higher = *std::max_element(h.begin(), h.end()) >
                            *std::max_element(b.begin(), b.end());
        text = higher ? "worse" : "no worse";
        bound_text = "0 abs";
      } else if (const auto it = bounds.find(name); it != bounds.end()) {
        text = verdict(b, h, it->second);
        char share[16];
        std::snprintf(share, sizeof(share), "%.2f", it->second.share);
        bound_text = share;
      }
      worse = worse || text == "worse";
      std::printf("%-14s %-22s %-34s %-34s %-8s %s\n", workload.c_str(),
                  name.c_str(), quartile_text(b).c_str(),
                  quartile_text(h).c_str(), bound_text.c_str(), text.c_str());
    }

    // Deterministic counts and the outputs digest must not move at a seed.
    std::map<std::int64_t, std::vector<const json::Value*>> by_seed;
    for (const auto* runs : {&base, &head})
      for (const json::Value* run : *runs)
        by_seed[run->at("seed").as_int64()].push_back(run);
    for (const auto& [seed, runs] : by_seed) {
      const json::Value& first = *runs.front();
      for (const json::Value* run : runs) {
        if (run->at("outputs_digest").as_string() !=
            first.at("outputs_digest").as_string()) {
          ++flags;
          std::printf("FLAG %s seed %lld: outputs_digest %s != %s\n",
                      workload.c_str(), static_cast<long long>(seed),
                      run->at("outputs_digest").as_string().c_str(),
                      first.at("outputs_digest").as_string().c_str());
        }
        for (const auto& [name, entry] : first.at("metrics").as_object()) {
          if (entry.at("better").as_string() != "exact") continue;
          const json::Value* other = run->at("metrics").find(name);
          if (other != nullptr &&
              other->at("value").as_number() != entry.at("value").as_number()) {
            ++flags;
            std::printf("FLAG %s seed %lld: count %s changed\n",
                        workload.c_str(), static_cast<long long>(seed),
                        name.c_str());
          }
        }
        if (!run->at("correct").as_bool()) {
          worse = true;
          std::printf("FAIL %s seed %lld: a run was not correct\n",
                      workload.c_str(), static_cast<long long>(seed));
        }
      }
    }
  }
  std::printf("compare: %s, %zu deterministic-count/digest flag(s)\n",
              worse ? "WORSE" : "no metric worse", flags);
  return worse ? 1 : 0;
}

}  // namespace hetsched::perf
