#include "sweep/scenario.hpp"

#include <cctype>
#include <sstream>

#include "hw/platform.hpp"

namespace hetsched::sweep {

namespace {

std::string strategy_id(analyzer::StrategyKind kind) {
  std::string id = analyzer::strategy_name(kind);
  for (char& ch : id)
    ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  return id;
}

void append_device(std::ostringstream& os, const hw::DeviceSpec& device) {
  os << "device{name=" << device.name
     << ",class=" << hw::device_class_name(device.cls)
     << ",cores=" << device.cores << ",lanes=" << device.lanes
     << ",freq=" << json::format_double(device.frequency_ghz)
     << ",sp=" << json::format_double(device.peak_sp_gflops)
     << ",dp=" << json::format_double(device.peak_dp_gflops)
     << ",bw=" << json::format_double(device.mem_bandwidth_gbs)
     << ",cap=" << json::format_double(device.mem_capacity_gb)
     << ",gran=" << device.partition_granularity
     << ",launch_ns=" << device.launch_overhead << "}";
}

}  // namespace

namespace {

std::string fault_suffix(const Scenario& scenario) {
  if (scenario.fault_plan.empty()) return "";
  std::string out = "+fault:" + scenario.fault_plan;
  if (scenario.fault_seed != 0)
    out += "#" + std::to_string(scenario.fault_seed);
  return out;
}

}  // namespace

std::string Scenario::label() const {
  std::string out = apps::paper_app_id(app);
  out += "/";
  out += strategy_id(strategy);
  if (platform != "reference") out += "@" + platform;
  if (sync) out += "+sync";
  if (small) out += "+small";
  out += fault_suffix(*this);
  return out;
}

std::string Scenario::group() const {
  std::string out = apps::paper_app_id(app);
  out += "@";
  out += platform.empty() ? "reference" : platform;
  if (sync) out += "+sync";
  if (small) out += "+small";
  out += fault_suffix(*this);
  return out;
}

json::Value Scenario::to_json() const {
  json::Value costs_json;
  costs_json.set("task_creation_ns", json::Value(costs.task_creation));
  costs_json.set("dispatch_ns", json::Value(costs.dispatch_overhead));
  costs_json.set("taskwait_ns", json::Value(costs.taskwait_overhead));

  json::Value value;
  value.set("app", json::Value(apps::paper_app_id(app)));
  value.set("strategy", json::Value(analyzer::strategy_name(strategy)));
  value.set("platform", json::Value(platform));
  value.set("sync", json::Value(sync));
  value.set("small", json::Value(small));
  value.set("task_count", json::Value(task_count));
  value.set("costs", std::move(costs_json));
  value.set("fault_plan", json::Value(fault_plan));
  value.set("fault_seed",
            json::Value(static_cast<std::int64_t>(fault_seed)));
  return value;
}

Scenario Scenario::from_json(const json::Value& value) {
  Scenario scenario;
  scenario.app = apps::paper_app_from_name(value.at("app").as_string());
  scenario.strategy =
      analyzer::strategy_from_name(value.at("strategy").as_string());
  scenario.platform = value.at("platform").as_string();
  scenario.sync = value.at("sync").as_bool();
  scenario.small = value.at("small").as_bool();
  scenario.task_count = static_cast<int>(value.at("task_count").as_int64());
  const json::Value& costs = value.at("costs");
  scenario.costs.task_creation = costs.at("task_creation_ns").as_int64();
  scenario.costs.dispatch_overhead = costs.at("dispatch_ns").as_int64();
  scenario.costs.taskwait_overhead = costs.at("taskwait_ns").as_int64();
  // Lenient reads: scenario files written before the fault axes existed.
  if (const json::Value* plan = value.find("fault_plan"))
    scenario.fault_plan = plan->as_string();
  if (const json::Value* seed = value.find("fault_seed"))
    scenario.fault_seed = static_cast<std::uint64_t>(seed->as_int64());
  return scenario;
}

std::string scenario_key(const Scenario& scenario) {
  const apps::Application::Config config = scenario.small
                                               ? apps::test_config(scenario.app)
                                               : apps::paper_config(scenario.app);
  const hw::PlatformSpec platform = hw::platform_by_name(scenario.platform);

  std::ostringstream os;
  os << "hs-sweep-key/" << kSweepCodeVersion << "\n";
  os << "app=" << apps::paper_app_id(scenario.app) << " items=" << config.items
     << " iterations=" << config.iterations
     << " functional=" << (config.functional ? 1 : 0) << "\n";
  os << "strategy=" << strategy_id(scenario.strategy)
     << " sync=" << (scenario.sync ? 1 : 0)
     << " task_count=" << scenario.task_count << "\n";
  os << "costs task_creation_ns=" << scenario.costs.task_creation
     << " dispatch_ns=" << scenario.costs.dispatch_overhead
     << " taskwait_ns=" << scenario.costs.taskwait_overhead << "\n";
  os << "fault_plan=" << scenario.fault_plan
     << " fault_seed=" << scenario.fault_seed << "\n";
  os << "platform=" << platform.name << "\n";
  for (const hw::DeviceSpec& device : platform.all_devices()) {
    append_device(os, device);
    os << "\n";
  }
  os << "link{name=" << platform.link.name
     << ",bw=" << json::format_double(platform.link.bandwidth_gbs)
     << ",latency_ns=" << platform.link.latency << "}\n";
  return os.str();
}

std::string scenario_hash(const Scenario& scenario) {
  const std::uint64_t hash = fnv1a64(scenario_key(scenario));
  std::ostringstream os;
  os << std::hex;
  for (int shift = 60; shift >= 0; shift -= 4)
    os << ((hash >> shift) & 0xF);
  return os.str();
}

std::vector<Scenario> enumerate_matrix(
    const std::vector<apps::PaperApp>& app_list,
    const std::vector<analyzer::StrategyKind>& strategies,
    const std::vector<std::string>& platforms,
    const std::vector<bool>& sync_variants, bool small) {
  std::vector<Scenario> scenarios;
  scenarios.reserve(app_list.size() * strategies.size() * platforms.size() *
                    sync_variants.size());
  for (apps::PaperApp app : app_list) {
    for (analyzer::StrategyKind strategy : strategies) {
      for (const std::string& platform : platforms) {
        for (bool sync : sync_variants) {
          Scenario scenario;
          scenario.app = app;
          scenario.strategy = strategy;
          scenario.platform = platform;
          scenario.sync = sync;
          scenario.small = small;
          scenarios.push_back(std::move(scenario));
        }
      }
    }
  }
  return scenarios;
}

std::vector<Scenario> default_matrix(bool small) {
  return enumerate_matrix(apps::all_paper_apps(), analyzer::paper_strategies(),
                          {"reference"}, {false, true}, small);
}

}  // namespace hetsched::sweep
