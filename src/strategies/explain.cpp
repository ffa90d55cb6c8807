#include "strategies/explain.hpp"

#include <iomanip>
#include <sstream>

#include "common/json.hpp"

namespace hetsched::strategies {

namespace {

/// Device indices a strategy's prediction may draw capacity from.
std::vector<std::size_t> device_set_for(analyzer::StrategyKind kind,
                                        std::size_t device_count) {
  switch (kind) {
    case analyzer::StrategyKind::kOnlyCpu:
      return {0};
    case analyzer::StrategyKind::kOnlyGpu:
      return {1};
    default: {
      std::vector<std::size_t> all(device_count);
      for (std::size_t d = 0; d < device_count; ++d) all[d] = d;
      return all;
    }
  }
}

const char* basis_for(analyzer::StrategyKind kind) {
  switch (kind) {
    case analyzer::StrategyKind::kOnlyCpu: return "cpu only";
    case analyzer::StrategyKind::kOnlyGpu: return "first accelerator only";
    default: return "all devices combined";
  }
}

}  // namespace

DecisionExplanation explain_decision(apps::Application& app,
                                     const StrategyOptions& options) {
  DecisionExplanation out;
  out.app = app.name();
  const hw::PlatformSpec& platform = app.executor().platform();
  out.platform = platform.name;
  out.match = analyzer::Matchmaker{}.match(app.descriptor());

  StrategyRunner runner(app, options);
  const RateTable rates = runner.probe_rates();
  app.reset_data();

  const std::vector<hw::DeviceSpec> devices = platform.all_devices();
  for (const hw::DeviceSpec& device : devices)
    out.device_names.push_back(device.name);
  const std::vector<rt::KernelDef>& kernel_defs = app.executor().kernels();
  for (std::size_t k = 0; k < app.kernels().size(); ++k) {
    const rt::KernelId kernel = app.kernels()[k];
    out.kernel_names.push_back(kernel_defs[kernel].name);
    std::vector<double> caps(devices.size(), 0.0);
    for (std::size_t d = 0; d < devices.size(); ++d) {
      const auto it = rates.find({kernel, static_cast<hw::DeviceId>(d)});
      // A probe is one pinned instance — one lane — so whole-device
      // capacity scales by the lane count.
      if (it != rates.end()) caps[d] = it->second * devices[d].lanes;
    }
    out.capacities.push_back(std::move(caps));
  }

  out.device_suitability.assign(devices.size(), 0.0);
  double total_capacity = 0.0;
  for (const std::vector<double>& caps : out.capacities) {
    for (std::size_t d = 0; d < caps.size(); ++d) {
      out.device_suitability[d] += caps[d];
      total_capacity += caps[d];
    }
  }
  if (total_capacity > 0.0) {
    for (double& share : out.device_suitability) share /= total_capacity;
  }

  const auto predict = [&](analyzer::StrategyKind kind) {
    StrategyPrediction prediction;
    prediction.kind = kind;
    prediction.basis = basis_for(kind);
    const std::vector<std::size_t> set =
        device_set_for(kind, devices.size());
    double seconds = 0.0;
    for (std::size_t k = 0; k < out.capacities.size(); ++k) {
      double capacity = 0.0;
      for (std::size_t d : set) {
        if (d < out.capacities[k].size()) capacity += out.capacities[k][d];
      }
      if (capacity <= 0.0) return prediction;  // predicted_ms stays -1
      seconds += static_cast<double>(app.items_of(k)) / capacity;
    }
    prediction.predicted_ms = seconds * app.iterations() * 1000.0;
    return prediction;
  };

  for (analyzer::StrategyKind kind : out.match.ranking)
    out.predictions.push_back(predict(kind));
  for (analyzer::StrategyKind baseline :
       {analyzer::StrategyKind::kOnlyCpu, analyzer::StrategyKind::kOnlyGpu}) {
    bool present = false;
    for (const StrategyPrediction& prediction : out.predictions)
      present = present || prediction.kind == baseline;
    if (!present) out.predictions.push_back(predict(baseline));
  }
  return out;
}

std::string DecisionExplanation::to_json() const {
  json::Value ranking{json::Value::Array{}};
  for (analyzer::StrategyKind kind : match.ranking)
    ranking.push_back(json::Value(analyzer::strategy_name(kind)));

  json::Value capacity_map{json::Value::Object{}};
  for (std::size_t k = 0; k < kernel_names.size(); ++k) {
    json::Value per_device{json::Value::Object{}};
    for (std::size_t d = 0; d < device_names.size(); ++d)
      per_device.set(device_names[d], json::Value(capacities[k][d]));
    capacity_map.set(kernel_names[k], std::move(per_device));
  }

  json::Value prediction_list{json::Value::Array{}};
  for (const StrategyPrediction& prediction : predictions) {
    json::Value entry;
    entry.set("strategy",
              json::Value(analyzer::strategy_name(prediction.kind)));
    entry.set("predicted_ms", json::Value(prediction.predicted_ms));
    entry.set("basis", json::Value(prediction.basis));
    prediction_list.push_back(std::move(entry));
  }

  json::Value suitability_map{json::Value::Object{}};
  for (std::size_t d = 0; d < device_names.size(); ++d)
    suitability_map.set(device_names[d],
                        json::Value(device_suitability[d]));

  json::Value document;
  document.set("app", json::Value(app));
  document.set("platform", json::Value(platform));
  document.set("device_count",
               json::Value(static_cast<std::int64_t>(device_count())));
  document.set("class", json::Value(analyzer::app_class_name(match.app_class)));
  document.set("inter_kernel_sync", json::Value(match.inter_kernel_sync));
  document.set("device_suitability", std::move(suitability_map));
  document.set("ranking", std::move(ranking));
  document.set("selected", json::Value(analyzer::strategy_name(match.best)));
  document.set("rationale", json::Value(match.rationale));
  document.set("capacities_items_per_s", std::move(capacity_map));
  document.set("predictions", std::move(prediction_list));
  return document.dump();
}

std::string DecisionExplanation::render() const {
  std::ostringstream os;
  os << "application: " << app << " on " << platform << " ("
     << device_count() << " devices)\n";
  os << "  class: " << analyzer::app_class_name(match.app_class)
     << " (inter-kernel sync: " << (match.inter_kernel_sync ? "yes" : "no")
     << ")\n";
  os << "  device suitability (share of probed capacity):";
  for (std::size_t d = 0; d < device_names.size(); ++d) {
    os << " " << device_names[d] << "=" << std::fixed << std::setprecision(3)
       << device_suitability[d];
    os.unsetf(std::ios::fixed);
  }
  os << "\n";
  os << "  selected: " << analyzer::strategy_name(match.best) << "\n";
  os << "  rationale: " << match.rationale << "\n";
  os << "  probed capacities (items/s, whole device):\n";
  for (std::size_t k = 0; k < kernel_names.size(); ++k) {
    os << "    " << kernel_names[k] << ":";
    for (std::size_t d = 0; d < device_names.size(); ++d) {
      os << " " << device_names[d] << "="
         << json::format_double(capacities[k][d]);
    }
    os << "\n";
  }
  os << "  predicted times (ideal overlap, lower bounds):\n";
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    const StrategyPrediction& prediction = predictions[i];
    os << "    " << (i + 1) << ". " << std::left << std::setw(10)
       << analyzer::strategy_name(prediction.kind) << std::right << " ";
    if (prediction.predicted_ms < 0.0) {
      os << "n/a";
    } else {
      os << std::fixed << std::setprecision(3) << prediction.predicted_ms
         << " ms";
      os.unsetf(std::ios::fixed);
    }
    os << "  (" << prediction.basis << ")\n";
  }
  return os.str();
}

}  // namespace hetsched::strategies
