/// What-if platform exploration: how the partitioning decision moves as the
/// hardware changes.
///
/// Runs Glinda's profile->predict->decide pipeline for MatrixMul and
/// HotSpot on three platforms (the paper's reference, a low-end GPU, and
/// the reference with a fast NVLink-class interconnect) and prints the
/// hardware-configuration decision and split for each — the "look before
/// you leap" usage of the partitioning model.
#include <iostream>

#include "apps/registry.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "glinda/multi_device.hpp"
#include "hw/platform.hpp"
#include "strategies/strategy_runner.hpp"

int main() {
  using namespace hetsched;

  const std::vector<std::pair<std::string, hw::PlatformSpec>> platforms = {
      {"reference (K20m, PCIe 6 GB/s)", hw::make_reference_platform()},
      {"low-end GPU (PCIe 3 GB/s)", hw::make_small_gpu_platform()},
      {"reference + 32 GB/s link", hw::make_reference_platform_with_link(32)},
  };

  Table table({"application", "platform", "decision", "GPU share",
               "measured (ms)"});

  for (apps::PaperApp kind :
       {apps::PaperApp::kMatrixMul, apps::PaperApp::kHotSpot}) {
    for (const auto& [label, platform] : platforms) {
      auto app = apps::make_paper_app(kind, platform,
                                      apps::paper_config(kind));
      strategies::StrategyRunner runner(*app);
      const auto result = runner.run(analyzer::StrategyKind::kSPSingle);
      const glinda::MultiPartitionDecision& decision = result.decisions.at(0);
      table.add_row(
          {std::string(apps::paper_app_name(kind)), label,
           std::string(glinda::hardware_config_name(decision.config())),
           format_percent(decision.share(1, app->items())),
           format_fixed(result.time_ms(), 1)});
    }
  }

  std::cout << "Glinda decisions across platforms\n\n" << table.to_ascii();
  std::cout << "\nreading: the faster the link, the larger the GPU share of "
               "transfer-bound workloads; a weak GPU pushes the decision "
               "toward Only-CPU.\n";
  return 0;
}
