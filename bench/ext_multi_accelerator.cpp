/// Extension: multi-accelerator platforms (the paper's future work).
///
/// Glinda's model covers "one or more accelerators, identical or
/// non-identical"; the paper's future work extends the analyzer to other
/// accelerator types. We run SP-Single for the SK-One/SK-Loop applications
/// on three platforms — the paper's CPU+GPU reference, CPU + two K20m
/// GPUs, and CPU + K20m + Xeon Phi 5110P — printing the multi-way split
/// and the resulting time.
#include "bench/bench_util.hpp"

using namespace hetsched;
using analyzer::StrategyKind;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);

  const std::vector<std::pair<std::string, hw::PlatformSpec>> platforms = {
      {"CPU + K20m", hw::make_reference_platform()},
      {"CPU + 2x K20m", hw::make_dual_gpu_platform()},
      {"CPU + K20m + Phi", hw::make_cpu_gpu_phi_platform()},
  };

  Table table({"application", "platform", "split (CPU/acc1/acc2)",
               "SP-Single (ms)"});

  for (apps::PaperApp kind :
       {apps::PaperApp::kMatrixMul, apps::PaperApp::kBlackScholes,
        apps::PaperApp::kNbody}) {
    for (const auto& [label, platform] : platforms) {
      auto app =
          apps::make_paper_app(kind, platform, apps::paper_config(kind));
      strategies::StrategyRunner runner(*app);
      const auto result = runner.run(StrategyKind::kSPSingle);

      std::string split;
      const auto& d = result.decisions.at(0);
      for (std::size_t i = 0; i < d.device_count(); ++i) {
        if (i != 0) split += " / ";
        split += format_percent(d.share(i, app->items()), 0);
      }
      table.add_row({apps::paper_app_name(kind), label, split,
                     bench::ms(result.time_ms())});
    }
  }

  bench::print_header("Extension: multi-accelerator SP-Single");
  table.print(std::cout, args.csv);
  std::cout << "\nexpected: a second K20m roughly halves the GPU-bound "
               "times (compute-bound apps) until the shared link "
               "saturates; the Phi takes a meaningful but smaller slice "
               "than the K20m.\n";
  return 0;
}
