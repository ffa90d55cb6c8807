/// Ablation: runtime scheduling overhead.
///
/// The paper's Discussion attributes dynamic partitioning's deficit to
/// "scheduling overhead at runtime". This sweep scales the per-task runtime
/// costs in RuntimeCosts (creation, dispatch, taskwait) from one tenth to
/// one hundred times the defaults, showing the static-vs-dynamic gap
/// widening with overhead while static partitioning is barely touched. The
/// schedulers' per-decision costs are constants and stay unscaled.
#include "bench/bench_util.hpp"

#include "runtime/executor.hpp"

using namespace hetsched;
using analyzer::StrategyKind;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);

  Table table({"overhead scale", "SP-Single (ms)", "DP-Perf (ms)",
               "DP-Dep (ms)", "dynamic gap"});

  for (double scale : {0.1, 1.0, 10.0, 100.0}) {
    const hw::PlatformSpec platform = hw::make_reference_platform();
    apps::Application::Config config =
        apps::paper_config(apps::PaperApp::kNbody);
    config.costs.task_creation =
        static_cast<SimTime>(1.0 * kMicrosecond * scale);
    config.costs.dispatch_overhead =
        static_cast<SimTime>(2.0 * kMicrosecond * scale);
    config.costs.taskwait_overhead =
        static_cast<SimTime>(5.0 * kMicrosecond * scale);
    auto app = apps::make_paper_app(apps::PaperApp::kNbody, platform, config);
    strategies::StrategyRunner runner(*app);

    const double sp = runner.run(StrategyKind::kSPSingle).time_ms();
    const double perf = runner.run(StrategyKind::kDPPerf).time_ms();
    const double dep = runner.run(StrategyKind::kDPDep).time_ms();
    table.add_row({format_fixed(scale, 1) + "x", bench::ms(sp),
                   bench::ms(perf), bench::ms(dep),
                   format_fixed(perf / sp, 2) + "x"});
  }

  bench::print_header(
      "Ablation: runtime overhead scaling (Nbody, 1,048,576 bodies)");
  table.print(std::cout, args.csv);
  std::cout << "\nexpected: the best dynamic strategy falls further behind "
               "SP-Single as per-task overheads grow (it takes one "
               "scheduling decision per instance per iteration; the static "
               "plan takes none).\n";
  return 0;
}
