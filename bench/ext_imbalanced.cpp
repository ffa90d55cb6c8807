/// Extension: imbalanced workloads (Glinda's ICS'14 companion, paper ref
/// [9]).
///
/// TriangularMV's per-row cost grows linearly across the item space. A
/// uniform split at the optimal item FRACTION hands the GPU's head slab far
/// less WORK than intended; the weighted solver balances work instead. We
/// compare the two static solutions against the dynamic strategies (whose
/// per-chunk placement adapts, at a price) and the baselines.
#include "bench/bench_util.hpp"

#include "apps/triangular.hpp"
#include "glinda/partition_model.hpp"
#include "glinda/profile.hpp"

using namespace hetsched;
using analyzer::StrategyKind;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);

  apps::Application::Config config;
  config.items = 16'384;  // ~537 MB packed triangular matrix
  config.iterations = 1;
  config.functional = false;
  apps::TriangularMvApp app(hw::make_reference_platform(), config);
  strategies::StrategyRunner runner(app);

  Table table({"strategy", "time (ms)", "GPU item share", "GPU WORK share"});
  const auto work_share = [&](double item_fraction) {
    const auto weight = app.prefix_weight();
    const auto head = static_cast<std::int64_t>(
        item_fraction * static_cast<double>(app.items()));
    return weight(head) / weight(app.items());
  };

  // Uniform split: force the closed-form solver on the same profile.
  {
    glinda::Profiler profiler;
    glinda::KernelEstimate estimate;
    estimate.cpu = profiler.profile_device(app.executor(),
                                           app.single_kernel_factory(0),
                                           hw::kCpuDevice, app.items());
    estimate.gpu = profiler.profile_device(
        app.executor(), app.single_kernel_factory(0), 1, app.items());
    estimate.link_bytes_per_second = estimate.gpu.link_bytes_per_second;
    estimate.transfer_on_critical_path = true;
    const auto uniform = glinda::PartitionModel{}.solve(estimate, app.items());
    const rt::Program program = app.build_program(
        [&](rt::Program& p, std::size_t, rt::KernelId k) {
          if (uniform.gpu_items > 0) p.submit(k, 0, uniform.gpu_items, 1);
          const std::int64_t rest = app.items() - uniform.gpu_items;
          for (int i = 0; i < 12; ++i)
            p.submit(k, uniform.gpu_items + rest * i / 12,
                     uniform.gpu_items + rest * (i + 1) / 12,
                     hw::kCpuDevice);
        },
        false);
    const auto report = app.executor().execute_pinned(program);
    const double fraction = uniform.gpu_fraction(app.items());
    table.add_row({"SP-Single (uniform solver)",
                   bench::ms(to_millis(report.makespan)),
                   bench::pct(fraction), bench::pct(work_share(fraction))});
  }

  // Weighted split: what run(kSPSingle) does for apps with prefix weights.
  {
    const auto result = runner.run(StrategyKind::kSPSingle);
    const double fraction = result.gpu_fraction_overall;
    table.add_row({"SP-Single (weighted solver)",
                   bench::ms(result.time_ms()), bench::pct(fraction),
                   bench::pct(work_share(fraction))});
  }

  for (StrategyKind kind :
       {StrategyKind::kDPPerf, StrategyKind::kDPDep, StrategyKind::kOnlyCpu,
        StrategyKind::kOnlyGpu}) {
    const auto result = runner.run(kind);
    const double fraction = result.gpu_fraction_overall;
    table.add_row({analyzer::strategy_name(kind), bench::ms(result.time_ms()),
                   bench::pct(fraction), bench::pct(work_share(fraction))});
  }

  bench::print_header("Extension: imbalanced workload (TriangularMV)");
  table.print(std::cout, args.csv);
  std::cout << "\nexpected: the uniform solver's item split carries the "
               "wrong WORK split (the head rows are short), so it loses to "
               "the weighted solver, which equalizes work — ref [9]'s "
               "point. Note: the dynamic DP-Dep chunk shares are also item "
               "shares, hence its hidden imbalance here.\n";
  return 0;
}
