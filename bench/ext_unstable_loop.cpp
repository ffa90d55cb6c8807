/// Extension: the SK-Loop stability assumption (paper Section III-C).
///
/// SP-Single reuses one iteration's split for every iteration under the
/// assumption of stable kernel performance; the paper's remedy when that
/// fails is to regard each iteration as a different kernel (SK-Loop ->
/// MK-Seq), where SP-Varied applies. UnstableLoopApp's GPU efficiency
/// decays every sweep; we compare:
///   - "fixed split": the first sweep's Glinda split applied to all sweeps
///     (what SP-Single would do under the broken assumption),
///   - SP-Varied: per-sweep splits (the paper's conversion),
///   - SP-Unified and the dynamic strategies for context.
#include "bench/bench_util.hpp"

#include "apps/unstable_loop.hpp"
#include "glinda/partition_model.hpp"
#include "glinda/profile.hpp"

using namespace hetsched;
using analyzer::StrategyKind;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);

  apps::Application::Config config;
  config.items = 8'388'608;  // 8M grid points
  config.iterations = 8;     // 8 sweeps, GPU efficiency decaying 0.5 -> 0.008
  config.functional = false;
  apps::UnstableLoopApp app(hw::make_reference_platform(), config);

  strategies::StrategyOptions options;
  options.sync_between_kernels = true;  // host convergence check per sweep
  strategies::StrategyRunner runner(app, options);

  Table table({"strategy", "time (ms)", "accelerator share"});

  // The broken-assumption baseline: profile sweep 0, apply its split to
  // every sweep.
  {
    glinda::Profiler profiler;
    glinda::KernelEstimate estimate;
    estimate.cpu = profiler.profile_device(
        app.executor(), app.single_kernel_factory(0), hw::kCpuDevice,
        app.items());
    estimate.gpu = profiler.profile_device(
        app.executor(), app.single_kernel_factory(0), 1, app.items());
    estimate.link_bytes_per_second = estimate.gpu.link_bytes_per_second;
    estimate.transfer_on_critical_path = true;
    const auto decision =
        glinda::PartitionModel{}.solve(estimate, app.items());

    const rt::Program program = app.build_program(
        [&](rt::Program& p, std::size_t, rt::KernelId k) {
          if (decision.gpu_items > 0) p.submit(k, 0, decision.gpu_items, 1);
          const std::int64_t cpu_items = app.items() - decision.gpu_items;
          for (int i = 0; i < 12; ++i) {
            p.submit(k, decision.gpu_items + cpu_items * i / 12,
                     decision.gpu_items + cpu_items * (i + 1) / 12,
                     hw::kCpuDevice);
          }
        },
        /*sync_between_kernels=*/true);
    const auto report = app.executor().execute_pinned(program);
    table.add_row({"fixed split (SK-Loop assumption)",
                   bench::ms(to_millis(report.makespan)),
                   bench::pct(decision.gpu_fraction(app.items()))});
  }

  std::vector<double> varied_shares;
  for (StrategyKind kind :
       {StrategyKind::kSPVaried, StrategyKind::kSPUnified,
        StrategyKind::kDPPerf, StrategyKind::kDPDep, StrategyKind::kOnlyCpu,
        StrategyKind::kOnlyGpu}) {
    const auto result = runner.run(kind);
    table.add_row({analyzer::strategy_name(kind),
                   bench::ms(result.time_ms()),
                   bench::pct(result.gpu_fraction_overall)});
    if (kind == StrategyKind::kSPVaried)
      varied_shares = result.gpu_fraction_per_kernel;
  }

  bench::print_header(
      "Extension: unstable SK-Loop converted to MK-Seq (Section III-C)");
  table.print(std::cout, args.csv);

  std::cout << "\nSP-Varied per-sweep GPU shares (the drift the fixed split "
               "misses):";
  for (double share : varied_shares)
    std::cout << " " << format_percent(share, 0);
  std::cout << "\nexpected: the per-sweep splits track the decaying GPU and "
               "beat the fixed split; the paper's conversion rule is the "
               "right call for unstable loops.\n";
  return 0;
}
