#include "apps/unstable_loop.hpp"

#include <cmath>

#include "common/rng.hpp"

namespace hetsched::apps {

namespace {

constexpr double kBaseGpuEfficiency = 0.5;
constexpr double kDecayPerSweep = 0.55;

analyzer::AppDescriptor make_descriptor(int sweeps) {
  analyzer::AppDescriptor descriptor;
  descriptor.name = "UnstableLoop";
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(sweeps));
  for (int t = 0; t < sweeps; ++t)
    names.push_back("sweep_" + std::to_string(t));
  // The paper's conversion: each iteration regarded as a different kernel,
  // SK-Loop -> MK-Seq. The host inspects convergence after every sweep.
  descriptor.structure = analyzer::KernelGraph::sequence(std::move(names));
  descriptor.sync = analyzer::SyncReason::kHostPostProcessing;
  return descriptor;
}

float relax(float x) { return 0.5f * x + 0.25f * x * x * 0.01f + 0.1f; }

}  // namespace

double UnstableLoopApp::gpu_efficiency_at(int sweep, int total_sweeps) {
  (void)total_sweeps;
  return kBaseGpuEfficiency * std::pow(kDecayPerSweep, sweep);
}

UnstableLoopApp::UnstableLoopApp(const hw::PlatformSpec& platform,
                                 Config config)
    : Application(platform,
                  Config{config.items, 1, config.functional, config.costs,
                         config.record_trace},
                  make_descriptor(config.iterations),
                  /*sync_each_iteration=*/false) {
  HS_REQUIRE(config.iterations >= 2,
             "UnstableLoop needs at least 2 sweeps to drift");
  const int sweeps = config.iterations;
  const std::int64_t array_bytes = config_.items * 4;
  state_ = executor_->register_buffer("state", array_bytes);
  scratch_ = executor_->register_buffer("scratch", array_bytes);

  if (config_.functional) reset_data();

  std::vector<rt::KernelId> kernels;
  for (int t = 0; t < sweeps; ++t) {
    hw::KernelTraits traits;
    traits.name = "sweep_" + std::to_string(t);
    traits.flops_per_item = 2000.0;
    traits.device_bytes_per_item = 8.0;
    traits.cpu_compute_efficiency = 0.12;  // flat: scalar code, cache-bound
    // Control flow grows more divergent every sweep: the GPU decays.
    traits.gpu_compute_efficiency = gpu_efficiency_at(t, sweeps);
    traits.cpu_memory_efficiency = 0.8;
    traits.gpu_memory_efficiency = 0.85;

    rt::KernelDef def;
    def.name = traits.name;
    def.traits = traits;
    // Ping-pong: even sweeps read state/write scratch, odd the reverse.
    const mem::BufferId src = (t % 2 == 0) ? state_ : scratch_;
    const mem::BufferId dst = (t % 2 == 0) ? scratch_ : state_;
    def.accesses = [src, dst](std::int64_t begin, std::int64_t end,
                              std::vector<mem::RegionAccess>& out) {
      out.insert(out.end(), {
          {{src, {begin * 4, end * 4}}, mem::AccessMode::kRead},
          {{dst, {begin * 4, end * 4}}, mem::AccessMode::kWrite},
      });
    };
    if (config_.functional) {
      const bool even = t % 2 == 0;
      def.body = [this, even](std::int64_t begin, std::int64_t end) {
        const std::vector<float>& from = even ? host_state_ : host_scratch_;
        std::vector<float>& to = even ? host_scratch_ : host_state_;
        for (std::int64_t i = begin; i < end; ++i) to[i] = relax(from[i]);
      };
    }
    kernels.push_back(executor_->register_kernel(std::move(def)));
  }
  set_kernels(std::move(kernels));
}

void UnstableLoopApp::reset_data() {
  if (!config_.functional) return;
  Rng rng(55);
  const auto n = static_cast<std::size_t>(config_.items);
  host_state_.resize(n);
  host_scratch_.assign(n, 0.0f);
  for (auto& x : host_state_) x = static_cast<float>(rng.uniform(0.0, 10.0));
  initial_state_ = host_state_;
}

void UnstableLoopApp::verify() const {
  if (!config_.functional) return;
  const int sweeps = static_cast<int>(kernels().size());
  std::vector<float> state = initial_state_;
  std::vector<float> scratch(state.size(), 0.0f);
  for (int t = 0; t < sweeps; ++t) {
    const std::vector<float>& from = (t % 2 == 0) ? state : scratch;
    std::vector<float>& to = (t % 2 == 0) ? scratch : state;
    for (std::size_t i = 0; i < state.size(); ++i) to[i] = relax(from[i]);
  }
  const std::vector<float>& final_host =
      (sweeps % 2 == 1) ? host_scratch_ : host_state_;
  const std::vector<float>& final_ref = (sweeps % 2 == 1) ? scratch : state;
  for (std::size_t i = 0; i < final_ref.size(); ++i) {
    check_close(final_host[i], final_ref[i], 1e-4,
                "state[" + std::to_string(i) + "]");
  }
}

}  // namespace hetsched::apps
