#include "apps/nbody.hpp"

#include <cmath>

#include "common/rng.hpp"

namespace hetsched::apps {

namespace {

constexpr float kDt = 1e-3f;
constexpr float kSoftening = 1e-2f;
constexpr std::int64_t kStateBytes = 32;  // 8 floats per body
constexpr std::int64_t kStateFloats = 8;

analyzer::AppDescriptor make_descriptor() {
  analyzer::AppDescriptor descriptor;
  descriptor.name = "Nbody";
  descriptor.structure =
      analyzer::KernelGraph::single("force_step", /*looped=*/true);
  // States from all processors are reassembled for the next iteration.
  descriptor.sync = analyzer::SyncReason::kRepartitioning;
  return descriptor;
}

/// One sequential force+integrate step for bodies [begin, end): reads the
/// full `state`, writes `state_new` for its slice.
void step_bodies(std::int64_t n, std::int64_t begin, std::int64_t end,
                 const float* state, float* state_new) {
  for (std::int64_t i = begin; i < end; ++i) {
    const float* si = state + kStateFloats * i;
    float ax = 0.0f, ay = 0.0f, az = 0.0f;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* sj = state + kStateFloats * j;
      const float dx = sj[0] - si[0];
      const float dy = sj[1] - si[1];
      const float dz = sj[2] - si[2];
      const float dist_sq = dx * dx + dy * dy + dz * dz + kSoftening;
      const float inv = 1.0f / std::sqrt(dist_sq);
      const float f = sj[3] * inv * inv * inv;  // m / r^3
      ax += f * dx;
      ay += f * dy;
      az += f * dz;
    }
    float* out = state_new + kStateFloats * i;
    const float vx = si[4] + ax * kDt;
    const float vy = si[5] + ay * kDt;
    const float vz = si[6] + az * kDt;
    out[0] = si[0] + vx * kDt;
    out[1] = si[1] + vy * kDt;
    out[2] = si[2] + vz * kDt;
    out[3] = si[3];  // mass carried along
    out[4] = vx;
    out[5] = vy;
    out[6] = vz;
    out[7] = 0.0f;
  }
}

}  // namespace

NbodyApp::NbodyApp(const hw::PlatformSpec& platform, Config config)
    : Application(platform, config, make_descriptor(),
                  /*sync_each_iteration=*/true) {
  const std::int64_t array_bytes = config_.items * kStateBytes;
  state_ = executor_->register_buffer("state", array_bytes);
  state_new_ = executor_->register_buffer("state_new", array_bytes);

  if (config_.functional) reset_data();

  hw::KernelTraits traits;
  traits.name = "force_step";
  // Per body per step: interactions against a neighbor-limited working set
  // (~1000 bodies x ~20 flops), the granularity the Mont-Blanc kernel uses.
  traits.flops_per_item = 20000.0;
  traits.device_bytes_per_item = 64.0;
  // Both sides vectorize the inner loop well; the GPU especially (rsqrt).
  traits.cpu_compute_efficiency = 0.25;
  traits.gpu_compute_efficiency = 0.45;
  traits.cpu_memory_efficiency = 0.80;
  traits.gpu_memory_efficiency = 0.85;

  rt::KernelDef def;
  def.name = "force_step";
  def.traits = traits;
  const mem::BufferId state = state_, state_new = state_new_;
  const std::int64_t total_bytes = array_bytes;
  def.accesses = [state, state_new, total_bytes](
                     std::int64_t begin, std::int64_t end,
                     std::vector<mem::RegionAccess>& out) {
    out.insert(out.end(), {
        // Every body reads every particle state: a broadcast input.
        {{state, {0, total_bytes}}, mem::AccessMode::kRead},
        {{state_new, {begin * kStateBytes, end * kStateBytes}},
         mem::AccessMode::kWrite},
    });
  };
  if (config_.functional) {
    def.body = [this](std::int64_t begin, std::int64_t end) {
      step_bodies(config_.items, begin, end, host_state_.data(),
                  host_state_new_.data());
    };
  }
  set_kernels({executor_->register_kernel(std::move(def))});
}

void NbodyApp::append_host_update(rt::Program& program, int iteration) const {
  (void)iteration;
  const std::int64_t total_bytes = config_.items * kStateBytes;
  std::function<void()> body;
  if (config_.functional) {
    body = [this] { host_state_ = host_state_new_; };
  }
  // The host combines the per-device outputs and republishes them as the
  // next step's input — invalidating device copies of `state`.
  program.host_op(
      {
          {{state_new_, {0, total_bytes}}, mem::AccessMode::kRead},
          {{state_, {0, total_bytes}}, mem::AccessMode::kWrite},
      },
      std::move(body));
}

void NbodyApp::reset_data() {
  if (!config_.functional) return;
  Rng rng(1048576);
  const auto n = static_cast<std::size_t>(config_.items);
  host_state_.assign(kStateFloats * n, 0.0f);
  host_state_new_.assign(kStateFloats * n, 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    float* s = host_state_.data() + kStateFloats * i;
    s[0] = static_cast<float>(rng.uniform(-1.0, 1.0));
    s[1] = static_cast<float>(rng.uniform(-1.0, 1.0));
    s[2] = static_cast<float>(rng.uniform(-1.0, 1.0));
    s[3] = static_cast<float>(rng.uniform(0.1, 1.0));
  }
  initial_state_ = host_state_;
}

std::vector<float> NbodyApp::reference_state() const {
  std::vector<float> state = initial_state_;
  std::vector<float> state_new(state.size(), 0.0f);
  for (int step = 0; step < config_.iterations; ++step) {
    step_bodies(config_.items, 0, config_.items, state.data(),
                state_new.data());
    state = state_new;
  }
  return state;
}

void NbodyApp::verify() const {
  if (!config_.functional) return;
  // After the final taskwait the last step's result lives in state_new (the
  // host update only runs between iterations).
  const std::vector<float> expected = reference_state();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    check_close(host_state_new_[i], expected[i], 1e-3,
                "state[" + std::to_string(i) + "]");
  }
}

}  // namespace hetsched::apps
