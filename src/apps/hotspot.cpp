#include "apps/hotspot.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace hetsched::apps {

namespace {

constexpr float kAlpha = 0.1f;       // diffusion coefficient
constexpr float kPowerScale = 0.05f; // heating contribution

analyzer::AppDescriptor make_descriptor() {
  analyzer::AppDescriptor descriptor;
  descriptor.name = "HotSpot";
  descriptor.structure =
      analyzer::KernelGraph::single("stencil_step", /*looped=*/true);
  descriptor.sync = analyzer::SyncReason::kRepartitioning;
  return descriptor;
}

}  // namespace

HotSpotApp::HotSpotApp(const hw::PlatformSpec& platform, Config config)
    : Application(platform, config, make_descriptor(),
                  /*sync_each_iteration=*/true),
      rows_(config.items),
      cols_(config.items) {
  const std::int64_t row_bytes = cols_ * 4;
  const std::int64_t grid_bytes = rows_ * row_bytes;
  temp_in_ = executor_->register_buffer("temp_in", grid_bytes);
  temp_out_ = executor_->register_buffer("temp_out", grid_bytes);
  power_ = executor_->register_buffer("power", grid_bytes);

  if (config_.functional) reset_data();

  hw::KernelTraits traits;
  traits.name = "stencil_step";
  // Per row: ~15 flops per cell; traffic: 3 temperature rows + power row in,
  // one row out. Strongly memory-bound on both devices.
  traits.flops_per_item = 15.0 * static_cast<double>(cols_);
  traits.device_bytes_per_item = 5.0 * static_cast<double>(row_bytes);
  traits.cpu_compute_efficiency = 0.30;
  traits.gpu_compute_efficiency = 0.30;
  traits.cpu_memory_efficiency = 0.80;
  traits.gpu_memory_efficiency = 0.85;

  rt::KernelDef def;
  def.name = "stencil_step";
  def.traits = traits;
  const mem::BufferId temp_in = temp_in_, temp_out = temp_out_,
                      power = power_;
  const std::int64_t rows = rows_;
  def.accesses = [temp_in, temp_out, power, rows, row_bytes](
                     std::int64_t begin, std::int64_t end,
                     std::vector<mem::RegionAccess>& out) {
    // One-row halo on each side, clamped at the grid edges.
    const std::int64_t halo_begin = std::max<std::int64_t>(0, begin - 1);
    const std::int64_t halo_end = std::min<std::int64_t>(rows, end + 1);
    out.insert(out.end(), {
        {{temp_in, {halo_begin * row_bytes, halo_end * row_bytes}},
         mem::AccessMode::kRead},
        {{power, {begin * row_bytes, end * row_bytes}},
         mem::AccessMode::kRead},
        {{temp_out, {begin * row_bytes, end * row_bytes}},
         mem::AccessMode::kWrite},
    });
  };
  if (config_.functional) {
    def.body = [this](std::int64_t begin, std::int64_t end) {
      stencil_rows(begin, end, host_temp_in_, host_temp_out_);
    };
  }
  set_kernels({executor_->register_kernel(std::move(def))});
}

void HotSpotApp::stencil_rows(std::int64_t begin, std::int64_t end,
                              const std::vector<float>& in,
                              std::vector<float>& out) const {
  auto at = [&](std::int64_t r, std::int64_t c) -> float {
    r = std::clamp<std::int64_t>(r, 0, rows_ - 1);
    c = std::clamp<std::int64_t>(c, 0, cols_ - 1);
    return in[static_cast<std::size_t>(r * cols_ + c)];
  };
  for (std::int64_t r = begin; r < end; ++r) {
    for (std::int64_t c = 0; c < cols_; ++c) {
      const float center = at(r, c);
      const float laplacian = at(r - 1, c) + at(r + 1, c) + at(r, c - 1) +
                              at(r, c + 1) - 4.0f * center;
      out[static_cast<std::size_t>(r * cols_ + c)] =
          center + kAlpha * laplacian +
          kPowerScale * host_power_[static_cast<std::size_t>(r * cols_ + c)];
    }
  }
}

void HotSpotApp::append_host_update(rt::Program& program,
                                    int iteration) const {
  (void)iteration;
  const std::int64_t grid_bytes = rows_ * cols_ * 4;
  std::function<void()> body;
  if (config_.functional) {
    body = [this] { host_temp_in_ = host_temp_out_; };
  }
  program.host_op(
      {
          {{temp_out_, {0, grid_bytes}}, mem::AccessMode::kRead},
          {{temp_in_, {0, grid_bytes}}, mem::AccessMode::kWrite},
      },
      std::move(body));
}

void HotSpotApp::reset_data() {
  if (!config_.functional) return;
  Rng rng(8192);
  const auto cells = static_cast<std::size_t>(rows_ * cols_);
  host_temp_in_.resize(cells);
  host_temp_out_.assign(cells, 0.0f);
  host_power_.resize(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    host_temp_in_[i] = static_cast<float>(rng.uniform(40.0, 80.0));
    host_power_[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  initial_temp_ = host_temp_in_;
}

std::vector<float> HotSpotApp::reference_grid() const {
  std::vector<float> in = initial_temp_;
  std::vector<float> out(in.size(), 0.0f);
  for (int step = 0; step < config_.iterations; ++step) {
    stencil_rows(0, rows_, in, out);
    in = out;
  }
  return out;
}

void HotSpotApp::verify() const {
  if (!config_.functional) return;
  const std::vector<float> expected = reference_grid();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    check_close(host_temp_out_[i], expected[i], 1e-3,
                "temp[" + std::to_string(i) + "]");
  }
}

}  // namespace hetsched::apps
