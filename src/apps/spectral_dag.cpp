#include "apps/spectral_dag.hpp"

#include <cmath>

#include "common/rng.hpp"

namespace hetsched::apps {

namespace {

analyzer::AppDescriptor make_descriptor(int iterations) {
  analyzer::AppDescriptor descriptor;
  descriptor.name = "SpectralDAG";
  descriptor.structure.kernels = {
      {"spectrum", false}, {"row_pass", false}, {"col_pass", false},
      {"combine", false}};
  descriptor.structure.flow = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};  // diamond
  descriptor.structure.main_loop = iterations > 1;
  descriptor.sync = analyzer::SyncReason::kNone;
  return descriptor;
}

float spectrum_update(float spec, float param) {
  return spec * 0.9f + param;
}
float row_transform(float spec) { return spec * 1.5f + 1.0f; }
float col_transform(float spec) { return spec * 0.5f - 1.0f; }
float combine(float row, float col) { return row + col; }

}  // namespace

SpectralDagApp::SpectralDagApp(const hw::PlatformSpec& platform,
                               Config config)
    : Application(platform, config, make_descriptor(config.iterations),
                  /*sync_each_iteration=*/false) {
  const std::int64_t array_bytes = config_.items * 4;
  params_ = executor_->register_buffer("params", array_bytes);
  spec_ = executor_->register_buffer("spec", array_bytes);
  rows_ = executor_->register_buffer("rows", array_bytes);
  cols_ = executor_->register_buffer("cols", array_bytes);
  height_ = executor_->register_buffer("height", array_bytes);

  if (config_.functional) reset_data();

  struct Spec {
    const char* name;
    double flops;
    double bytes;
    double cpu_eff;
    double gpu_eff;
  };
  const Spec specs[] = {
      {"spectrum", 50.0, 12.0, 0.10, 0.30},
      {"row_pass", 400.0, 8.0, 0.10, 0.40},  // compute-heavy: GPU-friendly
      {"col_pass", 400.0, 8.0, 0.10, 0.40},
      {"combine", 5.0, 12.0, 0.30, 0.30},  // bandwidth-bound
  };

  std::vector<rt::KernelId> kernels;
  for (int k = 0; k < 4; ++k) {
    hw::KernelTraits traits;
    traits.name = specs[k].name;
    traits.flops_per_item = specs[k].flops;
    traits.device_bytes_per_item = specs[k].bytes;
    traits.cpu_compute_efficiency = specs[k].cpu_eff;
    traits.gpu_compute_efficiency = specs[k].gpu_eff;
    traits.cpu_memory_efficiency = 0.6;
    traits.gpu_memory_efficiency = 0.85;

    rt::KernelDef def;
    def.name = specs[k].name;
    def.traits = traits;
    const mem::BufferId params = params_, spec = spec_, rows = rows_,
                        cols = cols_, height = height_;
    switch (k) {
      case 0:
        def.accesses = [params, spec](std::int64_t begin, std::int64_t end,
                                      std::vector<mem::RegionAccess>& out) {
          const Interval range{begin * 4, end * 4};
          out.insert(out.end(), {
              {{params, range}, mem::AccessMode::kRead},
              {{spec, range}, mem::AccessMode::kReadWrite},
          });
        };
        if (config_.functional) {
          def.body = [this](std::int64_t begin, std::int64_t end) {
            for (std::int64_t i = begin; i < end; ++i)
              host_spec_[i] = spectrum_update(host_spec_[i], host_params_[i]);
          };
        }
        break;
      case 1:
        def.accesses = [spec, rows](std::int64_t begin, std::int64_t end,
                                    std::vector<mem::RegionAccess>& out) {
          const Interval range{begin * 4, end * 4};
          out.insert(out.end(), {
              {{spec, range}, mem::AccessMode::kRead},
              {{rows, range}, mem::AccessMode::kWrite},
          });
        };
        if (config_.functional) {
          def.body = [this](std::int64_t begin, std::int64_t end) {
            for (std::int64_t i = begin; i < end; ++i)
              host_rows_[i] = row_transform(host_spec_[i]);
          };
        }
        break;
      case 2:
        def.accesses = [spec, cols](std::int64_t begin, std::int64_t end,
                                    std::vector<mem::RegionAccess>& out) {
          const Interval range{begin * 4, end * 4};
          out.insert(out.end(), {
              {{spec, range}, mem::AccessMode::kRead},
              {{cols, range}, mem::AccessMode::kWrite},
          });
        };
        if (config_.functional) {
          def.body = [this](std::int64_t begin, std::int64_t end) {
            for (std::int64_t i = begin; i < end; ++i)
              host_cols_[i] = col_transform(host_spec_[i]);
          };
        }
        break;
      case 3:
        def.accesses = [rows, cols, height](
                           std::int64_t begin, std::int64_t end,
                           std::vector<mem::RegionAccess>& out) {
          const Interval range{begin * 4, end * 4};
          out.insert(out.end(), {
              {{rows, range}, mem::AccessMode::kRead},
              {{cols, range}, mem::AccessMode::kRead},
              {{height, range}, mem::AccessMode::kWrite},
          });
        };
        if (config_.functional) {
          def.body = [this](std::int64_t begin, std::int64_t end) {
            for (std::int64_t i = begin; i < end; ++i)
              host_height_[i] = combine(host_rows_[i], host_cols_[i]);
          };
        }
        break;
    }
    kernels.push_back(executor_->register_kernel(std::move(def)));
  }
  set_kernels(std::move(kernels));
}

void SpectralDagApp::reset_data() {
  if (!config_.functional) return;
  Rng rng(20150901);
  const auto n = static_cast<std::size_t>(config_.items);
  host_params_.resize(n);
  host_spec_.assign(n, 0.0f);
  host_rows_.assign(n, 0.0f);
  host_cols_.assign(n, 0.0f);
  host_height_.assign(n, 0.0f);
  for (auto& p : host_params_) p = static_cast<float>(rng.uniform(-1.0, 1.0));
  functional_iteration_ = 0;
}

void SpectralDagApp::step_reference(std::vector<float>& spec,
                                    std::vector<float>& rows,
                                    std::vector<float>& cols,
                                    std::vector<float>& height,
                                    int iteration) const {
  (void)iteration;
  for (std::size_t i = 0; i < spec.size(); ++i)
    spec[i] = spectrum_update(spec[i], host_params_[i]);
  for (std::size_t i = 0; i < spec.size(); ++i)
    rows[i] = row_transform(spec[i]);
  for (std::size_t i = 0; i < spec.size(); ++i)
    cols[i] = col_transform(spec[i]);
  for (std::size_t i = 0; i < spec.size(); ++i)
    height[i] = combine(rows[i], cols[i]);
}

void SpectralDagApp::verify() const {
  if (!config_.functional) return;
  std::vector<float> spec(host_params_.size(), 0.0f);
  std::vector<float> rows(spec.size(), 0.0f), cols(spec.size(), 0.0f),
      height(spec.size(), 0.0f);
  for (int t = 0; t < config_.iterations; ++t)
    step_reference(spec, rows, cols, height, t);
  for (std::size_t i = 0; i < spec.size(); ++i) {
    check_close(host_height_[i], height[i], 1e-4,
                "height[" + std::to_string(i) + "]");
    check_close(host_spec_[i], spec[i], 1e-4,
                "spec[" + std::to_string(i) + "]");
  }
}

}  // namespace hetsched::apps
