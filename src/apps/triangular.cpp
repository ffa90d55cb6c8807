#include "apps/triangular.hpp"

#include "common/rng.hpp"

namespace hetsched::apps {

namespace {

analyzer::AppDescriptor make_descriptor() {
  analyzer::AppDescriptor descriptor;
  descriptor.name = "TriangularMV";
  descriptor.structure = analyzer::KernelGraph::single("trmv");
  descriptor.sync = analyzer::SyncReason::kNone;
  return descriptor;
}

/// Packed offset of row i (elements, not bytes).
std::int64_t row_offset(std::int64_t i) { return i * (i + 1) / 2; }

}  // namespace

TriangularMvApp::TriangularMvApp(const hw::PlatformSpec& platform,
                                 Config config)
    : Application(platform, config, make_descriptor(),
                  /*sync_each_iteration=*/false),
      n_(config.items) {
  HS_REQUIRE(config.iterations == 1, "TriangularMV is one-shot");
  const std::int64_t nnz = row_offset(n_);
  matrix_ = executor_->register_buffer("L", nnz * 4);
  x_ = executor_->register_buffer("x", n_ * 4);
  y_ = executor_->register_buffer("y", n_ * 4);

  if (config_.functional) reset_data();

  hw::KernelTraits traits;
  traits.name = "trmv";
  // Work unit = one nonzero: a multiply-add over one packed element.
  traits.flops_per_item = 2.0;
  traits.device_bytes_per_item = 4.0;
  traits.cpu_compute_efficiency = 0.10;
  traits.gpu_compute_efficiency = 0.30;
  traits.cpu_memory_efficiency = 0.60;
  traits.gpu_memory_efficiency = 0.85;
  traits.work_weight = [](std::int64_t begin, std::int64_t end) {
    return static_cast<double>(row_offset(end) - row_offset(begin));
  };

  rt::KernelDef def;
  def.name = "trmv";
  def.traits = traits;
  const mem::BufferId matrix = matrix_, x = x_, y = y_;
  def.accesses = [matrix, x, y](std::int64_t begin, std::int64_t end,
                                std::vector<mem::RegionAccess>& out) {
    out.insert(out.end(), {
        {{matrix, {row_offset(begin) * 4, row_offset(end) * 4}},
         mem::AccessMode::kRead},
        {{x, {0, end * 4}}, mem::AccessMode::kRead},
        {{y, {begin * 4, end * 4}}, mem::AccessMode::kWrite},
    });
  };
  if (config_.functional) {
    def.body = [this](std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i) {
        double acc = 0.0;
        const std::int64_t base = row_offset(i);
        for (std::int64_t j = 0; j <= i; ++j)
          acc += static_cast<double>(host_matrix_[base + j]) * host_x_[j];
        host_y_[i] = static_cast<float>(acc);
      }
    };
  }
  set_kernels({executor_->register_kernel(std::move(def))});
}

void TriangularMvApp::reset_data() {
  if (!config_.functional) return;
  Rng rng(17);
  host_matrix_.resize(static_cast<std::size_t>(row_offset(n_)));
  host_x_.resize(static_cast<std::size_t>(n_));
  host_y_.assign(static_cast<std::size_t>(n_), 0.0f);
  for (auto& v : host_matrix_) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : host_x_) v = static_cast<float>(rng.uniform(-1.0, 1.0));
}

void TriangularMvApp::verify() const {
  if (!config_.functional) return;
  for (std::int64_t i = 0; i < n_; ++i) {
    double expected = 0.0;
    const std::int64_t base = row_offset(i);
    for (std::int64_t j = 0; j <= i; ++j)
      expected += static_cast<double>(host_matrix_[base + j]) * host_x_[j];
    check_close(host_y_[i], expected, 1e-3, "y[" + std::to_string(i) + "]");
  }
}

}  // namespace hetsched::apps
