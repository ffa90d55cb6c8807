#include "apps/matrixmul.hpp"

#include "common/rng.hpp"

namespace hetsched::apps {

namespace {

analyzer::AppDescriptor make_descriptor() {
  analyzer::AppDescriptor descriptor;
  descriptor.name = "MatrixMul";
  descriptor.structure = analyzer::KernelGraph::single("matmul");
  descriptor.sync = analyzer::SyncReason::kNone;
  return descriptor;
}

}  // namespace

MatrixMulApp::MatrixMulApp(const hw::PlatformSpec& platform, Config config)
    : Application(platform, config, make_descriptor(),
                  /*sync_each_iteration=*/false),
      n_(config.items) {
  HS_REQUIRE(config.iterations == 1, "MatrixMul is a one-shot application");
  const std::int64_t row_bytes = n_ * 4;
  const std::int64_t matrix_bytes = n_ * row_bytes;
  a_ = executor_->register_buffer("A", matrix_bytes);
  b_ = executor_->register_buffer("B", matrix_bytes);
  c_ = executor_->register_buffer("C", matrix_bytes);

  if (config_.functional) reset_data();

  hw::KernelTraits traits;
  traits.name = "matmul";
  // One work item = one output row: 2*N flops per element, N elements.
  traits.flops_per_item = 2.0 * static_cast<double>(n_) *
                          static_cast<double>(n_);
  // Streamed device traffic per row (A row in, C row out, tiled B reuse).
  traits.device_bytes_per_item = 3.0 * static_cast<double>(row_bytes);
  // Profiled efficiencies: OmpSs CPU task code is a scalar triple loop (a
  // few percent of peak); the SDK OpenCL kernel sustains ~22% of K20 peak.
  traits.cpu_compute_efficiency = 0.094;
  traits.gpu_compute_efficiency = 0.227;
  traits.cpu_memory_efficiency = 0.80;
  traits.gpu_memory_efficiency = 0.85;

  rt::KernelDef def;
  def.name = "matmul";
  def.traits = traits;
  const mem::BufferId a = a_, b = b_, c = c_;
  def.accesses = [a, b, c, row_bytes, matrix_bytes](
                     std::int64_t begin, std::int64_t end,
                     std::vector<mem::RegionAccess>& out) {
    out.insert(out.end(), {
        {{a, {begin * row_bytes, end * row_bytes}}, mem::AccessMode::kRead},
        {{b, {0, matrix_bytes}}, mem::AccessMode::kRead},
        {{c, {begin * row_bytes, end * row_bytes}}, mem::AccessMode::kWrite},
    });
  };
  if (config_.functional) {
    def.body = [this](std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i) {
        for (std::int64_t j = 0; j < n_; ++j) {
          float acc = 0.0f;
          for (std::int64_t k = 0; k < n_; ++k)
            acc += host_a_[i * n_ + k] * host_b_[k * n_ + j];
          host_c_[i * n_ + j] = acc;
        }
      }
    };
  }
  set_kernels({executor_->register_kernel(std::move(def))});
}

void MatrixMulApp::reset_data() {
  if (!config_.functional) return;
  Rng rng(6144);
  host_a_.assign(static_cast<std::size_t>(n_ * n_), 0.0f);
  host_b_.assign(static_cast<std::size_t>(n_ * n_), 0.0f);
  host_c_.assign(static_cast<std::size_t>(n_ * n_), 0.0f);
  for (auto& x : host_a_) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& x : host_b_) x = static_cast<float>(rng.uniform(-1.0, 1.0));
}

void MatrixMulApp::verify() const {
  if (!config_.functional) return;
  for (std::int64_t i = 0; i < n_; ++i) {
    for (std::int64_t j = 0; j < n_; ++j) {
      double expected = 0.0;
      for (std::int64_t k = 0; k < n_; ++k)
        expected += static_cast<double>(host_a_[i * n_ + k]) *
                    static_cast<double>(host_b_[k * n_ + j]);
      check_close(host_c_[i * n_ + j], expected, 1e-3,
                  "C[" + std::to_string(i) + "," + std::to_string(j) + "]");
    }
  }
}

}  // namespace hetsched::apps
