#include "apps/stream.hpp"

#include "common/rng.hpp"

namespace hetsched::apps {

namespace {

analyzer::AppDescriptor make_descriptor(int iterations) {
  analyzer::AppDescriptor descriptor;
  descriptor.name = iterations > 1 ? "STREAM-Loop" : "STREAM-Seq";
  descriptor.structure = analyzer::KernelGraph::sequence(
      {"copy", "scale", "add", "triad"}, /*main_loop=*/iterations > 1);
  // STREAM needs no synchronization between kernels; the paper adds it
  // manually as a separate scenario (Section IV-B3).
  descriptor.sync = analyzer::SyncReason::kNone;
  return descriptor;
}

}  // namespace

StreamApp::StreamApp(const hw::PlatformSpec& platform, Config config)
    : Application(platform, config, make_descriptor(config.iterations),
                  /*sync_each_iteration=*/false) {
  const std::int64_t array_bytes = config_.items * 4;
  a_ = executor_->register_buffer("a", array_bytes);
  b_ = executor_->register_buffer("b", array_bytes);
  c_ = executor_->register_buffer("c", array_bytes);

  if (config_.functional) reset_data();

  auto copy_body = [this](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) host_c_[i] = host_a_[i];
  };
  auto scale_body = [this](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i)
      host_b_[i] = kScalar * host_c_[i];
  };
  auto add_body = [this](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i)
      host_c_[i] = host_a_[i] + host_b_[i];
  };
  auto triad_body = [this](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i)
      host_a_[i] = host_b_[i] + kScalar * host_c_[i];
  };

  using mem::AccessMode;
  std::vector<rt::KernelId> kernels;
  kernels.push_back(register_stream_kernel(
      "copy", 0.0, 8.0, {{a_, AccessMode::kRead}, {c_, AccessMode::kWrite}},
      config_.functional ? rt::KernelBody(copy_body) : nullptr));
  kernels.push_back(register_stream_kernel(
      "scale", 1.0, 8.0, {{c_, AccessMode::kRead}, {b_, AccessMode::kWrite}},
      config_.functional ? rt::KernelBody(scale_body) : nullptr));
  kernels.push_back(register_stream_kernel(
      "add", 1.0, 12.0,
      {{a_, AccessMode::kRead},
       {b_, AccessMode::kRead},
       {c_, AccessMode::kWrite}},
      config_.functional ? rt::KernelBody(add_body) : nullptr));
  kernels.push_back(register_stream_kernel(
      "triad", 2.0, 12.0,
      {{b_, AccessMode::kRead},
       {c_, AccessMode::kRead},
       {a_, AccessMode::kWrite}},
      config_.functional ? rt::KernelBody(triad_body) : nullptr));
  set_kernels(std::move(kernels));
}

rt::KernelId StreamApp::register_stream_kernel(
    const std::string& name, double flops, double bytes,
    std::vector<std::pair<mem::BufferId, mem::AccessMode>> buffers,
    rt::KernelBody body) {
  hw::KernelTraits traits;
  traits.name = name;
  traits.flops_per_item = flops;
  traits.device_bytes_per_item = bytes;
  // Pure bandwidth kernels: STREAM sustains ~60% of the paper CPU's
  // datasheet bandwidth with 12 HT threads and ~85% of GDDR5 on the K20.
  traits.cpu_compute_efficiency = 0.50;
  traits.gpu_compute_efficiency = 0.50;
  traits.cpu_memory_efficiency = 0.60;
  traits.gpu_memory_efficiency = 0.85;

  rt::KernelDef def;
  def.name = name;
  def.traits = traits;
  def.body = std::move(body);
  def.accesses = [buffers](std::int64_t begin, std::int64_t end,
                           std::vector<mem::RegionAccess>& out) {
    for (const auto& [buffer, mode] : buffers)
      out.push_back({{buffer, {begin * 4, end * 4}}, mode});
  };
  return executor_->register_kernel(std::move(def));
}

void StreamApp::reset_data() {
  if (!config_.functional) return;
  Rng rng(62914560);
  const auto n = static_cast<std::size_t>(config_.items);
  host_a_.resize(n);
  host_b_.assign(n, 0.0f);
  host_c_.assign(n, 0.0f);
  for (auto& x : host_a_) x = static_cast<float>(rng.uniform(1.0, 2.0));
  initial_a_ = host_a_;
}

void StreamApp::verify() const {
  if (!config_.functional) return;
  // Sequential reference of the same kernel sequence and iteration count.
  std::vector<float> a = initial_a_;
  std::vector<float> b(a.size(), 0.0f);
  std::vector<float> c(a.size(), 0.0f);
  for (int iteration = 0; iteration < config_.iterations; ++iteration) {
    for (std::size_t i = 0; i < a.size(); ++i) c[i] = a[i];
    for (std::size_t i = 0; i < a.size(); ++i) b[i] = kScalar * c[i];
    for (std::size_t i = 0; i < a.size(); ++i) c[i] = a[i] + b[i];
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = b[i] + kScalar * c[i];
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    check_close(host_a_[i], a[i], 1e-3, "a[" + std::to_string(i) + "]");
    check_close(host_b_[i], b[i], 1e-3, "b[" + std::to_string(i) + "]");
    check_close(host_c_[i], c[i], 1e-3, "c[" + std::to_string(i) + "]");
  }
}

}  // namespace hetsched::apps
