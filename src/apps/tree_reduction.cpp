#include "apps/tree_reduction.hpp"

#include "common/rng.hpp"

namespace hetsched::apps {

namespace {

analyzer::AppDescriptor make_descriptor(int passes) {
  analyzer::AppDescriptor descriptor;
  descriptor.name = "TreeReduction";
  std::vector<std::string> names;
  for (int k = 0; k < passes; ++k)
    names.push_back("reduce_pass_" + std::to_string(k));
  descriptor.structure = analyzer::KernelGraph::sequence(std::move(names));
  // Partial sums produced on different processors are reassembled for the
  // next pass (paper Section III-C, SP-Varied case (2)).
  descriptor.sync = analyzer::SyncReason::kRepartitioning;
  return descriptor;
}

}  // namespace

int TreeReductionApp::pass_count(std::int64_t items) {
  int passes = 0;
  while (items > 1) {
    items = (items + kBranching - 1) / kBranching;
    ++passes;
  }
  return std::max(passes, 1);
}

TreeReductionApp::TreeReductionApp(const hw::PlatformSpec& platform,
                                   Config config)
    : Application(platform, config,
                  make_descriptor(pass_count(config.items)),
                  /*sync_each_iteration=*/false) {
  HS_REQUIRE(config.iterations == 1, "TreeReduction is one-shot");
  const int passes = pass_count(config_.items);

  // Level sizes: level 0 is the input; level k+1 = ceil(level_k / B).
  std::vector<std::int64_t> level_sizes{config_.items};
  for (int k = 0; k < passes; ++k) {
    level_sizes.push_back((level_sizes.back() + kBranching - 1) / kBranching);
    pass_outputs_.push_back(level_sizes.back());
  }
  for (std::size_t level = 0; level < level_sizes.size(); ++level) {
    levels_.push_back(executor_->register_buffer(
        "level" + std::to_string(level),
        std::max<std::int64_t>(1, level_sizes[level]) * 4));
  }

  if (config_.functional) reset_data();

  std::vector<rt::KernelId> kernels;
  for (int k = 0; k < passes; ++k) {
    hw::KernelTraits traits;
    traits.name = "reduce_pass_" + std::to_string(k);
    // One output item folds kBranching inputs: ~B flops, B*4 bytes read.
    traits.flops_per_item = static_cast<double>(kBranching);
    traits.device_bytes_per_item = static_cast<double>(kBranching) * 4.0 + 4.0;
    traits.cpu_compute_efficiency = 0.30;
    traits.gpu_compute_efficiency = 0.40;
    traits.cpu_memory_efficiency = 0.70;
    traits.gpu_memory_efficiency = 0.85;

    rt::KernelDef def;
    def.name = traits.name;
    def.traits = traits;
    const mem::BufferId src = levels_[static_cast<std::size_t>(k)];
    const mem::BufferId dst = levels_[static_cast<std::size_t>(k) + 1];
    const std::int64_t src_size = level_sizes[static_cast<std::size_t>(k)];
    def.accesses = [src, dst, src_size](std::int64_t begin, std::int64_t end,
                                        std::vector<mem::RegionAccess>& out) {
      const std::int64_t src_begin = begin * kBranching;
      const std::int64_t src_end = std::min(src_size, end * kBranching);
      out.insert(out.end(), {
          {{src, {src_begin * 4, src_end * 4}}, mem::AccessMode::kRead},
          {{dst, {begin * 4, end * 4}}, mem::AccessMode::kWrite},
      });
    };
    if (config_.functional) {
      const std::size_t level = static_cast<std::size_t>(k);
      def.body = [this, level, src_size](std::int64_t begin,
                                         std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          float sum = 0.0f;
          const std::int64_t lo = i * kBranching;
          const std::int64_t hi = std::min(src_size, lo + kBranching);
          for (std::int64_t j = lo; j < hi; ++j)
            sum += host_levels_[level][static_cast<std::size_t>(j)];
          host_levels_[level + 1][static_cast<std::size_t>(i)] = sum;
        }
      };
    }
    kernels.push_back(executor_->register_kernel(std::move(def)));
  }
  set_kernels(std::move(kernels));
}

void TreeReductionApp::reset_data() {
  if (!config_.functional) return;
  Rng rng(4242);
  host_levels_.clear();
  std::int64_t size = config_.items;
  host_levels_.emplace_back(static_cast<std::size_t>(size));
  for (auto& x : host_levels_[0])
    x = static_cast<float>(rng.uniform(0.0, 1.0));
  initial_input_ = host_levels_[0];
  for (std::int64_t out : pass_outputs_)
    host_levels_.emplace_back(static_cast<std::size_t>(std::max<std::int64_t>(
                                  1, out)),
                              0.0f);
}

void TreeReductionApp::verify() const {
  if (!config_.functional) return;
  double expected = 0.0;
  for (float x : initial_input_) expected += x;
  // The final level holds the grand total; float tree summation of uniform
  // positives is accurate to ~1e-5 relative at these sizes.
  check_close(host_levels_.back()[0], expected, 1e-4, "grand total");
}

}  // namespace hetsched::apps
