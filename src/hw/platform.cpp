#include "hw/platform.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "common/strings.hpp"

namespace hetsched::hw {

const char* device_class_name(DeviceClass cls) {
  switch (cls) {
    case DeviceClass::kCpu: return "cpu";
    case DeviceClass::kGpu: return "gpu";
    case DeviceClass::kAccelerator: return "accelerator";
  }
  return "unknown";
}

void DeviceSpec::validate() const {
  HS_REQUIRE(!name.empty(), "DeviceSpec needs a name");
  HS_REQUIRE(cores >= 1, name << ": cores=" << cores);
  HS_REQUIRE(lanes >= 1, name << ": lanes=" << lanes);
  HS_REQUIRE(frequency_ghz > 0.0, name << ": frequency=" << frequency_ghz);
  HS_REQUIRE(peak_sp_gflops > 0.0, name << ": peak_sp=" << peak_sp_gflops);
  HS_REQUIRE(peak_dp_gflops > 0.0, name << ": peak_dp=" << peak_dp_gflops);
  HS_REQUIRE(mem_bandwidth_gbs > 0.0,
             name << ": mem_bandwidth=" << mem_bandwidth_gbs);
  HS_REQUIRE(mem_capacity_gb > 0.0,
             name << ": mem_capacity=" << mem_capacity_gb);
  HS_REQUIRE(partition_granularity >= 1,
             name << ": partition_granularity=" << partition_granularity);
  HS_REQUIRE(launch_overhead >= 0,
             name << ": launch_overhead=" << launch_overhead);
}

void LinkSpec::validate() const {
  HS_REQUIRE(bandwidth_gbs > 0.0, name << ": bandwidth=" << bandwidth_gbs);
  HS_REQUIRE(latency >= 0, name << ": latency=" << latency);
}

std::vector<DeviceSpec> PlatformSpec::all_devices() const {
  std::vector<DeviceSpec> devices;
  devices.reserve(1 + accelerators.size());
  devices.push_back(cpu);
  devices.insert(devices.end(), accelerators.begin(), accelerators.end());
  return devices;
}

void PlatformSpec::validate() const {
  HS_REQUIRE(!name.empty(), "PlatformSpec needs a name");
  HS_REQUIRE(cpu.cls == DeviceClass::kCpu,
             name << ": device 0 must be the host CPU");
  cpu.validate();
  for (const auto& acc : accelerators) {
    HS_REQUIRE(acc.cls != DeviceClass::kCpu,
               name << ": accelerator '" << acc.name
                    << "' must not be a CPU");
    acc.validate();
  }
  link.validate();
}

namespace {

DeviceSpec make_xeon_e5_2620() {
  DeviceSpec cpu;
  cpu.name = "Intel Xeon E5-2620";
  cpu.cls = DeviceClass::kCpu;
  cpu.cores = 6;
  cpu.lanes = 12;  // Hyper-Threading enabled, as in the paper.
  cpu.frequency_ghz = 2.0;
  cpu.peak_sp_gflops = 384.0;
  cpu.peak_dp_gflops = 192.0;
  cpu.mem_bandwidth_gbs = 42.6;
  cpu.mem_capacity_gb = 64.0;
  cpu.partition_granularity = 1;
  cpu.launch_overhead = 2 * kMicrosecond;  // task-instance spawn cost
  return cpu;
}

DeviceSpec make_tesla_k20m() {
  DeviceSpec gpu;
  gpu.name = "Nvidia Tesla K20m";
  gpu.cls = DeviceClass::kGpu;
  gpu.cores = 13;  // SMX count
  gpu.lanes = 1;   // one in-order command queue
  gpu.frequency_ghz = 0.705;
  gpu.peak_sp_gflops = 3519.3;
  gpu.peak_dp_gflops = 1173.1;
  gpu.mem_bandwidth_gbs = 208.0;
  gpu.mem_capacity_gb = 5.0;
  gpu.partition_granularity = 32;  // warp size (paper footnote 5)
  gpu.launch_overhead = 15 * kMicrosecond;  // OpenCL kernel invocation
  return gpu;
}

}  // namespace

PlatformSpec make_reference_platform() {
  PlatformSpec platform;
  platform.name = "xeon-e5-2620 + tesla-k20m";
  platform.cpu = make_xeon_e5_2620();
  platform.accelerators.push_back(make_tesla_k20m());
  platform.link = LinkSpec{"pcie-gen2-x16", 6.0, 10 * kMicrosecond};
  platform.validate();
  return platform;
}

PlatformSpec make_reference_platform_with_link(double bandwidth_gbs) {
  PlatformSpec platform = make_reference_platform();
  platform.link.bandwidth_gbs = bandwidth_gbs;
  platform.name += " @ " + std::to_string(bandwidth_gbs) + " GB/s link";
  platform.validate();
  return platform;
}

PlatformSpec make_small_gpu_platform() {
  PlatformSpec platform;
  platform.name = "xeon-e5-2620 + small-gpu";
  platform.cpu = make_xeon_e5_2620();
  DeviceSpec gpu;
  gpu.name = "small-gpu";
  gpu.cls = DeviceClass::kGpu;
  gpu.cores = 2;
  gpu.lanes = 1;
  gpu.frequency_ghz = 0.9;
  gpu.peak_sp_gflops = 384.0;
  gpu.peak_dp_gflops = 16.0;
  gpu.mem_bandwidth_gbs = 28.5;
  gpu.mem_capacity_gb = 2.0;
  gpu.partition_granularity = 32;
  gpu.launch_overhead = 15 * kMicrosecond;
  platform.accelerators.push_back(gpu);
  platform.link = LinkSpec{"pcie-gen2-x8", 3.0, 10 * kMicrosecond};
  platform.validate();
  return platform;
}

PlatformSpec make_dual_gpu_platform() {
  PlatformSpec platform;
  platform.name = "xeon-e5-2620 + 2x tesla-k20m";
  platform.cpu = make_xeon_e5_2620();
  DeviceSpec gpu = make_tesla_k20m();
  platform.accelerators.push_back(gpu);
  gpu.name = "Nvidia Tesla K20m #2";
  platform.accelerators.push_back(gpu);
  platform.link = LinkSpec{"pcie-gen2-x16", 6.0, 10 * kMicrosecond};
  platform.validate();
  return platform;
}

PlatformSpec make_cpu_gpu_phi_platform() {
  PlatformSpec platform;
  platform.name = "xeon-e5-2620 + tesla-k20m + xeon-phi-5110p";
  platform.cpu = make_xeon_e5_2620();
  platform.accelerators.push_back(make_tesla_k20m());
  DeviceSpec phi;
  phi.name = "Intel Xeon Phi 5110P";
  phi.cls = DeviceClass::kAccelerator;
  phi.cores = 60;
  phi.lanes = 1;  // offload model: one in-order command stream
  phi.frequency_ghz = 1.053;
  phi.peak_sp_gflops = 2022.0;
  phi.peak_dp_gflops = 1011.0;
  phi.mem_bandwidth_gbs = 320.0;
  phi.mem_capacity_gb = 8.0;
  phi.partition_granularity = 16;  // SIMD width
  phi.launch_overhead = 25 * kMicrosecond;
  platform.accelerators.push_back(phi);
  platform.link = LinkSpec{"pcie-gen2-x16", 6.0, 10 * kMicrosecond};
  platform.validate();
  return platform;
}

PlatformSpec make_big_little_platform() {
  PlatformSpec platform;
  platform.name = "big.LITTLE (4 big + 4 little)";
  DeviceSpec big;
  big.name = "big cluster (4x OoO)";
  big.cls = DeviceClass::kCpu;
  big.cores = 4;
  big.lanes = 4;
  big.frequency_ghz = 1.9;
  big.peak_sp_gflops = 60.8;  // 4 cores x 1.9 GHz x 8 SP FLOPs/cycle
  big.peak_dp_gflops = 30.4;
  big.mem_bandwidth_gbs = 14.9;
  big.mem_capacity_gb = 4.0;
  big.partition_granularity = 1;
  big.launch_overhead = 2 * kMicrosecond;
  platform.cpu = big;

  // The LITTLE cluster is modeled as an accelerator-class device: the
  // runtime offloads slabs to it like to any other accelerator, but the
  // coherent fabric makes its "transfers" nearly free — the asymmetric-CPU
  // limit of the partitioning problem.
  DeviceSpec little;
  little.name = "LITTLE cluster (4x in-order)";
  little.cls = DeviceClass::kAccelerator;
  little.cores = 4;
  little.lanes = 1;  // offload model: one command stream into the cluster
  little.frequency_ghz = 1.3;
  little.peak_sp_gflops = 20.8;  // 4 cores x 1.3 GHz x 4 SP FLOPs/cycle
  little.peak_dp_gflops = 10.4;
  little.mem_bandwidth_gbs = 14.9;  // shared DRAM with the big cluster
  little.mem_capacity_gb = 4.0;
  little.partition_granularity = 1;
  little.launch_overhead = 1 * kMicrosecond;
  platform.accelerators.push_back(little);
  // Cache-coherent interconnect: DRAM-class bandwidth, sub-microsecond
  // latency — transfers exist but almost never bind.
  platform.link = LinkSpec{"coherent-fabric", 12.0, kMicrosecond / 2};
  platform.validate();
  return platform;
}

PlatformSpec make_quad_platform() {
  PlatformSpec platform = make_dual_gpu_platform();
  platform.name = "xeon-e5-2620 + 2x tesla-k20m + xeon-phi-5110p";
  platform.accelerators.push_back(
      make_cpu_gpu_phi_platform().accelerators[1]);
  platform.validate();
  return platform;
}

PlatformSpec make_synthetic_platform(std::uint64_t seed) {
  Rng rng(seed);
  PlatformSpec platform;
  platform.name = "synth-" + std::to_string(seed);
  platform.cpu = make_xeon_e5_2620();

  const auto log_uniform = [&rng](double lo, double hi) {
    return lo * std::pow(hi / lo, rng.uniform());
  };
  const std::int64_t accelerator_count = rng.uniform_int(1, 3);
  for (std::int64_t a = 0; a < accelerator_count; ++a) {
    DeviceSpec acc;
    acc.name = "synth-acc-" + std::to_string(a);
    acc.cls = rng.uniform() < 0.7 ? DeviceClass::kGpu
                                  : DeviceClass::kAccelerator;
    acc.cores = static_cast<int>(rng.uniform_int(2, 64));
    acc.lanes = 1;
    acc.frequency_ghz = rng.uniform(0.5, 2.5);
    // Asymmetric throughput draws: two accelerators on the same platform
    // can differ by more than an order of magnitude.
    acc.peak_sp_gflops = log_uniform(100.0, 4000.0);
    acc.peak_dp_gflops = acc.peak_sp_gflops / rng.uniform(2.0, 4.0);
    acc.mem_bandwidth_gbs = log_uniform(20.0, 320.0);
    acc.mem_capacity_gb = rng.uniform(1.0, 16.0);
    static constexpr int kGranularities[4] = {1, 16, 32, 64};
    acc.partition_granularity = kGranularities[rng.uniform_int(0, 3)];
    acc.launch_overhead =
        static_cast<SimTime>(rng.uniform_int(5, 50)) * kMicrosecond;
    platform.accelerators.push_back(std::move(acc));
  }
  platform.link = LinkSpec{"synth-link", log_uniform(1.0, 16.0),
                           static_cast<SimTime>(rng.uniform_int(5, 20)) *
                               kMicrosecond};
  platform.validate();
  return platform;
}

PlatformSpec make_cpu_only_platform() {
  PlatformSpec platform;
  platform.name = "xeon-e5-2620 only";
  platform.cpu = make_xeon_e5_2620();
  platform.link = LinkSpec{};
  platform.validate();
  return platform;
}

PlatformSpec platform_by_name(const std::string& name) {
  if (name.empty() || name == "reference") return make_reference_platform();
  if (name == "small-gpu") return make_small_gpu_platform();
  if (name == "dual-gpu") return make_dual_gpu_platform();
  if (name == "cpu-gpu-phi") return make_cpu_gpu_phi_platform();
  if (name == "cpu-only") return make_cpu_only_platform();
  if (name == "big-little") return make_big_little_platform();
  if (name == "quad") return make_quad_platform();
  if (name.rfind("synth-", 0) == 0) {
    const std::string digits = name.substr(6);
    HS_REQUIRE(!digits.empty() &&
                   digits.find_first_not_of("0123456789") == std::string::npos,
               "synthetic platform '" << name
                                      << "': expected synth-<decimal seed>");
    return make_synthetic_platform(std::stoull(digits));
  }
  throw InvalidArgument("unknown platform '" + name + "' (" +
                        join(platform_names(), ", ") + ", synth-<seed>)");
}

const std::vector<std::string>& platform_names() {
  static const std::vector<std::string> kNames = {
      "reference", "small-gpu", "dual-gpu",  "cpu-gpu-phi",
      "cpu-only",  "big-little", "quad"};
  return kNames;
}

}  // namespace hetsched::hw
