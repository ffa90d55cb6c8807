#include "apps/blackscholes.hpp"

#include <cmath>

#include "common/rng.hpp"

namespace hetsched::apps {

namespace {

constexpr double kRiskFree = 0.02;
constexpr double kVolatility = 0.30;

/// Cumulative normal distribution via the complementary error function.
double cnd(double d) { return 0.5 * std::erfc(-d / std::sqrt(2.0)); }

std::pair<double, double> black_scholes(double s, double x, double t) {
  const double sqrt_t = std::sqrt(t);
  const double d1 =
      (std::log(s / x) + (kRiskFree + 0.5 * kVolatility * kVolatility) * t) /
      (kVolatility * sqrt_t);
  const double d2 = d1 - kVolatility * sqrt_t;
  const double expiry = x * std::exp(-kRiskFree * t);
  const double call = s * cnd(d1) - expiry * cnd(d2);
  const double put = expiry * cnd(-d2) - s * cnd(-d1);
  return {call, put};
}

analyzer::AppDescriptor make_descriptor() {
  analyzer::AppDescriptor descriptor;
  descriptor.name = "BlackScholes";
  descriptor.structure = analyzer::KernelGraph::single("black_scholes");
  descriptor.sync = analyzer::SyncReason::kNone;
  return descriptor;
}

}  // namespace

BlackScholesApp::BlackScholesApp(const hw::PlatformSpec& platform,
                                 Config config)
    : Application(platform, config, make_descriptor(),
                  /*sync_each_iteration=*/false) {
  HS_REQUIRE(config.iterations == 1,
             "BlackScholes is a one-shot application");
  const std::int64_t array_bytes = config_.items * 4;
  price_ = executor_->register_buffer("price", array_bytes);
  strike_ = executor_->register_buffer("strike", array_bytes);
  years_ = executor_->register_buffer("years", array_bytes);
  call_ = executor_->register_buffer("call", array_bytes);
  put_ = executor_->register_buffer("put", array_bytes);

  if (config_.functional) reset_data();

  hw::KernelTraits traits;
  traits.name = "black_scholes";
  // ~80 flops per option counting the transcendental expansions.
  traits.flops_per_item = 80.0;
  traits.device_bytes_per_item = 12.0;
  // Scalar CPU code with exp/log/sqrt sustains a few percent of peak; the
  // SDK OpenCL kernel roughly a quarter.
  traits.cpu_compute_efficiency = 0.042;
  traits.gpu_compute_efficiency = 0.25;
  traits.cpu_memory_efficiency = 0.80;
  traits.gpu_memory_efficiency = 0.90;

  rt::KernelDef def;
  def.name = "black_scholes";
  def.traits = traits;
  const mem::BufferId price = price_, strike = strike_, years = years_,
                      call = call_, put = put_;
  def.accesses = [price, strike, years, call, put](
                     std::int64_t begin, std::int64_t end,
                     std::vector<mem::RegionAccess>& out) {
    const Interval range{begin * 4, end * 4};
    out.insert(out.end(), {
        {{price, range}, mem::AccessMode::kRead},
        {{strike, range}, mem::AccessMode::kRead},
        {{years, range}, mem::AccessMode::kRead},
        {{call, range}, mem::AccessMode::kWrite},
        {{put, range}, mem::AccessMode::kWrite},
    });
  };
  if (config_.functional) {
    def.body = [this](std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i) {
        const auto [c, p] = black_scholes(host_price_[i], host_strike_[i],
                                          host_years_[i]);
        host_call_[i] = static_cast<float>(c);
        host_put_[i] = static_cast<float>(p);
      }
    };
  }
  set_kernels({executor_->register_kernel(std::move(def))});
}

void BlackScholesApp::reset_data() {
  if (!config_.functional) return;
  Rng rng(80530632);
  const auto n = static_cast<std::size_t>(config_.items);
  host_price_.resize(n);
  host_strike_.resize(n);
  host_years_.resize(n);
  host_call_.assign(n, 0.0f);
  host_put_.assign(n, 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    host_price_[i] = static_cast<float>(rng.uniform(5.0, 30.0));
    host_strike_[i] = static_cast<float>(rng.uniform(1.0, 100.0));
    host_years_[i] = static_cast<float>(rng.uniform(0.25, 10.0));
  }
}

std::pair<double, double> BlackScholesApp::reference_price(
    std::int64_t i) const {
  return black_scholes(host_price_[i], host_strike_[i], host_years_[i]);
}

void BlackScholesApp::verify() const {
  if (!config_.functional) return;
  for (std::int64_t i = 0; i < config_.items; ++i) {
    const auto [call, put] = reference_price(i);
    check_close(host_call_[i], call, 1e-4, "call[" + std::to_string(i) + "]");
    check_close(host_put_[i], put, 1e-4, "put[" + std::to_string(i) + "]");
  }
}

}  // namespace hetsched::apps
