#include "glinda/profile.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hetsched::glinda {

std::pair<std::int64_t, std::int64_t> Profiler::sample_sizes(
    std::int64_t total_items) const {
  HS_REQUIRE(total_items > 0, "profiling a workload of " << total_items);
  std::int64_t small = std::max<std::int64_t>(
      options_.min_sample_items,
      static_cast<std::int64_t>(static_cast<double>(total_items) *
                                options_.small_fraction));
  std::int64_t large = std::max<std::int64_t>(
      2 * small,
      static_cast<std::int64_t>(static_cast<double>(total_items) *
                                options_.large_fraction));
  small = std::min(small, total_items);
  large = std::min(large, total_items);
  if (large <= small) {
    // Degenerate tiny workload: fall back to halves.
    small = std::max<std::int64_t>(1, total_items / 2);
    large = total_items;
  }
  HS_REQUIRE(large > small,
             "cannot derive two distinct sample sizes from " << total_items);
  return {small, large};
}

Profiler::RawSample Profiler::run_sample(rt::Executor& executor,
                                         const SampleProgramFactory& factory,
                                         hw::DeviceId device,
                                         std::int64_t items) const {
  const rt::Program program = factory(device, 0, items);
  HS_REQUIRE(program.task_count() > 0,
             "sample program factory produced no tasks");
  const rt::ExecutionReport report = executor.execute_pinned(program);

  RawSample sample;
  sample.items = items;
  const rt::DeviceReport& dr = report.devices[device];
  HS_ASSERT_MSG(dr.instances > 0, "sampled device executed nothing");
  // Whole-device wall compute: lane-time sum divided by lane count (lanes
  // run concurrently; profiling programs keep them balanced).
  sample.compute_wall_seconds =
      to_seconds(dr.compute_time) / static_cast<double>(dr.lanes);
  sample.h2d_bytes = static_cast<double>(report.transfers.h2d_bytes);
  sample.d2h_bytes = static_cast<double>(report.transfers.d2h_bytes);
  sample.transfer_seconds = to_seconds(report.transfers.total_time());
  return sample;
}

DeviceProfile Profiler::profile_device(rt::Executor& executor,
                                       const SampleProgramFactory& factory,
                                       hw::DeviceId device,
                                       std::int64_t total_items) const {
  const auto [small, large] = sample_sizes(total_items);
  const RawSample s1 = run_sample(executor, factory, device, small);
  const RawSample s2 = run_sample(executor, factory, device, large);
  const double di = static_cast<double>(s2.items - s1.items);

  DeviceProfile profile;
  profile.seconds_per_item =
      (s2.compute_wall_seconds - s1.compute_wall_seconds) / di;
  HS_ASSERT_MSG(profile.seconds_per_item > 0.0,
                "non-increasing compute time over sample sizes "
                    << s1.items << " -> " << s2.items);
  profile.fixed_seconds = std::max(
      0.0, s1.compute_wall_seconds -
               profile.seconds_per_item * static_cast<double>(s1.items));
  profile.h2d_bytes_per_item = std::max(0.0, (s2.h2d_bytes - s1.h2d_bytes) / di);
  profile.d2h_bytes_per_item = std::max(0.0, (s2.d2h_bytes - s1.d2h_bytes) / di);
  profile.h2d_fixed_bytes =
      std::max(0.0, s1.h2d_bytes - profile.h2d_bytes_per_item *
                                       static_cast<double>(s1.items));
  profile.d2h_fixed_bytes =
      std::max(0.0, s1.d2h_bytes - profile.d2h_bytes_per_item *
                                       static_cast<double>(s1.items));
  const double dbytes =
      (s2.h2d_bytes + s2.d2h_bytes) - (s1.h2d_bytes + s1.d2h_bytes);
  const double dseconds = s2.transfer_seconds - s1.transfer_seconds;
  if (dbytes > 0.0 && dseconds > 0.0)
    profile.link_bytes_per_second = dbytes / dseconds;
  return profile;
}

}  // namespace hetsched::glinda
