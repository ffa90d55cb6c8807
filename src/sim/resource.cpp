#include "sim/resource.hpp"

namespace hetsched::sim {

BusySpan Resource::reserve(SimTime now, SimTime duration) {
  HS_REQUIRE(now >= 0, "reserve at negative time " << now);
  HS_REQUIRE(duration >= 0, "reserve with negative duration " << duration);
  const SimTime start = earliest_start(now);
  available_at_ = start + duration;
  return BusySpan{start, available_at_};
}

}  // namespace hetsched::sim
