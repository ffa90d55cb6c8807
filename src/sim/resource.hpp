#pragma once

#include <string>

#include "common/error.hpp"
#include "common/time.hpp"

/// FIFO-serialized virtual resources (an execution lane, a PCIe link, ...).
///
/// A Resource models a server that processes one request at a time in
/// reservation order. Callers reserve capacity analytically: `reserve(now,
/// duration)` answers "if I hand this resource a job of `duration` at time
/// `now`, when does it start and finish?" and commits the reservation. This
/// reservation style fits an event-driven runtime: the dispatcher reserves
/// the device and schedules a completion event at the returned finish time.
///
/// The resource is only a reservation clock: it remembers when it is next
/// free and nothing else. What ran on it, and for how long, is the run's
/// TraceRecorder's to record (sim::analyze_trace aggregates it).
namespace hetsched::sim {

struct BusySpan {
  SimTime start = 0;
  SimTime end = 0;
};

class Resource {
 public:
  explicit Resource(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Earliest time a request arriving at `now` could begin service.
  SimTime earliest_start(SimTime now) const {
    return available_at_ > now ? available_at_ : now;
  }

  /// Commits a reservation of `duration` arriving at `now`.
  /// Returns the span actually occupied. `duration` may be zero.
  BusySpan reserve(SimTime now, SimTime duration);

  /// Time this resource becomes free given all committed reservations.
  SimTime available_at() const { return available_at_; }

 private:
  std::string name_;
  SimTime available_at_ = 0;
};

}  // namespace hetsched::sim
