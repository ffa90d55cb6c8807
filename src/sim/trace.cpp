#include "sim/trace.hpp"

#include <algorithm>
#include <sstream>

#include "common/json.hpp"

namespace hetsched::sim {

const char* trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kCompute: return "compute";
    case TraceKind::kTransferH2D: return "h2d";
    case TraceKind::kTransferD2H: return "d2h";
    case TraceKind::kOverhead: return "overhead";
    case TraceKind::kSync: return "sync";
    case TraceKind::kFault: return "fault";
    case TraceKind::kRecovery: return "recovery";
  }
  return "unknown";
}

SimTime TraceRecorder::makespan() const {
  SimTime latest = 0;
  for (const auto& event : events_) latest = std::max(latest, event.end);
  return latest;
}

std::string TraceRecorder::to_chrome_json() const {
  return to_chrome_json({});
}

std::string TraceRecorder::to_chrome_json(
    const std::vector<std::string>& extra_event_objects) const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& event : events_) {
    if (!first) os << ",";
    first = false;
    // Chrome traces use microseconds; "X" = complete event with duration.
    os << "{\"name\":\"" << json::escape(event.label) << "\",\"cat\":\""
       << trace_kind_name(event.kind) << "\",\"ph\":\"X\",\"ts\":"
       << to_micros(event.start) << ",\"dur\":"
       << to_micros(event.end - event.start)
       << ",\"pid\":1,\"tid\":\"" << json::escape(event.lane) << "\"}";
  }
  for (const auto& object : extra_event_objects) {
    if (!first) os << ",";
    first = false;
    os << object;
  }
  os << "]}";
  return os.str();
}

}  // namespace hetsched::sim
