#pragma once

#include <string_view>

/// Central registry of serve-path and profiler metric names.
///
/// Every metric the daemon registers is declared here (one `kMetric*`
/// constant per name) so the server, the bench, the tests, and the docs
/// agree on spelling. The `lint.metric_names` ctest
/// (tools/check_metric_names.cmake) parses this file and enforces:
///   - snake_case names ([a-z][a-z0-9_]*)
///   - no duplicates
///   - every name documented in docs/observability.md
namespace hetsched::obs {

// --- serve request flow ---
inline constexpr std::string_view kMetricServeRequests = "serve_requests_total";
inline constexpr std::string_view kMetricServeResponses =
    "serve_responses_total";
inline constexpr std::string_view kMetricServeRequestLatencyMs =
    "serve_request_latency_ms";
inline constexpr std::string_view kMetricServeQueueWaitMs =
    "serve_queue_wait_ms";
inline constexpr std::string_view kMetricServeBadFrames =
    "serve_bad_frames_total";
inline constexpr std::string_view kMetricServeHttpRequests =
    "serve_http_requests_total";

// --- admission queue ---
inline constexpr std::string_view kMetricServeQueueDepth = "serve_queue_depth";
inline constexpr std::string_view kMetricServeQueueCapacity =
    "serve_queue_capacity";
inline constexpr std::string_view kMetricServeQueueMaxDepth =
    "serve_queue_max_depth";
inline constexpr std::string_view kMetricServeQueueRejected =
    "serve_queue_rejected";

// --- shard cache ---
inline constexpr std::string_view kMetricServeCacheHits =
    "serve_cache_hits_total";
inline constexpr std::string_view kMetricServeCacheMisses =
    "serve_cache_misses_total";
inline constexpr std::string_view kMetricServeCacheDiskHits =
    "serve_cache_disk_hits_total";
inline constexpr std::string_view kMetricServeCacheFlushed =
    "serve_cache_flushed_total";
inline constexpr std::string_view kMetricServeCacheEntries =
    "serve_cache_entries";
inline constexpr std::string_view kMetricServeCacheShards =
    "serve_cache_shards";

// --- tracing ---
inline constexpr std::string_view kMetricServeTracesPublished =
    "serve_traces_published_total";
inline constexpr std::string_view kMetricServeTraceInvalid =
    "serve_trace_invalid_total";

// --- workers ---
inline constexpr std::string_view kMetricServeWorkers = "serve_workers";

// --- phase profiler exposition (gauge families, labeled by stage) ---
inline constexpr std::string_view kMetricPhaseTotalMs = "phase_total_ms";
inline constexpr std::string_view kMetricPhaseSelfMs = "phase_self_ms";
inline constexpr std::string_view kMetricPhaseMaxMs = "phase_max_ms";
inline constexpr std::string_view kMetricPhaseCalls = "phase_calls_total";

}  // namespace hetsched::obs
