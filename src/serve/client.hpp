#pragma once

#include <string>

#include "serve/protocol.hpp"

/// Client side of the matchmaker daemon protocol, used by the
/// `hetsched_cli query` verb, the fuzz serve oracle, the loopback tests,
/// and hsbench's serve-zipf workload.
namespace hetsched::serve {

/// One TCP connection to a serve daemon. Frames are sent/received with the
/// same protocol.hpp encoders the daemon uses.
class QueryClient {
 public:
  /// Connects to host:port. Retries briefly (for the daemon-still-binding
  /// startup race), then throws hetsched::Error when the daemon is
  /// unreachable.
  QueryClient(const std::string& host, int port, int connect_retries = 50);
  ~QueryClient();

  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;

  /// One round-trip: writes `request` as a frame, reads one response frame.
  /// Throws hetsched::Error when the connection drops mid-exchange.
  QueryResponse ask(const QueryRequest& request);

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

/// Convenience: connect, ask once, disconnect.
QueryResponse query_once(const std::string& host, int port,
                         const QueryRequest& request);

/// Minimal HTTP GET against the daemon's scrape endpoint.
struct HttpResult {
  int status_code = 0;
  std::string body;
};
HttpResult http_get(const std::string& host, int port,
                    const std::string& path);

}  // namespace hetsched::serve
