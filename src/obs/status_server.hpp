// Embedded live-status endpoint: a deliberately tiny single-threaded
// HTTP/1.0 server the daemons poll from their existing wait loops, serving
//
//   GET /metrics.json  — MetricsRegistry::render_json()
//   GET /metrics       — Prometheus text exposition (render_prometheus())
//   GET /healthz       — 200/503 from the owner's health callback + JSON body
//   GET /spans         — SpanLog::global() as JSONL
//
// Everything is non-blocking: `poll()` sweeps accept/read/write once and
// returns immediately, so a daemon can call it every wait slice without
// ever stalling the detection protocol. Connections are short-lived
// (HTTP/1.0, connection: close) and bounded in number, size, and lifetime,
// so a slow or hostile scraper cannot pin memory or descriptors.
//
// obs sits just above common in the layering — net/ is far above it — so
// this server speaks raw POSIX sockets instead of reusing net/socket.hpp.
// Processes whose main thread blocks (spca_chaos, spca_replay) can instead
// run `serve_in_background()`, which drives poll() from a helper thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace spca {

struct StatusServerConfig {
  /// Bind address; loopback by default so telemetry is not exposed beyond
  /// the host unless explicitly requested.
  std::string host = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral port (see `port()`).
  int port = 0;
  /// 200 vs 503 for /healthz; defaults to always-healthy.
  std::function<bool()> healthy;
  /// JSON body for /healthz; defaults to {"healthy":<bool>}.
  std::function<std::string()> health_body;
  /// Request-head cap; a head that grows past this is answered 431.
  std::size_t max_request_bytes = 4096;
  /// Concurrent-connection cap; accepts beyond it are closed immediately.
  std::size_t max_connections = 32;
  /// Per-connection lifetime cap from accept to close.
  std::chrono::milliseconds connection_deadline{2000};
};

class StatusServer final {
 public:
  /// Binds and listens immediately; throws InputError if the address
  /// cannot be bound.
  explicit StatusServer(StatusServerConfig config);
  StatusServer(const StatusServer&) = delete;
  StatusServer& operator=(const StatusServer&) = delete;
  ~StatusServer();

  /// The bound TCP port (resolves port 0 to the kernel's choice).
  [[nodiscard]] int port() const noexcept { return port_; }

  /// One non-blocking sweep: accept new connections, progress reads and
  /// writes, close finished/expired connections. Never blocks.
  void poll();

  /// Runs poll() on a helper thread every `slice` until destruction or
  /// `stop_background()`, for processes whose main thread blocks.
  void serve_in_background(
      std::chrono::milliseconds slice = std::chrono::milliseconds(20));
  void stop_background();

  /// Connections currently open (excludes the listener); for tests.
  [[nodiscard]] std::size_t open_connections() const noexcept {
    return connections_.size();
  }

 private:
  struct Connection {
    int fd = -1;
    std::string request;
    std::string response;
    std::size_t sent = 0;
    bool responded = false;
    std::chrono::steady_clock::time_point deadline;
  };

  void accept_pending();
  /// Returns false when the connection should be closed.
  [[nodiscard]] bool progress(Connection& conn);
  void respond(Connection& conn);
  [[nodiscard]] std::string route(const std::string& method,
                                  const std::string& path, int& http_status);
  void close_connection(Connection& conn) noexcept;

  StatusServerConfig config_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::vector<Connection> connections_;

  std::thread background_;
  std::atomic<bool> stop_{false};
};

/// The live telemetry of one daemon, brought up the same way by every
/// role: the status endpoint (none for a negative `port`; 0 binds an
/// ephemeral port, reported through `on_port`) plus the flight recorder's
/// pending dump requests, both served by poll() from the daemon's wait
/// slices. /healthz turns 503 once `stopping` is set and answers
/// {"healthy":<bool>,"role":"<role>"<fields()>} and a newline, where
/// `fields` renders the role's own ,"key":value pairs from state that is
/// safe to read while the daemon runs.
class DaemonTelemetry final {
 public:
  DaemonTelemetry(int port, const std::string& host,
                  const std::function<void(int)>& on_port,
                  const std::atomic<bool>& stopping, std::string role,
                  std::function<std::string()> fields,
                  const std::string& log_name);

  /// One non-blocking sweep of the endpoint and the dump requests.
  void poll();

 private:
  std::optional<StatusServer> server_;
};

}  // namespace spca
