#include "obs/status_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/span_log.hpp"

namespace spca {

namespace {

[[nodiscard]] std::string http_response(int status, const char* reason,
                                        const char* content_type,
                                        const std::string& body) {
  std::ostringstream oss;
  oss << "HTTP/1.0 " << status << ' ' << reason << "\r\n"
      << "Content-Type: " << content_type << "\r\n"
      << "Content-Length: " << body.size() << "\r\n"
      << "Connection: close\r\n\r\n"
      << body;
  return oss.str();
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

StatusServer::StatusServer(StatusServerConfig config)
    : config_(std::move(config)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw InputError("status server: socket() failed: " +
                     std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw InputError("status server: invalid bind address '" + config_.host +
                     "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw InputError("status server: cannot listen on " + config_.host + ":" +
                     std::to_string(config_.port) + ": " + detail);
  }
  set_nonblocking(listen_fd_);

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  }
}

StatusServer::~StatusServer() {
  stop_background();
  for (Connection& conn : connections_) close_connection(conn);
  connections_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void StatusServer::serve_in_background(std::chrono::milliseconds slice) {
  if (background_.joinable()) return;
  stop_.store(false, std::memory_order_relaxed);
  background_ = std::thread([this, slice] {
    while (!stop_.load(std::memory_order_relaxed)) {
      poll();
      std::this_thread::sleep_for(slice);
    }
  });
}

void StatusServer::stop_background() {
  if (!background_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  background_.join();
}

void StatusServer::poll() {
  accept_pending();
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < connections_.size();) {
    Connection& conn = connections_[i];
    const bool alive = now < conn.deadline && progress(conn);
    if (alive) {
      ++i;
      continue;
    }
    close_connection(conn);
    connections_[i] = std::move(connections_.back());
    connections_.pop_back();
  }
}

void StatusServer::accept_pending() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN (no pending) or transient error
    if (connections_.size() >= config_.max_connections) {
      ::close(fd);
      continue;
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Connection conn;
    conn.fd = fd;
    conn.deadline =
        std::chrono::steady_clock::now() + config_.connection_deadline;
    connections_.push_back(std::move(conn));
  }
}

bool StatusServer::progress(Connection& conn) {
  if (!conn.responded) {
    char buf[1024];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn.request.append(buf, static_cast<std::size_t>(n));
        if (conn.request.size() > config_.max_request_bytes) {
          MetricsRegistry::global().counter("spca.status.http_errors").inc();
          conn.response = http_response(431, "Request Header Fields Too Large",
                                        "text/plain", "request too large\n");
          conn.responded = true;
          break;
        }
        continue;
      }
      if (n == 0) return false;  // peer closed before a full request head
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    if (!conn.responded) {
      if (conn.request.find("\r\n\r\n") == std::string::npos &&
          conn.request.find('\n') == std::string::npos) {
        return true;  // request head still incomplete
      }
      respond(conn);
    }
  }
  while (conn.sent < conn.response.size()) {
    const ssize_t n = ::send(conn.fd, conn.response.data() + conn.sent,
                             conn.response.size() - conn.sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn.sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
  return false;  // fully sent -> close
}

void StatusServer::respond(Connection& conn) {
  MetricsRegistry::global().counter("spca.status.requests").inc();
  std::istringstream request_line(
      conn.request.substr(0, conn.request.find('\n')));
  std::string method;
  std::string path;
  request_line >> method >> path;
  int status = 200;
  const std::string body = route(method, path, status);
  if (status != 200) {
    MetricsRegistry::global().counter("spca.status.http_errors").inc();
  }
  const char* reason = status == 200   ? "OK"
                       : status == 404 ? "Not Found"
                       : status == 405 ? "Method Not Allowed"
                                       : "Service Unavailable";
  const bool json = path == "/metrics.json" || path == "/healthz";
  const char* content_type = json             ? "application/json"
                             : status != 200  ? "text/plain"
                                              : "text/plain; version=0.0.4";
  conn.response = http_response(status, reason, content_type, body);
  if (method == "HEAD") {
    conn.response.resize(conn.response.find("\r\n\r\n") + 4);
  }
  conn.responded = true;
}

std::string StatusServer::route(const std::string& method,
                                const std::string& path, int& http_status) {
  if (method != "GET" && method != "HEAD") {
    http_status = 405;
    return "only GET is supported\n";
  }
  if (path == "/metrics.json") {
    return MetricsRegistry::global().render_json() + "\n";
  }
  if (path == "/metrics") {
    return MetricsRegistry::global().render_prometheus();
  }
  if (path == "/spans") {
    return SpanLog::global().to_jsonl();
  }
  if (path == "/healthz") {
    const bool ok = !config_.healthy || config_.healthy();
    http_status = ok ? 200 : 503;
    if (config_.health_body) return config_.health_body();
    return std::string("{\"healthy\":") + (ok ? "true" : "false") + "}\n";
  }
  http_status = 404;
  return "unknown path; try /metrics.json /metrics /healthz /spans\n";
}

void StatusServer::close_connection(Connection& conn) noexcept {
  if (conn.fd >= 0) ::close(conn.fd);
  conn.fd = -1;
}

DaemonTelemetry::DaemonTelemetry(int port, const std::string& host,
                                 const std::function<void(int)>& on_port,
                                 const std::atomic<bool>& stopping,
                                 std::string role,
                                 std::function<std::string()> fields,
                                 const std::string& log_name) {
  if (port < 0) return;
  StatusServerConfig config;
  config.host = host;
  config.port = port;
  config.healthy = [&stopping] {
    return !stopping.load(std::memory_order_relaxed);
  };
  config.health_body = [&stopping, role = std::move(role),
                        fields = std::move(fields)] {
    return std::string("{\"healthy\":") +
           (stopping.load(std::memory_order_relaxed) ? "false" : "true") +
           ",\"role\":\"" + role + "\"" + fields() + "}\n";
  };
  server_.emplace(std::move(config));
  if (on_port) on_port(server_->port());
  log_info(log_name, ": status endpoint on ", host, ":", server_->port());
}

void DaemonTelemetry::poll() {
  if (server_) server_->poll();
  (void)FlightRecorder::global().poll_dump_request();
}

}  // namespace spca
