// The process shell the three daemon roles share — spca_nocd (NocStep),
// spca_monitord (LocalMonitor) and spca_regiond (RegionalNoc) — written once
// as plain types the daemons call directly: DaemonConfig and its flag
// readers; DaemonShell, one per run() (the wrapped transport, the status
// endpoint, snapshot restore, the checkpoint cadence and shutdown snapshot,
// the per-interval flight-recorder capture, and the wait loop); and
// daemon_main, the binaries' main.
//
// One restore rule for every role: a snapshot that fails to decode, fails
// the role's identity checks, or names an interval past the scenario's end
// is ignored with a warning, and the daemon starts fresh.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/checkpoint_store.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "net/scenario.hpp"
#include "net/socket.hpp"
#include "net/tcp_transport.hpp"
#include "obs/status_server.hpp"

namespace spca {

/// The config fields every daemon role shares.
struct DaemonConfig {
  NetScenarioConfig scenario;
  /// Durable snapshot directory; empty disables checkpointing.
  std::string checkpoint_dir;
  /// Snapshot cadence in intervals (0 = shutdown snapshot only).
  std::int64_t checkpoint_every = 0;
  /// Run intervals < last_interval only (-1 = the whole scenario); used to
  /// stop an incarnation cleanly mid-run in the chaos and restart tests.
  std::int64_t last_interval = -1;
  /// Fault-injection hook: wraps the TCP transport for all Message-level
  /// traffic; control frames stay on the raw transport. Keeps net/ ignorant
  /// of fault/.
  std::function<std::unique_ptr<Transport>(Transport&)> wrap_transport;
  /// Live status endpoint (obs/status_server.hpp); -1 disables, 0 binds an
  /// ephemeral port reported via on_status_port. Polled from the wait
  /// slices, so a slow scraper can never stall the protocol.
  int status_port = -1;
  std::string status_host = "127.0.0.1";
  std::function<void(int)> on_status_port;
  /// Read/write deadline on established connections.
  std::chrono::milliseconds io_timeout{15000};
};

/// The dial retry policy of --connect-attempts, --connect-timeout-ms,
/// --backoff-initial-ms and --backoff-max-ms; InputError unless positive.
[[nodiscard]] RetryPolicy retry_policy_from_flags(const CliFlags& flags);
/// --io-timeout-ms; InputError unless positive.
[[nodiscard]] std::chrono::milliseconds io_timeout_from_flags(
    const CliFlags& flags);
/// Reads the shared flags daemon_main defines into `config`.
void read_daemon_flags(const CliFlags& flags, DaemonConfig& config);

/// The shell of one daemon run. `node` names the checkpoint files and the
/// flight-recorder entries ("noc", "monitor3"), `log_name` the log lines
/// ("nocd", "monitord 3"); `stop` is the daemon's request_stop() flag,
/// which SIGTERM and SIGINT set in a daemon_main binary.
class DaemonShell final {
 public:
  static constexpr std::chrono::milliseconds kWaitSlice{100};

  DaemonShell(const DaemonConfig& config, const std::string& node,
              std::string log_name, std::atomic<bool>& stop);
  ~DaemonShell();

  /// Brings up the status endpoint; `fields` appends the role's members to
  /// the /healthz body.
  void serve(std::string role, std::function<std::string()> fields);

  /// Restores the newest snapshot: `accept` decodes it, checks that it is
  /// the role's (throwing an Error to refuse) and only then keeps the
  /// state. Returns the snapshot's interval, or nullopt to start fresh.
  std::optional<std::int64_t> restore(
      const std::function<void(const CheckpointSnapshot&)>& accept);

  /// Wraps `transport` with the config's hook and returns the bus the
  /// protocol runs on; the wait loop watches `transport`'s reconnects.
  Transport& attach(TcpTransport& transport);

  /// One-past-last interval: last_interval capped at the scenario length.
  [[nodiscard]] std::int64_t end() const;

  /// Sets the /healthz interval to t and polls the status endpoint.
  void enter(std::int64_t t);

  /// Interval t is decided: the flight-recorder capture, the /healthz
  /// interval moves to t + 1, and a snapshot of payload() is written at
  /// seq = t + 1 when seq % checkpoint_every == 0 (payload() runs only then).
  template <typename Payload>
  void finish_interval(std::int64_t t, Payload&& payload) {
    if (finish(t)) (void)write(t + 1, payload(), /*shutdown=*/false);
  }

  /// Writes the shutdown snapshot of payload() at `seq`; returns its path,
  /// "" when checkpointing is off.
  template <typename Payload>
  std::string shutdown_snapshot(std::int64_t seq, Payload&& payload) {
    return store_ ? write(seq, payload(), /*shutdown=*/true) : std::string();
  }

  /// Waits until `ready()` (true) or a stop request (false). Each pass
  /// blocks in `wait_slice(kWaitSlice)`, which returns false on an idle
  /// slice; idle slices past `deadline` throw TransportError naming `what`.
  /// `on_reconnect()` runs when the attached transport redialed.
  template <typename Ready, typename WaitSlice, typename OnReconnect>
  bool wait(Ready&& ready, WaitSlice&& wait_slice,
            std::chrono::milliseconds deadline, const char* what,
            OnReconnect&& on_reconnect) {
    auto waited = std::chrono::milliseconds(0);
    std::uint64_t seen = transport_->reconnects();
    while (!ready()) {
      if (stopping()) return false;
      if (!wait_slice(kWaitSlice)) {
        waited += kWaitSlice;
        if (waited >= deadline) {
          throw TransportError(log_name_ + ": timed out waiting for " + what);
        }
      }
      if (transport_->reconnects() != seen) {
        seen = transport_->reconnects();
        on_reconnect();
      }
      poll();
    }
    return true;
  }

  /// Serves the status endpoint and flight-dump requests once.
  void poll();
  bool stopping() const { return stop_.load(std::memory_order_relaxed); }
  bool checkpointing() const { return store_.has_value(); }
  std::int64_t interval() const { return interval_.load(); }

 private:
  bool finish(std::int64_t t);
  std::string write(std::int64_t seq, const std::vector<std::byte>& payload,
                    bool shutdown);

  const DaemonConfig& config_;
  std::string node_;
  std::string log_name_;
  std::atomic<bool>& stop_;
  std::optional<CheckpointStore> store_;
  std::optional<DaemonTelemetry> telemetry_;
  std::unique_ptr<Transport> wrapped_;
  TcpTransport* transport_ = nullptr;
  std::atomic<std::int64_t> interval_{-1};
};

/// The main of a daemon binary: defines the shared flag groups (daemon,
/// transport, scenario, threads, observability) after the role's own,
/// parses argv, configures threads and observability, routes SIGTERM and
/// SIGINT to the running shell, calls `run` (read the flags, run the
/// daemon, print its summary), exports observability and returns `check()`
/// (0 when empty). A fatal error is printed as "<program>: <what>", noted
/// as `fatal_error` and dumped from the flight recorder; exit code 1.
int daemon_main(int argc, char** argv, CliFlags& flags,
                const std::string& program, const std::function<void()>& run,
                const std::function<int()>& check = {});

}  // namespace spca
