// NOC daemon: runs the NOC's interval step (dist/noc_step.hpp) over a TCP
// server inside the shared daemon shell (net/daemon_shell.hpp). Listens for
// the monitors (or regional NOCs), runs the step for each interval with the
// shell's wait loop as its await policy (a child that redials mid-pull is
// asked for its sketch again), and releases the children into the next
// interval with a kAdvance frame — the flow control that keeps the
// multi-process run in the simulation's lock-step, and therefore
// bit-identical to it.
//
// Restart story: the NOC snapshots its model (Noc::save_state, 'SPCN') on
// the checkpoint cadence and always at shutdown. A restarted NOC restores
// the newest snapshot whose flow count and model backend match the
// configuration and resumes at its interval; the monitors re-send the
// report the dead incarnation never saw once their link is back.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "net/daemon_shell.hpp"
#include "net/tcp_transport.hpp"

namespace spca {

/// NOC daemon configuration (the shared fields are in DaemonConfig).
struct NocDaemonConfig : DaemonConfig {
  /// Hierarchical deployment: number of regional NOCs between the monitors
  /// and this root. 0 = flat (monitors dial the root directly). When > 0
  /// the root's children are the region nodes: phase traffic arrives as
  /// kAggregate messages (dist/aggregate.hpp) and kAdvance goes to the
  /// regions, which relay it to their shards. The detection trajectory is
  /// bit-identical either way.
  std::size_t regions = 0;
  /// Listen endpoint (port 0 picks an ephemeral port, see bound_port()).
  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;
  /// How long to wait for a missing monitor (report or sketch response)
  /// before giving up on the run. Generous by default: a killed monitor
  /// needs time to restart, rebuild, and reconnect.
  std::chrono::milliseconds interval_deadline{60000};
};

/// The NOC process body (also runnable on a thread in tests).
class NocDaemon final {
 public:
  explicit NocDaemon(NocDaemonConfig config);
  ~NocDaemon() { transport_.stop(); }

  /// Binds the listener and starts accepting monitors; must be called
  /// before run() (split out so tests can learn the ephemeral port first).
  void start();

  /// The bound listen port (valid after start()).
  [[nodiscard]] std::uint16_t bound_port() const noexcept {
    return transport_.listen_port();
  }

  /// Runs the deployment to completion (or until request_stop()) and
  /// returns the trajectory. When resuming from a checkpoint, the returned
  /// distances/alarms cover only the intervals this incarnation processed.
  /// Throws TransportError if a monitor stays away longer than the interval
  /// deadline.
  ScenarioRun run();

  /// Asks a running daemon to wind down at the next poll slice.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  /// Connection re-establishments observed so far (valid after start()).
  [[nodiscard]] std::uint64_t reconnects() const noexcept {
    return transport_.reconnects();
  }

  /// True iff the last run() actually resumed from a checkpoint snapshot
  /// (instead of starting the protocol from interval 0).
  [[nodiscard]] bool restored_from_checkpoint() const noexcept {
    return restored_.load(std::memory_order_relaxed);
  }

 private:
  NocDaemonConfig config_;
  TcpTransport transport_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> restored_{false};
  bool started_ = false;
};

}  // namespace spca
