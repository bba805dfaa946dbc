// Monitor daemon: wraps a LocalMonitor in a TCP event loop inside the
// shared daemon shell (net/daemon_shell.hpp). Dials the NOC (with
// retry/backoff), replays its share of the scenario trace, answers sketch
// pulls from the shell's wait loop, and advances intervals in lock-step
// with the NOC's kAdvance frames — which keeps the multi-process trajectory
// bit-identical to the synchronous simulation. When its link comes back
// after a NOC restart, it re-sends the current report.
//
// Restart story, in order of preference:
//   * checkpoint_dir holds a snapshot and first_interval == kAutoInterval:
//     the monitor restores its full sketch state from the snapshot and
//     resumes at the snapshot's interval — no replay at all (the clean
//     SIGTERM/EOF path, which always writes a final snapshot).
//   * checkpoint_dir holds a snapshot and first_interval is explicit (a
//     crash kill: the operator knows where the NOC is waiting): restore the
//     snapshot, then absorb only the short tail [snapshot, first_interval)
//     locally instead of replaying the whole history. A snapshot ahead of
//     first_interval is ignored.
//   * no usable snapshot (none, another monitor's or deployment's, or one
//     past the scenario's end): absorb [0, first_interval) from scratch.
// In every case the NOC has already accounted the skipped intervals, so the
// joint trajectory continues bit-identically.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "net/daemon_shell.hpp"
#include "net/socket.hpp"
#include "net/tcp_transport.hpp"

namespace spca {

/// first_interval sentinel: resume from the latest valid snapshot in
/// checkpoint_dir, or 0 when there is none.
inline constexpr std::int64_t kAutoInterval = -1;

/// Monitor daemon configuration (the shared fields are in DaemonConfig).
struct MonitorDaemonConfig : DaemonConfig {
  /// This monitor's NodeId (1..scenario.monitors).
  NodeId monitor_id = 1;
  /// Upstream endpoint to dial: the root NOC in the flat deployment, or
  /// this monitor's regional NOC in the hierarchical one.
  std::string noc_host = "127.0.0.1";
  std::uint16_t noc_port = 0;
  /// NodeId of that upstream (kNocId, or a region_node_id). Reports and
  /// sketch responses are addressed to it.
  NodeId upstream_id = kNocId;
  /// First interval to report (earlier intervals come from the snapshot
  /// and/or local absorption). kAutoInterval resumes from the checkpoint.
  std::int64_t first_interval = 0;
  RetryPolicy retry{};
  /// Stream the monitor's interval volumes from this flow-record file
  /// (binary or CSV, see ingest/record_file.hpp) instead of the scenario's
  /// synthetic trace. The file must carry the scenario's full flow count and
  /// interval count; a file exported from the scenario trace reproduces the
  /// synthetic trajectory bit-identically. Empty = use the scenario trace.
  std::string ingest_records{};
  /// Write a snapshot at shutdown (SIGTERM/EOF/last_interval). Chaos tests
  /// disable this to model a crash kill that only leaves periodic snapshots.
  bool final_checkpoint = true;
  /// Fault-injection hook: runs right after kAdvance(t) was received — a
  /// protocol-quiet point where a connection reset cannot lose in-flight
  /// frames (fault/chaos uses it to flap the NOC link deterministically).
  std::function<void(std::int64_t, TcpTransport&)> after_advance{};
};

/// What a finished run did.
struct MonitorDaemonResult {
  /// Intervals reported over the wire (excludes absorbed ones).
  std::int64_t intervals_reported = 0;
  /// Connection re-establishments observed by the transport.
  std::uint64_t reconnects = 0;
  /// Send-side wire accounting of this monitor.
  NetworkStats stats;
  /// True when the sketch state came from a checkpoint snapshot.
  bool restored_from_checkpoint = false;
  /// Intervals absorbed locally before joining (tail after a restore, or
  /// the full prefix without one).
  std::int64_t intervals_absorbed = 0;
  /// First interval reported over the wire.
  std::int64_t start_interval = 0;
  /// Path of the shutdown snapshot ("" when checkpointing is off).
  std::string final_checkpoint_path;
};

/// The monitor process body (also runnable on a thread in tests).
class MonitorDaemon final {
 public:
  explicit MonitorDaemon(MonitorDaemonConfig config)
      : config_(std::move(config)) {}

  /// Runs to completion (or until request_stop()); returns the run summary.
  /// Throws TransportError if the NOC stays unreachable past the retry
  /// budget or an established connection times out.
  MonitorDaemonResult run();

  /// Asks a running daemon to wind down at the next poll slice.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

 private:
  MonitorDaemonConfig config_;
  std::atomic<bool> stop_{false};
};

}  // namespace spca
