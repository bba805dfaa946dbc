// Chaos harness: runs a full deployment (NOC + monitors) through a scripted
// fault schedule and checks the invariant the whole subsystem exists to
// uphold — the faulted trajectory is bit-identical to the fault-free
// SimNetwork reference.
//
// Two modes:
//
//   sim  -> the synchronous single-process deployment over a FaultyTransport
//           wrapping SimNetwork. Exercises the message faults (drop /
//           corrupt / dup / reorder) and their recovery machinery without
//           sockets or threads. Kill/reset events need daemons and are
//           rejected here.
//
//   tcp  -> the real daemons on loopback TCP, one thread per process body.
//           Every endpoint's Message traffic runs through its own
//           FaultyTransport; scheduled connection resets flap a monitor's
//           NOC link at a protocol-quiet point; scheduled kills stop a
//           monitor daemon mid-run and restart a fresh incarnation from its
//           durable checkpoint (clean kill: restore the shutdown snapshot;
//           crash kill: restore the last periodic snapshot and absorb the
//           tail locally).
//
// The harness is deterministic end to end: same config -> same faults ->
// same trajectory, which is what lets CI assert `match` on seeded
// schedules.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "fault/fault_plan.hpp"
#include "fault/faulty_transport.hpp"
#include "net/scenario.hpp"
#include "net/socket.hpp"

namespace spca {

/// One chaos experiment.
struct ChaosConfig {
  NetScenarioConfig scenario;
  FaultPlanConfig faults;
  /// false = single-process SimNetwork mode; true = loopback TCP daemons.
  bool tcp = false;
  /// Regional NOCs between the monitors and the root (tcp mode; 0 = flat).
  /// In hierarchical mode kill events may target the regiond tier (spec
  /// form "kill=r<idx>@T"): the regional daemon winds down after relaying
  /// intervals < T and a fresh incarnation resumes from its SPCR snapshot
  /// on the same port, with the shard's monitors redialing transparently.
  /// Message faults wrap only the monitor endpoints here — an aggregate
  /// carries both protocol phases on one message type, so the flat-mode
  /// receive-side dedup key is not unique on the region -> root hop.
  std::size_t regions = 0;
  /// Durable snapshot directory (tcp mode; required when kills are
  /// scheduled). Should be empty or stale-free: leftover snapshots from
  /// another deployment are detected and skipped, but cost a warning.
  std::string checkpoint_dir;
  /// Periodic snapshot cadence in intervals (tcp mode).
  std::int64_t checkpoint_every = 6;
  /// true = kills leave no shutdown snapshot (as a SIGKILL would), so the
  /// restarted monitor restores the last periodic snapshot and absorbs the
  /// tail; false = clean kills whose shutdown snapshot resumes exactly.
  bool crash_kills = false;
  /// Dial/backoff policy of the monitor daemons (tcp mode).
  RetryPolicy retry;
  std::chrono::milliseconds io_timeout{20000};
  std::chrono::milliseconds interval_deadline{60000};
};

/// What the experiment did and whether the invariant held.
struct ChaosResult {
  /// Fault-free SimNetwork trajectory.
  ScenarioRun reference;
  /// Trajectory of the faulted deployment.
  ScenarioRun run;
  /// True iff run and reference agree bit-for-bit (distances and alarms).
  bool match = false;
  /// Message faults injected (and recovered from) across all endpoints.
  FaultInjectionStats faults;
  /// Node-level events performed.
  std::uint64_t kills = 0;
  std::uint64_t resets = 0;
  /// Monitor-side connection re-establishments (covers the resets).
  std::uint64_t monitor_reconnects = 0;
  /// True iff every killed monitor's second incarnation actually restored
  /// a checkpoint snapshot (instead of falling back to a full rebuild).
  bool restored_from_checkpoint = true;
};

/// Runs the experiment. Throws InputError on an infeasible config (kill or
/// reset events aimed at unknown monitors or out-of-range intervals, kills
/// without a checkpoint_dir, node events in sim mode) and TransportError if
/// the faulted deployment wedges past its deadlines.
[[nodiscard]] ChaosResult run_chaos(const ChaosConfig& config);

}  // namespace spca
