// Chaos harness binary: runs a deployment through a scripted fault schedule
// and exits non-zero unless the faulted trajectory is bit-identical to the
// fault-free SimNetwork reference — the CI gate of the fault-recovery
// subsystem (DESIGN.md §11).
//
//   # message faults only, single process:
//   ./spca_chaos --faults=drop=0.2,dup=0.1,reorder=0.2,corrupt=0.1,seed=3
//
//   # real TCP daemons, with a monitor killed at interval 18 and restarted
//   # from its durable checkpoint:
//   ./spca_chaos --mode=tcp --checkpoint-dir=/tmp/spca-ckpt
//       --faults=drop=0.05,kill=1@18,reset=2@9,seed=3
//
//   # 2-level hierarchy with regional NOC 0 killed mid-run and restarted
//   # from its SPCR snapshot:
//   ./spca_chaos --mode=tcp --regions=2 --monitors=4
//       --checkpoint-dir=/tmp/spca-ckpt --faults=kill=r0@18,seed=3
#include <iostream>
#include <optional>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "fault/chaos.hpp"
#include "net/daemon_shell.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/report.hpp"
#include "obs/status_server.hpp"
#include "par/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace spca;
  CliFlags flags("spca_chaos: fault-injection harness with a bit-exact "
                 "trajectory gate");
  flags.define("mode", "sim",
               "sim = FaultyTransport over the in-process SimNetwork; tcp = "
               "real daemons on loopback TCP (enables kill/reset events)");
  flags.define("faults", "",
               "fault schedule: drop=P,dup=P,reorder=P,corrupt=P,"
               "kill=NODE@T,reset=NODE@T,seed=N (P in [0,0.9]; kill/reset "
               "repeatable; empty = no faults)");
  flags.define("regions", "0",
               "regional NOCs between the monitors and the root (tcp mode; "
               "0 = flat; enables kill=r<idx>@T events)");
  flags.define("checkpoint-dir", "",
               "durable snapshot directory for the monitors (tcp mode; "
               "required when kills are scheduled)");
  flags.define("checkpoint-every", "6",
               "periodic snapshot cadence in intervals (tcp mode)");
  flags.define("crash-kills", "false",
               "kills skip the shutdown snapshot (as SIGKILL would), so the "
               "restart restores a periodic snapshot and absorbs the tail");
  flags.define("interval-deadline-ms", "60000",
               "NOC-side max wait for a missing monitor per interval");
  flags.define("status-port", "-1",
               "serve /metrics, /metrics.json, /healthz, /spans on this "
               "port while the schedule runs (-1 = off, 0 = ephemeral)");
  define_transport_flags(flags);
  define_scenario_flags(flags);
  define_threads_flag(flags);
  define_observability_flags(flags);
  try {
    if (!flags.parse(argc, argv)) return 0;
    (void)configure_threads_from_flag(flags);
    configure_observability(flags);
    // The harness's main thread blocks inside run_chaos, so the status
    // endpoint (when requested) polls from a helper thread instead of a
    // daemon wait loop.
    std::optional<StatusServer> status;
    if (flags.integer("status-port") >= 0) {
      StatusServerConfig scfg;
      scfg.port = static_cast<int>(flags.integer("status-port"));
      status.emplace(std::move(scfg));
      status->serve_in_background();
      std::cout << "chaos: status endpoint on 127.0.0.1:" << status->port()
                << "\n";
    }

    ChaosConfig config;
    config.scenario = scenario_from_flags(flags);
    config.faults = parse_fault_spec(flags.str("faults"));
    const std::string mode = flags.str("mode");
    if (mode != "sim" && mode != "tcp") {
      throw InputError("--mode must be 'sim' or 'tcp', got '" + mode + "'");
    }
    config.tcp = mode == "tcp";
    config.regions = static_cast<std::size_t>(flags.integer("regions"));
    config.checkpoint_dir = flags.str("checkpoint-dir");
    config.checkpoint_every = flags.integer("checkpoint-every");
    config.crash_kills = flags.boolean("crash-kills");
    config.interval_deadline =
        std::chrono::milliseconds(flags.integer("interval-deadline-ms"));
    config.retry = retry_policy_from_flags(flags);
    config.io_timeout = io_timeout_from_flags(flags);

    std::cout << "chaos: mode=" << mode << " schedule "
              << to_string(config.faults) << "\n";
    const ChaosResult result = run_chaos(config);
    std::cout << "chaos: injected " << result.faults.drops << " drops, "
              << result.faults.corruptions << " corruptions, "
              << result.faults.duplicates << " dups, "
              << result.faults.reorders << " reorders ("
              << result.faults.retransmits << " retransmits, "
              << result.faults.deduplicated << " deduplicated), "
              << result.kills << " kills, " << result.resets << " resets, "
              << result.monitor_reconnects << " monitor reconnects\n";
    export_observability(flags);
    if (!result.match) {
      std::cerr << "spca_chaos: trajectory DIVERGED from the fault-free "
                   "reference ("
                << result.run.alarm_intervals.size() << " vs "
                << result.reference.alarm_intervals.size() << " alarms, "
                << result.run.distances.size() << " vs "
                << result.reference.distances.size() << " detections)\n";
      FlightRecorder::global().note("divergence");
      (void)FlightRecorder::global().dump("divergence");
      return 2;
    }
    if (result.kills > 0 && !result.restored_from_checkpoint) {
      std::cerr << "spca_chaos: a restarted monitor fell back to a full "
                   "rebuild instead of restoring its checkpoint\n";
      return 3;
    }
    std::cout << "chaos: trajectory is bit-identical to the fault-free "
                 "reference\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "spca_chaos: " << e.what() << "\n";
    FlightRecorder::global().note("fatal_error", -1, e.what());
    (void)FlightRecorder::global().dump("error");
    return 1;
  }
}
