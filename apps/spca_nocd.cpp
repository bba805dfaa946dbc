// NOC daemon binary: listens for spca_monitord processes, runs the
// deployment scenario to completion, and prints the trajectory summary.
//
// A loopback deployment (1 NOC + 2 monitors, all on 127.0.0.1):
//
//   ./spca_nocd --port=47000 --monitors=2 &
//   ./spca_monitord --port=47000 --monitor-id=1 &
//   ./spca_monitord --port=47000 --monitor-id=2
//
// With --check-against-sim the daemon additionally replays the same
// scenario over the in-process SimNetwork and exits non-zero unless the TCP
// run produced bit-identical distances and alarms — the CI loopback gate.
#include <iostream>

#include "common/cli.hpp"
#include "net/daemon_shell.hpp"
#include "net/noc_daemon.hpp"

int main(int argc, char** argv) {
  using namespace spca;
  CliFlags flags("spca_nocd: NOC daemon of the TCP deployment");
  flags.define("listen", "127.0.0.1", "listen address (numeric IPv4)");
  flags.define("port", "47000", "listen port (0 = ephemeral)");
  flags.define("interval-deadline-ms", "60000",
               "max wait for a missing monitor per interval");
  flags.define("regions", "0",
               "regional NOCs between the monitors and this root (0 = flat "
               "deployment; >0 expects spca_regiond children)");
  flags.define("check-against-sim", "false",
               "verify the trajectory against a SimNetwork replay");
  NocDaemonConfig config;
  ScenarioRun run;
  const auto serve = [&] {
    read_daemon_flags(flags, config);
    config.listen_host = flags.str("listen");
    config.listen_port = static_cast<std::uint16_t>(flags.integer("port"));
    config.regions = static_cast<std::size_t>(flags.integer("regions"));
    config.interval_deadline =
        std::chrono::milliseconds(flags.integer("interval-deadline-ms"));
    NocDaemon daemon(config);
    daemon.start();
    run = daemon.run();
    std::cout << "nocd: " << run.distances.size() << " detections, "
              << run.alarm_intervals.size() << " alarms, "
              << run.stats.bytes << " bytes sent, " << daemon.reconnects()
              << " reconnects\n";
    for (const std::int64_t t : run.alarm_intervals) {
      std::cout << "alarm interval " << t << "\n";
    }
    for (const std::int64_t t : run.fused_alarm_intervals) {
      std::cout << "fused alarm interval " << t << "\n";
    }
  };
  // Runs after the metrics export, so the reference replay's own metrics
  // stay out of the daemon's report.
  const auto check = [&] {
    if (!flags.boolean("check-against-sim")) return 0;
    const ScenarioRun reference =
        run_scenario_reference(build_scenario(config.scenario));
    if (!trajectories_match(run, reference)) {
      std::cerr << "spca_nocd: TCP trajectory diverged from the "
                   "SimNetwork reference ("
                << run.alarm_intervals.size() << " vs "
                << reference.alarm_intervals.size() << " alarms, "
                << run.fused_alarm_intervals.size() << " vs "
                << reference.fused_alarm_intervals.size()
                << " fused alarms)\n";
      return 2;
    }
    std::cout << "nocd: trajectory is bit-identical to the SimNetwork "
                 "reference\n";
    return 0;
  };
  return daemon_main(argc, argv, flags, "spca_nocd", serve, check);
}
