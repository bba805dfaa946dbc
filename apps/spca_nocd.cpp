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
#include <csignal>
#include <iostream>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "net/net_flags.hpp"
#include "net/noc_daemon.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/report.hpp"
#include "par/thread_pool.hpp"

namespace {

spca::NocDaemon* g_daemon = nullptr;

void handle_signal(int) {
  if (g_daemon != nullptr) g_daemon->request_stop();
}

}  // namespace

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
  define_daemon_flags(flags);
  define_transport_flags(flags);
  define_scenario_flags(flags);
  define_threads_flag(flags);
  define_observability_flags(flags);
  try {
    if (!flags.parse(argc, argv)) return 0;
    (void)configure_threads_from_flag(flags);
    configure_observability(flags);

    NocDaemonConfig config;
    config.scenario = scenario_from_flags(flags);
    config.listen_host = flags.str("listen");
    config.listen_port = static_cast<std::uint16_t>(flags.integer("port"));
    config.regions = static_cast<std::size_t>(flags.integer("regions"));
    config.interval_deadline =
        std::chrono::milliseconds(flags.integer("interval-deadline-ms"));
    config.io_timeout = io_timeout_from_flags(flags);
    read_daemon_flags(flags, config);
    NocDaemon daemon(config);
    g_daemon = &daemon;
    (void)std::signal(SIGTERM, handle_signal);
    (void)std::signal(SIGINT, handle_signal);

    daemon.start();
    const ScenarioRun run = daemon.run();
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
    export_observability(flags);

    if (flags.boolean("check-against-sim")) {
      const NetScenario scenario = build_scenario(config.scenario);
      const ScenarioRun reference = run_scenario_reference(scenario);
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
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "spca_nocd: " << e.what() << "\n";
    FlightRecorder::global().note("fatal_error", -1, e.what());
    (void)FlightRecorder::global().dump("error");
    return 1;
  }
}
