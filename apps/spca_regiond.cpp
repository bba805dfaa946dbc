// Regional NOC daemon binary: the middle tier of the hierarchical
// deployment. Listens for its shard of spca_monitord processes, dials the
// root spca_nocd, and relays merged aggregates up / sketch requests and
// advances down.
//
// A 2-level loopback deployment (1 root + 2 regions + 4 monitors):
//
//   ./spca_nocd --port=47000 --monitors=4 --regions=2 &
//   ./spca_regiond --port=47100 --root-port=47000 --monitors=4 \
//       --regions=2 --region=0 &
//   ./spca_regiond --port=47101 --root-port=47000 --monitors=4 \
//       --regions=2 --region=1 &
//   ./spca_monitord --port=47100 --monitor-id=1 --upstream-region=0 \
//       --monitors=4 &
//   ...monitors 2 (region 0), 3 and 4 (region 1) alike.
//
// The root's trajectory is bit-identical to the flat deployment and to the
// SimNetwork reference (assert with spca_nocd --check-against-sim).
#include <csignal>
#include <iostream>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "hier/regional_daemon.hpp"
#include "net/net_flags.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/report.hpp"
#include "par/thread_pool.hpp"

namespace {

spca::RegionalDaemon* g_daemon = nullptr;

void handle_signal(int) {
  if (g_daemon != nullptr) g_daemon->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spca;
  CliFlags flags("spca_regiond: regional NOC daemon of the hierarchy");
  flags.define("listen", "127.0.0.1", "listen address (numeric IPv4)");
  flags.define("port", "47100", "listen port for the shard (0 = ephemeral)");
  flags.define("root", "127.0.0.1", "root NOC address (numeric IPv4)");
  flags.define("root-port", "47000", "root NOC port");
  flags.define("regions", "2", "total regions of the hierarchy");
  flags.define("region", "0", "this daemon's region index (0-based)");
  flags.define("interval-deadline-ms", "60000",
               "max wait with no progress before giving up");
  define_daemon_flags(flags);
  define_transport_flags(flags);
  define_scenario_flags(flags);
  define_threads_flag(flags);
  define_observability_flags(flags);
  try {
    if (!flags.parse(argc, argv)) return 0;
    (void)configure_threads_from_flag(flags);
    configure_observability(flags);

    RegionalDaemonConfig config;
    config.scenario = scenario_from_flags(flags);
    config.regions = static_cast<std::size_t>(flags.integer("regions"));
    config.region = static_cast<std::size_t>(flags.integer("region"));
    config.listen_host = flags.str("listen");
    config.listen_port = static_cast<std::uint16_t>(flags.integer("port"));
    config.root_host = flags.str("root");
    config.root_port = static_cast<std::uint16_t>(flags.integer("root-port"));
    config.interval_deadline =
        std::chrono::milliseconds(flags.integer("interval-deadline-ms"));
    config.retry = retry_policy_from_flags(flags);
    config.io_timeout = io_timeout_from_flags(flags);
    read_daemon_flags(flags, config);
    RegionalDaemon daemon(config);
    g_daemon = &daemon;
    (void)std::signal(SIGTERM, handle_signal);
    (void)std::signal(SIGINT, handle_signal);

    daemon.start();
    const RegionalDaemonResult result = daemon.run();
    std::cout << "regiond " << config.region << ": relayed through interval "
              << result.next_interval << ", " << result.merges << " merges, "
              << result.stats.bytes << " bytes sent, " << result.reconnects
              << " reconnects\n";
    if (result.restored_from_checkpoint) {
      std::cout << "regiond " << config.region
                << ": restored from checkpoint\n";
    }
    export_observability(flags);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "spca_regiond: " << e.what() << "\n";
    FlightRecorder::global().note("fatal_error", -1, e.what());
    (void)FlightRecorder::global().dump("error");
    return 1;
  }
}
