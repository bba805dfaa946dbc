// Monitor daemon binary: dials the NOC (with retry/backoff, so it can be
// started before spca_nocd is up), replays its share of the scenario trace,
// and answers the NOC's sketch pulls. See spca_nocd.cpp for a full loopback
// deployment example.
//
// Restart story: with --checkpoint-dir the daemon snapshots its sketch
// state durably (every --checkpoint-every intervals and at shutdown —
// SIGTERM writes a final snapshot before exiting) and a restarted daemon
// resumes from the newest valid snapshot instead of replaying the trace.
// Without snapshots, --first-interval=<t> rebuilds the state locally and
// rejoins the running deployment at interval t.
#include <csignal>
#include <iostream>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "dist/aggregate.hpp"
#include "net/monitor_daemon.hpp"
#include "net/net_flags.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/report.hpp"
#include "par/thread_pool.hpp"

namespace {

spca::MonitorDaemon* g_daemon = nullptr;

void handle_signal(int) {
  if (g_daemon != nullptr) g_daemon->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spca;
  CliFlags flags("spca_monitord: monitor daemon of the TCP deployment");
  flags.define("connect", "127.0.0.1", "upstream address (numeric IPv4)");
  flags.define("port", "47000", "upstream port");
  flags.define("monitor-id", "1", "this monitor's node id (1..monitors)");
  flags.define("upstream-region", "-1",
               "region index of the spca_regiond this monitor reports to "
               "(-1 = flat deployment, dial the root NOC directly)");
  flags.define("first-interval", "-1",
               "first interval to report; earlier ones come from the "
               "checkpoint and/or local absorption (-1 = resume from the "
               "newest checkpoint when present, else 0)");
  flags.define("last-interval", "-1",
               "one-past-last interval to report (-1 = scenario end)");
  flags.define("ingest-records", "",
               "stream interval volumes from this flow-record file (binary "
               "or CSV) instead of the synthetic scenario trace");
  define_daemon_flags(flags);
  define_transport_flags(flags);
  define_scenario_flags(flags);
  define_threads_flag(flags);
  define_observability_flags(flags);
  try {
    if (!flags.parse(argc, argv)) return 0;
    (void)configure_threads_from_flag(flags);
    configure_observability(flags);

    MonitorDaemonConfig config;
    config.scenario = scenario_from_flags(flags);
    config.monitor_id = static_cast<NodeId>(flags.integer("monitor-id"));
    config.noc_host = flags.str("connect");
    config.noc_port = static_cast<std::uint16_t>(flags.integer("port"));
    const std::int64_t upstream_region = flags.integer("upstream-region");
    if (upstream_region >= 0) {
      config.upstream_id =
          region_node_id(static_cast<std::size_t>(upstream_region));
    }
    config.first_interval = flags.integer("first-interval");
    config.last_interval = flags.integer("last-interval");
    config.ingest_records = flags.str("ingest-records");
    config.retry = retry_policy_from_flags(flags);
    config.io_timeout = io_timeout_from_flags(flags);
    read_daemon_flags(flags, config);
    MonitorDaemon daemon(config);
    g_daemon = &daemon;
    (void)std::signal(SIGTERM, handle_signal);
    (void)std::signal(SIGINT, handle_signal);

    const MonitorDaemonResult result = daemon.run();
    std::cout << "monitord " << config.monitor_id << ": "
              << result.intervals_reported << " intervals, "
              << result.stats.bytes << " bytes sent, " << result.reconnects
              << " reconnects\n";
    if (result.restored_from_checkpoint) {
      std::cout << "monitord " << config.monitor_id
                << ": restored from checkpoint, absorbed "
                << result.intervals_absorbed << " tail intervals, joined at "
                << result.start_interval << "\n";
    }
    if (!result.final_checkpoint_path.empty()) {
      std::cout << "monitord " << config.monitor_id << ": final checkpoint "
                << result.final_checkpoint_path << "\n";
    }
    export_observability(flags);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "spca_monitord: " << e.what() << "\n";
    FlightRecorder::global().note("fatal_error", -1, e.what());
    (void)FlightRecorder::global().dump("error");
    return 1;
  }
}
