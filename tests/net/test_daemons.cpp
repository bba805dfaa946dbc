// Loopback end-to-end of the daemon pair: a NocDaemon and its MonitorDaemons
// running as real TcpTransport endpoints on 127.0.0.1 must reproduce the
// SimNetwork reference trajectory bit for bit, survive a monitor kill and
// restart mid-run, tolerate monitors dialing before the NOC listens, and
// ignore checkpoint snapshots that are not theirs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/checkpoint_store.hpp"
#include "common/error.hpp"
#include "dist/local_monitor.hpp"
#include "dist/noc.hpp"
#include "ingest/record_file.hpp"
#include "net/monitor_daemon.hpp"
#include "net/noc_daemon.hpp"
#include "net/scenario.hpp"
#include "net/socket.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/span_log.hpp"

namespace spca {
namespace {

using namespace std::chrono_literals;

NetScenarioConfig small_scenario() {
  NetScenarioConfig config;
  config.topology = "diamond";
  config.intervals = 40;
  config.window = 12;
  config.sketch_rows = 8;
  config.monitors = 2;
  config.seed = 7;
  config.anomalies = 3;
  return config;
}

RetryPolicy fast_retry() {
  RetryPolicy retry;
  retry.max_attempts = 400;
  retry.connect_timeout = 1000ms;
  retry.backoff_initial = 5ms;
  retry.backoff_max = 50ms;
  return retry;
}

MonitorDaemonConfig monitor_config(const NetScenarioConfig& scenario,
                                   NodeId id, std::uint16_t port) {
  MonitorDaemonConfig config;
  config.scenario = scenario;
  config.monitor_id = id;
  config.noc_host = "127.0.0.1";
  config.noc_port = port;
  config.retry = fast_retry();
  config.io_timeout = 20000ms;
  return config;
}

/// Runs one monitor daemon on the calling thread, capturing any exception.
void run_monitor(MonitorDaemonConfig config, MonitorDaemonResult& result,
                 std::exception_ptr& error) {
  try {
    MonitorDaemon daemon(std::move(config));
    result = daemon.run();
  } catch (...) {
    error = std::current_exception();
  }
}

void expect_matches_reference(const ScenarioRun& run,
                              const ScenarioRun& reference) {
  EXPECT_EQ(run.alarm_intervals, reference.alarm_intervals);
  ASSERT_EQ(run.distances.size(), reference.distances.size());
  for (std::size_t i = 0; i < reference.distances.size(); ++i) {
    EXPECT_EQ(run.distances[i], reference.distances[i])
        << "interval index " << i;
  }
}

/// A longer diamond run with a wider window than small_scenario().
NetScenarioConfig parity_scenario() {
  NetScenarioConfig config = small_scenario();
  config.intervals = 48;
  config.window = 16;
  return config;
}

/// A deployment run over loopback TCP next to its SimNetwork reference.
/// `stats` is the deployment-wide wire accounting: the NOC's sends plus
/// every monitor's sends.
struct LoopbackRun {
  ScenarioRun reference;
  ScenarioRun run;
  NetworkStats stats;
};

/// Runs `config` as a NocDaemon plus one MonitorDaemon thread per monitor
/// over loopback TCP, and its SimNetwork reference in process.
LoopbackRun run_loopback(const NetScenarioConfig& config) {
  const NetScenario scenario = build_scenario(config);
  LoopbackRun out;
  out.reference = run_scenario_reference(scenario);

  NocDaemonConfig noc_config;
  noc_config.scenario = config;
  noc_config.listen_port = 0;
  noc_config.interval_deadline = 30000ms;
  NocDaemon noc(noc_config);
  noc.start();

  std::vector<std::thread> threads;
  std::vector<MonitorDaemonResult> results(config.monitors);
  std::vector<std::exception_ptr> errors(config.monitors);
  for (std::size_t k = 0; k < config.monitors; ++k) {
    threads.emplace_back(run_monitor,
                         monitor_config(config,
                                        static_cast<NodeId>(k + 1),
                                        noc.bound_port()),
                         std::ref(results[k]), std::ref(errors[k]));
  }

  out.run = noc.run();
  for (auto& t : threads) t.join();
  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  EXPECT_EQ(noc.reconnects(), 0u);
  out.stats = out.run.stats;
  for (const auto& result : results) {
    EXPECT_EQ(result.intervals_reported,
              static_cast<std::int64_t>(config.intervals));
    out.stats += result.stats;
  }
  return out;
}

/// Checks a loopback run against its reference: exact distances and
/// alarms, and the wire accounting byte for byte.
void expect_loopback_matches_reference(const NetScenarioConfig& config) {
  SCOPED_TRACE("seed " + std::to_string(config.seed) + ", monitors " +
               std::to_string(config.monitors) + ", intervals " +
               std::to_string(config.intervals));
  const LoopbackRun loopback = run_loopback(config);
  ASSERT_FALSE(loopback.reference.distances.empty());
  expect_matches_reference(loopback.run, loopback.reference);
  EXPECT_GT(loopback.reference.stats.messages, 0u);
  EXPECT_TRUE(loopback.stats == loopback.reference.stats);
}

TEST(Daemons, LoopbackDeploymentMatchesSimReferenceBitForBit) {
  expect_loopback_matches_reference(small_scenario());
}

// The detection trajectory of a deployment is invariant under the
// transport: in-process queues (SimNetwork) versus the daemons' real
// loopback TCP sockets, bit for bit.
TEST(TransportParity, TrajectoriesAreBitIdentical) {
  const LoopbackRun loopback = run_loopback(parity_scenario());
  ASSERT_FALSE(loopback.reference.distances.empty());
  // Exact equality, not approximate: the bytes crossing the loopback stack
  // must decode to the same doubles the simulation handed over directly.
  expect_matches_reference(loopback.run, loopback.reference);
}

TEST(TransportParity, NetworkStatsMatchByteForByte) {
  const LoopbackRun loopback = run_loopback(parity_scenario());
  const NetworkStats& sim = loopback.reference.stats;
  EXPECT_GT(sim.messages, 0u);
  EXPECT_TRUE(loopback.stats == sim);
  for (std::size_t i = 1; i <= 4; ++i) {
    EXPECT_EQ(loopback.stats.messages_by_type[i], sim.messages_by_type[i]);
    EXPECT_EQ(loopback.stats.bytes_by_type[i], sim.bytes_by_type[i]);
  }
}

TEST(TransportParity, HoldsAcrossSeedsAndMonitorCounts) {
  for (const std::uint64_t seed : {11ull, 23ull}) {
    for (const std::size_t monitors : {1u, 4u}) {
      NetScenarioConfig config = parity_scenario();
      config.seed = seed;
      config.monitors = monitors;
      config.anomalies = 2;
      expect_loopback_matches_reference(config);
    }
  }
}

TEST(Daemons, MonitorKillAndRestartSurvivesViaReconnect) {
  const NetScenarioConfig config = small_scenario();
  const NetScenario scenario = build_scenario(config);
  const ScenarioRun reference = run_scenario_reference(scenario);

  // Kill point: past warm-up, so the restarted daemon has real sketch state
  // to rebuild before rejoining.
  const auto kill_at = static_cast<std::int64_t>(config.window + 6);

  NocDaemonConfig noc_config;
  noc_config.scenario = config;
  noc_config.listen_port = 0;
  noc_config.interval_deadline = 30000ms;
  NocDaemon noc(noc_config);
  noc.start();

  // Monitor 2 runs the whole scenario; monitor 1 exits after kill_at and a
  // fresh daemon process-equivalent restarts from that interval, absorbing
  // the earlier trace locally.
  MonitorDaemonResult steady_result, first_result, reborn_result;
  std::exception_ptr steady_error, restart_error;
  std::thread steady(run_monitor, monitor_config(config, 2, noc.bound_port()),
                     std::ref(steady_result), std::ref(steady_error));
  std::thread restarting([&] {
    try {
      MonitorDaemonConfig first = monitor_config(config, 1, noc.bound_port());
      first.last_interval = kill_at;
      MonitorDaemon killed(first);
      first_result = killed.run();

      MonitorDaemonConfig second = monitor_config(config, 1, noc.bound_port());
      second.first_interval = kill_at;
      MonitorDaemon reborn(second);
      reborn_result = reborn.run();
    } catch (...) {
      restart_error = std::current_exception();
    }
  });

  const ScenarioRun run = noc.run();
  steady.join();
  restarting.join();
  if (steady_error) std::rethrow_exception(steady_error);
  if (restart_error) std::rethrow_exception(restart_error);

  // The trajectory is unchanged by the kill/restart...
  expect_matches_reference(run, reference);
  // ...the NOC observed monitor 1 coming back...
  EXPECT_GE(noc.reconnects(), 1u);
  // ...and the two monitor-1 incarnations covered the scenario between them.
  EXPECT_EQ(first_result.intervals_reported, kill_at);
  EXPECT_EQ(reborn_result.intervals_reported,
            static_cast<std::int64_t>(config.intervals) - kill_at);
  EXPECT_EQ(steady_result.intervals_reported,
            static_cast<std::int64_t>(config.intervals));
}

TEST(Daemons, RecordIngestReproducesTheSyntheticTrajectory) {
  // Monitors streaming their volumes from a record file exported off the
  // scenario trace (--ingest-records) must follow the exact trajectory of
  // monitors replaying the synthetic trace directly.
  const NetScenarioConfig config = small_scenario();
  const NetScenario scenario = build_scenario(config);
  const ScenarioRun reference = run_scenario_reference(scenario);

  const std::string records =
      (std::filesystem::temp_directory_path() / "spca_daemon_ingest.spcr")
          .string();
  RecordExportOptions options;
  options.records_per_cell = 2;
  export_records(scenario.trace, records, options);

  NocDaemonConfig noc_config;
  noc_config.scenario = config;
  noc_config.listen_port = 0;
  noc_config.interval_deadline = 30000ms;
  NocDaemon noc(noc_config);
  noc.start();

  std::vector<std::thread> threads;
  std::vector<MonitorDaemonResult> results(config.monitors);
  std::vector<std::exception_ptr> errors(config.monitors);
  for (std::size_t k = 0; k < config.monitors; ++k) {
    MonitorDaemonConfig monitor =
        monitor_config(config, static_cast<NodeId>(k + 1), noc.bound_port());
    monitor.ingest_records = records;
    threads.emplace_back(run_monitor, std::move(monitor),
                         std::ref(results[k]), std::ref(errors[k]));
  }

  const ScenarioRun run = noc.run();
  for (auto& t : threads) t.join();
  std::filesystem::remove(records);
  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  expect_matches_reference(run, reference);
}

/// One status-endpoint HTTP GET, reading until the server's HTTP/1.0 close.
std::string http_get(int port, const std::string& path) {
  TcpStream stream = TcpStream::connect(
      "127.0.0.1", static_cast<std::uint16_t>(port), 5000ms);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  stream.send_all(reinterpret_cast<const std::byte*>(request.data()),
                  request.size(), 5000ms);
  std::string response;
  std::byte buf[4096];
  for (;;) {
    const std::ptrdiff_t n = stream.recv_some(buf, sizeof(buf), 10000ms);
    if (n <= 0) break;
    response.append(reinterpret_cast<const char*>(buf),
                    static_cast<std::size_t>(n));
  }
  return response;
}

TEST(Daemons, TelemetryPlaneIsBitInvariantAndScrapableLive) {
  // The full telemetry plane — interval spans, the flight recorder, and a
  // live status endpoint scraped mid-run — must not perturb the detection
  // trajectory by a single bit, and the sim and TCP deployments must
  // produce structurally identical span trees.
  const NetScenarioConfig config = small_scenario();
  const NetScenario scenario = build_scenario(config);

  const std::string flight_dir =
      (std::filesystem::temp_directory_path() / "spca_daemon_flight")
          .string();
  FlightRecorder::global().configure(flight_dir, 256);

  SpanLog::global().clear();
  const ScenarioRun reference = run_scenario_reference(scenario);
  const std::vector<std::string> sim_signature =
      structural_signature(SpanLog::global().snapshot());
  EXPECT_FALSE(sim_signature.empty());

  SpanLog::global().clear();
  NocDaemonConfig noc_config;
  noc_config.scenario = config;
  noc_config.listen_port = 0;
  noc_config.interval_deadline = 30000ms;
  noc_config.status_port = 0;
  std::promise<int> port_promise;
  noc_config.on_status_port = [&port_promise](int port) {
    port_promise.set_value(port);
  };
  NocDaemon noc(noc_config);
  noc.start();

  // Scrape every route while the deployment is live; the daemon serves
  // from its wait slices, so the scrape rides on the protocol's idle time.
  std::string metrics_json, healthz, prometheus;
  std::thread scraper([&] {
    std::future<int> port = port_promise.get_future();
    if (port.wait_for(30s) != std::future_status::ready) return;
    const int p = port.get();
    metrics_json = http_get(p, "/metrics.json");
    healthz = http_get(p, "/healthz");
    prometheus = http_get(p, "/metrics");
  });

  std::vector<std::thread> threads;
  std::vector<MonitorDaemonResult> results(config.monitors);
  std::vector<std::exception_ptr> errors(config.monitors);
  for (std::size_t k = 0; k < config.monitors; ++k) {
    threads.emplace_back(run_monitor,
                         monitor_config(config,
                                        static_cast<NodeId>(k + 1),
                                        noc.bound_port()),
                         std::ref(results[k]), std::ref(errors[k]));
  }

  const ScenarioRun run = noc.run();
  for (auto& t : threads) t.join();
  scraper.join();
  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  // Bit-invariance: all telemetry on, trajectory unchanged.
  expect_matches_reference(run, reference);

  // The live scrapes answered with real content.
  EXPECT_NE(metrics_json.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics_json.find("\"counters\""), std::string::npos);
  EXPECT_NE(healthz.find("\"role\":\"noc\""), std::string::npos);
  EXPECT_NE(prometheus.find("# TYPE"), std::string::npos);

  // Sim and TCP runs traced the same stages on the same nodes for the same
  // intervals.
  const std::vector<std::string> tcp_signature =
      structural_signature(SpanLog::global().snapshot());
  EXPECT_EQ(sim_signature, tcp_signature);

  // The flight recorder captured per-interval snapshots and can dump them.
  EXPECT_GT(FlightRecorder::global().recorded(), 0u);
  const std::string dump = FlightRecorder::global().dump("test");
  EXPECT_NE(dump, "");
  FlightRecorder::global().reset();
  std::error_code ec;
  std::filesystem::remove_all(flight_dir, ec);
}

TEST(Daemons, MonitorsStartedBeforeTheNocBackOffAndConnect) {
  NetScenarioConfig config = small_scenario();
  config.intervals = 24;  // keep the run short; this tests startup ordering
  config.anomalies = 1;
  const NetScenario scenario = build_scenario(config);
  const ScenarioRun reference = run_scenario_reference(scenario);

  // Reserve an ephemeral port, then free it so the monitors dial a port
  // nobody listens on yet.
  std::uint16_t port = 0;
  {
    TcpListener reserve("127.0.0.1", 0);
    port = reserve.port();
  }

  std::vector<std::thread> threads;
  std::vector<MonitorDaemonResult> results(config.monitors);
  std::vector<std::exception_ptr> errors(config.monitors);
  for (std::size_t k = 0; k < config.monitors; ++k) {
    threads.emplace_back(run_monitor,
                         monitor_config(config,
                                        static_cast<NodeId>(k + 1), port),
                         std::ref(results[k]), std::ref(errors[k]));
  }

  // Let the monitors burn a few connect attempts before the NOC exists.
  std::this_thread::sleep_for(100ms);

  NocDaemonConfig noc_config;
  noc_config.scenario = config;
  noc_config.listen_host = "127.0.0.1";
  noc_config.listen_port = port;
  noc_config.interval_deadline = 30000ms;
  NocDaemon noc(noc_config);
  noc.start();
  const ScenarioRun run = noc.run();

  for (auto& t : threads) t.join();
  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  expect_matches_reference(run, reference);
}

/// A fresh checkpoint directory, removed again on destruction.
class TempDir final {
 public:
  explicit TempDir(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("spca-daemons-" + tag + "-" + std::to_string(::getpid())))
                  .string()) {
    std::filesystem::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  std::string path_;
};

/// A loopback deployment whose NOC checkpoints into `noc_dir` and whose
/// monitors checkpoint into `monitor_dir` and resume from it
/// (kAutoInterval, as spca_monitord does by default); "" = no
/// checkpointing for that role.
struct CheckpointedRun {
  ScenarioRun run;
  bool noc_restored = false;
  std::vector<MonitorDaemonResult> monitors;
};

CheckpointedRun run_checkpointed(const NetScenarioConfig& config,
                                 const std::string& noc_dir,
                                 const std::string& monitor_dir) {
  NocDaemonConfig noc_config;
  noc_config.scenario = config;
  noc_config.interval_deadline = 30000ms;
  noc_config.checkpoint_dir = noc_dir;
  noc_config.checkpoint_every = 8;
  NocDaemon noc(noc_config);
  noc.start();

  CheckpointedRun out;
  out.monitors.resize(config.monitors);
  std::vector<std::exception_ptr> errors(config.monitors);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < config.monitors; ++k) {
    MonitorDaemonConfig monitor =
        monitor_config(config, static_cast<NodeId>(k + 1), noc.bound_port());
    monitor.first_interval = kAutoInterval;
    monitor.checkpoint_dir = monitor_dir;
    monitor.checkpoint_every = 8;
    threads.emplace_back(run_monitor, std::move(monitor),
                         std::ref(out.monitors[k]), std::ref(errors[k]));
  }
  out.run = noc.run();
  for (auto& t : threads) t.join();
  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  out.noc_restored = noc.restored_from_checkpoint();
  return out;
}

/// The same deployment run for 8 more intervals: its shutdown snapshots
/// lie past the end of small_scenario().
NetScenarioConfig longer_scenario() {
  NetScenarioConfig config = small_scenario();
  config.intervals += 8;
  return config;
}

TEST(Daemons, NocIgnoresSnapshotsOfALongerRunOrAnotherDeployment) {
  const NetScenarioConfig config = small_scenario();
  const NetScenario scenario = build_scenario(config);
  const ScenarioRun reference = run_scenario_reference(scenario);

  // A reused --checkpoint-dir: the newest NOC snapshot is a longer run's,
  // at an interval past this run's end.
  {
    const TempDir dir("noc-longer");
    (void)run_checkpointed(longer_scenario(), dir.str(), "");
    const CheckpointedRun second = run_checkpointed(config, dir.str(), "");
    EXPECT_FALSE(second.noc_restored);
    expect_matches_reference(second.run, reference);
  }
  // A mid-run snapshot of another deployment's NOC (abilene's 81 flows).
  {
    const TempDir dir("noc-other");
    NetScenarioConfig other = config;
    other.topology = "abilene";
    const NetScenario world = build_scenario(other);
    const Noc foreign(world.trace.num_flows(),
                      noc_config_from(world.detector, false));
    (void)CheckpointStore(dir.str(), "noc").write(20, foreign.save_state());
    const CheckpointedRun run = run_checkpointed(config, dir.str(), "");
    EXPECT_FALSE(run.noc_restored);
    expect_matches_reference(run.run, reference);
  }
}

TEST(Daemons, MonitorIgnoresSnapshotsOfALongerRunOrAnotherDeployment) {
  const NetScenarioConfig config = small_scenario();
  const NetScenario scenario = build_scenario(config);
  const ScenarioRun reference = run_scenario_reference(scenario);
  const auto expect_fresh_start = [&](const CheckpointedRun& run) {
    for (const MonitorDaemonResult& monitor : run.monitors) {
      EXPECT_FALSE(monitor.restored_from_checkpoint);
      EXPECT_EQ(monitor.start_interval, 0);
    }
    expect_matches_reference(run.run, reference);
  };

  // A reused --checkpoint-dir: every monitor's newest snapshot is a longer
  // run's shutdown snapshot, past this run's end.
  {
    const TempDir dir("monitor-longer");
    (void)run_checkpointed(longer_scenario(), "", dir.str());
    expect_fresh_start(run_checkpointed(config, "", dir.str()));
  }
  // Mid-run snapshots of the same ids in a 4-monitor deployment, which owns
  // other flows.
  {
    const TempDir dir("monitor-other");
    for (NodeId id = 1; id <= config.monitors; ++id) {
      const LocalMonitor foreign = make_monitor(
          id, scenario.trace.num_flows(), 4, scenario.detector);
      (void)CheckpointStore(dir.str(), "monitor" + std::to_string(id))
          .write(20, foreign.save_state());
    }
    expect_fresh_start(run_checkpointed(config, "", dir.str()));
  }
}

}  // namespace
}  // namespace spca
