// Replay driver: pushes a flow-record stream through the full ingest
// pipeline (reader thread -> SPSC ring -> batched monitor absorption) and
// reports the sustained records/s, optionally asserting along the way that
// the trajectory is bit-identical to the pre-aggregated path.
//
// When the record file is missing (or --rewrite-records is set) the driver
// first materializes it from the deterministic scenario trace, split into
// --records-per-cell sub-records per (interval, flow) cell — the NetFlow-
// style operating regime where per-record work must stay O(1).
//
// Exit codes: 0 success, 1 usage/runtime error, 2 parity check failed,
// 3 sustained rate below --min-rate.
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <optional>
#include <vector>

#include "common/cli.hpp"
#include "ingest/record_file.hpp"
#include "ingest/replay.hpp"
#include "net/scenario.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/report.hpp"
#include "obs/status_server.hpp"
#include "par/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace spca;
  CliFlags flags(
      "spca_replay: line-rate flow-record replay through one local monitor");
  flags.define("records", "replay.spcr",
               "record file to stream (created from the scenario trace when "
               "missing)");
  flags.define("format", "binary",
               "export format when creating the file: binary|csv");
  flags.define("records-per-cell", "1",
               "sub-records per (interval, flow) cell on export");
  flags.define("rewrite-records", "false",
               "re-export the record file even when it exists");
  flags.define("ring-batches", "64",
               "SPSC ring capacity in record batches");
  flags.define("interval-block", "8", "intervals per batched monitor flush");
  flags.define("repeat", "1", "minimum passes over the record file");
  flags.define("min-seconds", "0",
               "keep re-streaming until this much wall time elapsed");
  flags.define("check", "volumes", "parity checking: off|volumes|full");
  flags.define("check-every", "64",
               "full-state comparison cadence in intervals (check=full)");
  flags.define("min-rate", "0",
               "fail (exit 3) when sustained records/s ends up below this");
  flags.define("status-port", "-1",
               "serve /metrics, /metrics.json, /healthz, /spans on this "
               "port while the replay runs (-1 = off, 0 = ephemeral)");
  define_scenario_flags(flags);
  define_threads_flag(flags);
  define_observability_flags(flags);
  try {
    if (!flags.parse(argc, argv)) return 0;
    (void)configure_threads_from_flag(flags);
    configure_observability(flags);
    // The replay's main thread is busy streaming records, so the status
    // endpoint (when requested) polls from a helper thread.
    std::optional<StatusServer> status;
    if (flags.integer("status-port") >= 0) {
      StatusServerConfig scfg;
      scfg.port = static_cast<int>(flags.integer("status-port"));
      status.emplace(std::move(scfg));
      status->serve_in_background();
      std::cout << "spca_replay: status endpoint on 127.0.0.1:"
                << status->port() << "\n";
    }
    const NetScenario scenario = build_scenario(scenario_from_flags(flags));

    const std::string records = flags.str("records");
    if (flags.boolean("rewrite-records") ||
        !std::filesystem::exists(records)) {
      RecordExportOptions options;
      options.format = record_format_from_string(flags.str("format"));
      options.records_per_cell =
          static_cast<std::uint32_t>(flags.integer("records-per-cell"));
      export_records(scenario.trace, records, options);
      std::cout << "spca_replay: wrote " << records << " ("
                << scenario.trace.num_intervals() << " intervals x "
                << scenario.trace.num_flows() << " flows x "
                << options.records_per_cell << " records/cell)\n";
    }

    // Monitor shape comes from the record file; sketch parameters from the
    // shared scenario, exactly as a deployed monitor would configure itself.
    RecordFileHeader header;
    {
      RecordFileReader probe(records);
      header = probe.header();
    }
    // One monitor owning every flow.
    LocalMonitor monitor =
        make_monitor(1, header.num_flows, /*num_monitors=*/1,
                     scenario.detector);

    ReplayConfig config;
    config.record_path = records;
    config.ring_batches =
        static_cast<std::size_t>(flags.integer("ring-batches"));
    config.interval_block =
        static_cast<std::size_t>(flags.integer("interval-block"));
    config.repeat = static_cast<std::uint32_t>(flags.integer("repeat"));
    config.min_seconds = flags.real("min-seconds");
    config.check = replay_check_from_string(flags.str("check"));
    config.check_every = flags.integer("check-every");

    const ReplayStats stats = replay_records(monitor, config);
    std::printf(
        "spca_replay: %llu records in %.2f s -> %.0f records/s\n"
        "spca_replay: %llu batches, %llu intervals, %llu passes, "
        "%llu producer blocks\n",
        static_cast<unsigned long long>(stats.records), stats.seconds,
        stats.records_per_sec,
        static_cast<unsigned long long>(stats.batches),
        static_cast<unsigned long long>(stats.intervals),
        static_cast<unsigned long long>(stats.passes),
        static_cast<unsigned long long>(stats.producer_blocks));
    export_observability(flags);

    if (!stats.parity_ok) {
      std::cerr << "spca_replay: parity FAILED: " << stats.parity_error
                << "\n";
      FlightRecorder::global().note("parity_failure", -1, stats.parity_error);
      (void)FlightRecorder::global().dump("parity");
      return 2;
    }
    if (config.check != ReplayCheck::kOff) {
      std::cout << "spca_replay: parity OK (check=" << flags.str("check")
                << ")\n";
    }
    const double min_rate = flags.real("min-rate");
    if (min_rate > 0.0 && stats.records_per_sec < min_rate) {
      std::cerr << "spca_replay: sustained rate " << stats.records_per_sec
                << " records/s is below --min-rate " << min_rate << "\n";
      return 3;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "spca_replay: " << e.what() << "\n";
    FlightRecorder::global().note("fatal_error", -1, e.what());
    (void)FlightRecorder::global().dump("error");
    return 1;
  }
}
