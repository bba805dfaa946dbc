#include "net/monitor_daemon.hpp"

#include <chrono>
#include <sstream>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "dist/local_monitor.hpp"
#include "ingest/interval_source.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "obs/span_log.hpp"

namespace spca {

MonitorDaemonResult MonitorDaemon::run() {
  const auto recovery_begin = std::chrono::steady_clock::now();
  const NodeId id = config_.monitor_id;
  const std::string node = "monitor" + std::to_string(id);
  DaemonShell shell(config_, node, "monitord " + std::to_string(id), stop_);
  MonitorDaemonResult result;
  // Live status endpoint, up before the (possibly long) warm rebuild so an
  // operator can watch recovery progress.
  shell.serve("monitor", [&shell, &result, id] {
    std::ostringstream oss;
    oss << ",\"id\":" << static_cast<int>(id)
        << ",\"interval\":" << shell.interval()
        << ",\"restored_from_checkpoint\":"
        << (result.restored_from_checkpoint ? "true" : "false");
    return oss.str();
  });

  const NetScenario scenario = build_scenario(config_.scenario);
  const std::size_t m = scenario.trace.num_flows();
  SPCA_EXPECTS(id >= 1 && id <= config_.scenario.monitors);
  const std::int64_t end = shell.end();
  SPCA_EXPECTS(config_.first_interval >= kAutoInterval &&
               config_.first_interval <= end);
  const std::vector<FlowId> flows =
      scenario_flows_of(m, config_.scenario.monitors, id);

  // Pick the sketch state and the interval at which to join the protocol:
  // a restored snapshot (absorbing only the tail up to the join interval),
  // else the full prefix absorbed from scratch.
  std::optional<LocalMonitor> monitor;
  const bool auto_join = config_.first_interval == kAutoInterval;
  const std::optional<std::int64_t> restored =
      shell.restore([&](const CheckpointSnapshot& snap) {
        if (!auto_join &&
            static_cast<std::int64_t>(snap.seq) > config_.first_interval) {
          throw ProtocolError("snapshot is ahead of --first-interval " +
                              std::to_string(config_.first_interval));
        }
        LocalMonitor decoded = LocalMonitor::restore_state(snap.payload);
        if (decoded.id() != id || decoded.flows() != flows) {
          throw ProtocolError(
              "snapshot belongs to a different monitor or deployment");
        }
        if (decoded.first_line_enabled() !=
            (config_.scenario.fusion != "off")) {
          // A fusion-off snapshot has no scorer baselines; restoring it
          // into a fusion deployment (or vice versa) would fork the score
          // trajectory. Rebuild from scratch instead.
          throw ProtocolError(
              "snapshot fusion state differs from the configured scenario");
        }
        monitor.emplace(std::move(decoded));
      });
  result.restored_from_checkpoint = restored.has_value();
  const std::int64_t absorb_from = restored.value_or(0);
  const std::int64_t join = auto_join ? absorb_from : config_.first_interval;
  if (!monitor) {
    monitor.emplace(
        make_monitor(id, m, config_.scenario.monitors, scenario.detector));
    // Ensemble plane: under any fusion rule the monitor scores its owned
    // volumes each interval and ships a kScoreReport with the volume
    // report. The warm-rebuild replay below advances the scorer too (it
    // rides flush_interval), so a restarted monitor scores bit-identically.
    if (config_.scenario.fusion != "off") monitor->enable_first_line();
  }
  // Deployment topology, not checkpointed state: a restored monitor must be
  // re-pointed at its upstream (regional NOC in the hierarchical tree).
  monitor->set_upstream(config_.upstream_id);

  // Volume source: the scenario's synthetic trace, or a streamed record
  // file when --ingest-records is set. Both the warm rebuild and the live
  // loop walk intervals strictly in order, which is all the streaming
  // source supports; intervals skipped by a checkpoint restore are drained
  // and discarded.
  std::optional<RecordIntervalSource> record_source;
  std::vector<double> record_row;
  std::int64_t streamed_to = -1;
  if (!config_.ingest_records.empty()) {
    record_source.emplace(config_.ingest_records);
    if (record_source->header().num_flows != m ||
        record_source->header().num_intervals !=
            config_.scenario.intervals) {
      throw InputError("monitord: record file '" + config_.ingest_records +
                       "' does not match the scenario shape");
    }
  }
  // Feeds interval t's volumes of the owned flows into the monitor.
  const auto ingest = [&](std::int64_t t) {
    std::int64_t got = 0;
    while (record_source && streamed_to < t) {
      if (!record_source->next_interval(record_row, got)) {
        throw InputError("monitord: record stream ended before interval " +
                         std::to_string(t));
      }
      streamed_to = got;
    }
    for (const FlowId flow : flows) {
      monitor->ingest_volume(
          flow, record_source ? record_row[flow]
                              : scenario.trace.volumes()(
                                    static_cast<std::size_t>(t), flow));
    }
  };

  // Warm rebuild: replay the intervals the NOC has already accounted for,
  // without sending anything. After this the sketch state is exactly what a
  // never-restarted monitor would hold entering `join`.
  // (Not span-instrumented: a never-restarted run has no rebuild, and the
  // sim and TCP span trees must stay structurally identical.)
  for (std::int64_t t = absorb_from; t < join; ++t) {
    shell.poll();
    ingest(t);
    monitor->absorb_interval(t);
    ++result.intervals_absorbed;
  }
  result.start_interval = join;
  if (result.restored_from_checkpoint || result.intervals_absorbed > 0) {
    const std::chrono::duration<double> recovery =
        std::chrono::steady_clock::now() - recovery_begin;
    MetricsRegistry::global()
        .histogram("spca.fault.recovery_seconds")
        .record(recovery.count());
  }

  TcpTransportConfig tcp;
  tcp.node_id = id;
  tcp.peers.push_back(
      {config_.upstream_id, config_.noc_host, config_.noc_port});
  tcp.retry = config_.retry;
  tcp.io_timeout = config_.io_timeout;
  TcpTransport transport(tcp);
  transport.start();
  Transport& bus = shell.attach(transport);
  log_info("monitord ", id, ": connected to ", config_.noc_host, ":",
           config_.noc_port, ", intervals [", join, ", ", end, ")");

  // The last snapshot-consistent state: `consistent_blob` is the sketch
  // state entering interval `consistent_seq`, captured only at lock-step
  // quiet points (right after the NOC advanced past an interval). A stop
  // mid-interval persists this, never a state the NOC has not accounted.
  std::vector<std::byte> consistent_blob;
  std::int64_t consistent_seq = join;
  if (shell.checkpointing()) consistent_blob = monitor->save_state();

  for (std::int64_t t = join; t < end && !shell.stopping(); ++t) {
    shell.enter(t);
    {
      const ScopedSpan span(node, kStageIngestAbsorb, t);
      ingest(t);
    }
    monitor->end_interval(t, bus);
    ++result.intervals_reported;

    // Serve sketch pulls until the NOC finishes interval t. Requests for t
    // precede advance(t) on the connection (TCP preserves the NOC's send
    // order), so by the time we move on every pull has been answered.
    bool advanced = false;
    const bool running = shell.wait(
        [&] {
          for (const Message& msg : bus.drain(id)) {
            monitor->handle_request(msg, bus);
          }
          while (auto control = transport.poll_control()) {
            if (control->type == FrameType::kAdvance &&
                decode_interval_payload(control->payload) >= t) {
              advanced = true;
            }
          }
          return advanced;
        },
        [&](std::chrono::milliseconds slice) {
          if (transport.wait_for_activity(slice)) return true;
          try {  // redial a NOC that died, once it listens again
            transport.ensure_connected(config_.upstream_id);
          } catch (const TransportError&) {
            // NOC still restarting; the io_timeout bounds the retries.
          }
          return false;
        },
        config_.io_timeout, "the NOC's advance",
        [&] {
          // A restarted NOC never saw our report: send it again or neither
          // side can make progress. The NOC deduplicates per-monitor
          // reports, so the retry is safe if the first copy made it too.
          monitor->resend_report(bus);
          log_info("monitord ", id, ": NOC link re-established, re-sent "
                   "interval ", t);
        });
    if (!running) break;
    if (config_.after_advance) config_.after_advance(t, transport);
    if (shell.checkpointing()) {
      consistent_blob = monitor->save_state();
      consistent_seq = t + 1;
    }
    shell.finish_interval(t, [&]() -> auto& { return consistent_blob; });
  }
  if (config_.final_checkpoint) {
    result.final_checkpoint_path = shell.shutdown_snapshot(
        consistent_seq, [&]() -> auto& { return consistent_blob; });
  }

  result.reconnects = transport.reconnects();
  result.stats = transport.stats();
  transport.stop();
  log_info("monitord ", id, ": done after ", result.intervals_reported,
           " intervals (", result.reconnects, " reconnects)");
  return result;
}

}  // namespace spca
