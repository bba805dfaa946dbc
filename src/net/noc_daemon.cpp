#include "net/noc_daemon.hpp"

#include <sstream>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "dist/aggregate.hpp"
#include "dist/noc_step.hpp"
#include "net/frame.hpp"

namespace spca {

namespace {

TcpTransportConfig noc_tcp_config(const NocDaemonConfig& config) {
  TcpTransportConfig tcp;
  tcp.node_id = kNocId;
  tcp.listen_host = config.listen_host;
  tcp.listen_port = config.listen_port;
  tcp.io_timeout = config.io_timeout;
  return tcp;
}

}  // namespace

NocDaemon::NocDaemon(NocDaemonConfig config)
    : config_(std::move(config)), transport_(noc_tcp_config(config_)) {}

void NocDaemon::start() {
  SPCA_EXPECTS(!started_);
  started_ = true;
  transport_.start();
  log_info("nocd: listening on ", config_.listen_host, ":", bound_port());
}

ScenarioRun NocDaemon::run() {
  SPCA_EXPECTS(started_);
  const NetScenario scenario = build_scenario(config_.scenario);
  // Hierarchical mode: the root's direct children are regional NOCs, which
  // deliver each phase as one shape-tagged kAggregate per region and relay
  // kAdvance down to their shards.
  const bool hier = config_.regions > 0;
  if (hier) SPCA_EXPECTS(config_.regions <= config_.scenario.monitors);
  const std::vector<NodeId> children =
      hier ? region_node_ids(config_.regions)
           : scenario_monitor_ids(config_.scenario.monitors);

  DaemonShell shell(config_, "noc", "nocd", stop_);
  std::optional<Noc> noc;
  const std::optional<std::int64_t> restored =
      shell.restore([&](const CheckpointSnapshot& snap) {
        // A snapshot of another model backend is refused: backend state
        // (warm basis, rsvd refit counter, fd sketch) is not interchangeable,
        // and refitting cold would break the bit-identical restore.
        Noc decoded = Noc::restore_state(
            snap.payload, parse_model_backend(config_.scenario.model_backend));
        if (decoded.num_flows() != scenario.trace.num_flows()) {
          throw ProtocolError("snapshot belongs to a different deployment");
        }
        noc.emplace(std::move(decoded));
      });
  restored_.store(restored.has_value(), std::memory_order_relaxed);
  if (!noc) {
    noc.emplace(scenario.trace.num_flows(),
                noc_config_from(scenario.detector, /*host_sketches=*/false));
  }
  const std::int64_t start = restored.value_or(0);
  NocStep step(std::move(*noc), children, /*aggregated=*/hier,
               static_cast<std::uint64_t>(start));
  // Ensemble plane: every child then also ships first-line scores each
  // interval, and the step fuses them with the sketch-PCA verdict.
  if (const auto fusion = scenario_fusion(config_.scenario)) {
    step.enable_fusion(*fusion);
  }

  Transport& bus = shell.attach(transport_);
  // Health and the /healthz body read only atomics and transport counters,
  // so a scrape never touches (or perturbs) protocol state.
  shell.serve("noc", [this, &shell] {
    std::ostringstream oss;
    oss << ",\"regions\":" << config_.regions
        << ",\"interval\":" << shell.interval()
        << ",\"intervals_total\":" << config_.scenario.intervals
        << ",\"reconnects\":" << transport_.reconnects()
        << ",\"poller\":\"" << transport_.poller_backend() << "\""
        << ",\"fusion\":\"" << config_.scenario.fusion << "\""
        << ",\"checkpointing\":" << (shell.checkpointing() ? "true" : "false");
    return oss.str();
  });

  // The await policy is the shell's wait loop on the NOC mailbox. A child
  // that redials mid-pull (a regional NOC that restarted, say) lost the
  // sketch request with its old connection, so it is asked again.
  const AwaitPolicy await = [&](const std::function<bool()>& ready,
                                const char* what) {
    return shell.wait(
        ready,
        [&](std::chrono::milliseconds slice) {
          return bus.wait_for_mail(kNocId, slice);
        },
        config_.interval_deadline, what,
        [&] { step.rerequest_missing(bus); });
  };

  ScenarioRun run;
  const std::int64_t end = shell.end();
  std::int64_t done_through = start;
  for (std::int64_t t = start; t < end; ++t) {
    shell.enter(t);
    const std::optional<IntervalVerdict> verdict = step.run(t, bus, await);
    if (!verdict) break;
    run.record(t, *verdict);

    // Release the children into interval t+1 (regional NOCs relay the
    // advance to their shards). The lock-step guarantees that no report
    // for t+1 arrives before it.
    for (const NodeId child : children) {
      transport_.send_control(child, FrameType::kAdvance,
                              encode_interval_payload(t));
    }
    done_through = t + 1;
    shell.finish_interval(t, [&] { return step.noc().save_state(); });
  }
  (void)shell.shutdown_snapshot(done_through,
                                [&] { return step.noc().save_state(); });

  run.stats = transport_.stats();
  log_info("nocd: finished, ", run.alarm_intervals.size(), " alarms, ",
           step.noc().sketch_pulls(), " sketch pulls, ",
           transport_.reconnects(), " reconnects");
  return run;
}

}  // namespace spca
