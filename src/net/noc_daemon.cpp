#include "net/noc_daemon.hpp"

#include <sstream>

#include "common/checkpoint_store.hpp"
#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "dist/aggregate.hpp"
#include "dist/noc_step.hpp"
#include "net/frame.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/status_server.hpp"

namespace spca {

namespace {

constexpr std::chrono::milliseconds kWaitSlice{100};

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

NocDaemon::~NocDaemon() { transport_.stop(); }

void NocDaemon::start() {
  SPCA_EXPECTS(!started_);
  started_ = true;
  transport_.start();
  log_info("nocd: listening on ", config_.listen_host, ":", bound_port());
}

std::uint16_t NocDaemon::bound_port() const noexcept {
  return transport_.listen_port();
}

std::uint64_t NocDaemon::reconnects() const noexcept {
  return transport_.reconnects();
}

ScenarioRun NocDaemon::run() {
  SPCA_EXPECTS(started_);
  SPCA_EXPECTS(config_.checkpoint_every >= 0);
  const NetScenario scenario = build_scenario(config_.scenario);
  // Hierarchical mode: the root's direct children are regional NOCs, which
  // deliver each phase as one shape-tagged kAggregate per region and relay
  // kAdvance down to their shards.
  const bool hier = config_.regions > 0;
  if (hier) SPCA_EXPECTS(config_.regions <= config_.scenario.monitors);
  const std::vector<NodeId> children =
      hier ? region_node_ids(config_.regions)
           : scenario_monitor_ids(config_.scenario.monitors);

  std::optional<CheckpointStore> store;
  if (!config_.checkpoint_dir.empty()) {
    store.emplace(config_.checkpoint_dir, "noc");
  }

  std::optional<Noc> noc;
  std::int64_t start = 0;
  if (store) {
    if (auto snap = store->load_latest()) {
      try {
        // The expected-backend check rejects a snapshot whose model backend
        // differs from the configured one: backend state (warm basis, rsvd
        // refit counter, fd sketch) is not interchangeable, and silently
        // refitting cold would break the bit-identical-restore guarantee.
        Noc restored = Noc::restore_state(
            snap->payload,
            parse_model_backend(config_.scenario.model_backend));
        if (restored.num_flows() != scenario.trace.num_flows()) {
          throw ProtocolError("snapshot belongs to a different deployment");
        }
        noc.emplace(std::move(restored));
        start = static_cast<std::int64_t>(snap->seq);
        restored_.store(true, std::memory_order_relaxed);
        log_info("nocd: restored interval ", start, " from ", snap->path);
      } catch (const Error& e) {
        log_warn("nocd: ignoring snapshot ", snap->path, ": ", e.what());
      }
    }
  }
  if (!noc) {
    noc.emplace(scenario.trace.num_flows(),
                noc_config_from(scenario.detector, /*host_sketches=*/false));
  }
  NocStep step(std::move(*noc), children, /*aggregated=*/hier,
               static_cast<std::uint64_t>(start));
  // Ensemble plane: every child then also ships first-line scores each
  // interval, and the step fuses them with the sketch-PCA verdict.
  if (const auto fusion = scenario_fusion(config_.scenario)) {
    step.enable_fusion(*fusion);
  }

  std::unique_ptr<Transport> wrapped;
  if (config_.wrap_transport) wrapped = config_.wrap_transport(transport_);
  Transport& bus = wrapped ? *wrapped : static_cast<Transport&>(transport_);

  // Health and the /healthz body read only atomics and transport counters,
  // so a scrape never touches (or perturbs) protocol state.
  const auto intervals = static_cast<std::int64_t>(config_.scenario.intervals);
  std::atomic<std::int64_t> current_interval{start};
  DaemonTelemetry telemetry(
      config_.status_port, config_.status_host, config_.on_status_port, stop_,
      "noc",
      [this, &current_interval, intervals] {
        std::ostringstream oss;
        oss << ",\"regions\":" << config_.regions << ",\"interval\":"
            << current_interval.load(std::memory_order_relaxed)
            << ",\"intervals_total\":" << intervals
            << ",\"reconnects\":" << transport_.reconnects()
            << ",\"poller\":\"" << transport_.poller_backend() << "\""
            << ",\"fusion\":\"" << config_.scenario.fusion << "\""
            << ",\"checkpointing\":"
            << (config_.checkpoint_dir.empty() ? "false" : "true");
        return oss.str();
      },
      "nocd");

  // The daemon's await policy: wait on the transport in short slices up to
  // the interval deadline, serving telemetry in between. A child that
  // redials mid-pull (a regional NOC that restarted, say) lost the sketch
  // request with its old connection, so it is asked again.
  const AwaitPolicy await = [&](const std::function<bool()>& ready,
                                const char* what) {
    auto waited = std::chrono::milliseconds(0);
    std::uint64_t seen_reconnects = transport_.reconnects();
    while (!ready()) {
      if (stop_.load(std::memory_order_relaxed)) return false;
      if (!bus.wait_for_mail(kNocId, kWaitSlice)) {
        waited += kWaitSlice;
        if (waited >= config_.interval_deadline) {
          throw TransportError(std::string("nocd: timed out waiting for ") +
                               what);
        }
      }
      const std::uint64_t reconnects = transport_.reconnects();
      if (reconnects != seen_reconnects) {
        seen_reconnects = reconnects;
        step.rerequest_missing(bus);
      }
      telemetry.poll();
    }
    return true;
  };

  ScenarioRun run;
  const std::int64_t end = config_.last_interval >= 0
                               ? std::min(intervals, config_.last_interval)
                               : intervals;
  SPCA_EXPECTS(start <= intervals);
  std::int64_t done_through = start;
  for (std::int64_t t = start; t < end; ++t) {
    current_interval.store(t, std::memory_order_relaxed);
    telemetry.poll();
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
    current_interval.store(done_through, std::memory_order_relaxed);
    FlightRecorder::global().capture_metrics("noc_interval", t);
    if (store && config_.checkpoint_every > 0 &&
        done_through % config_.checkpoint_every == 0) {
      store->write(static_cast<std::uint64_t>(done_through),
                   step.noc().save_state());
      FlightRecorder::global().note("noc_checkpoint", done_through);
    }
  }

  if (store) {
    const std::string path = store->write(
        static_cast<std::uint64_t>(done_through), step.noc().save_state());
    log_info("nocd: final checkpoint (interval ", done_through, ") at ",
             path);
  }

  run.stats = transport_.stats();
  log_info("nocd: finished, ", run.alarm_intervals.size(), " alarms, ",
           step.noc().sketch_pulls(), " sketch pulls, ",
           transport_.reconnects(), " reconnects");
  return run;
}

}  // namespace spca
