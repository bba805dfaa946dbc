#include "hier/regional_daemon.hpp"

#include <optional>
#include <sstream>
#include <vector>

#include "common/checkpoint_store.hpp"
#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/serialize.hpp"
#include "hier/regional_noc.hpp"
#include "net/frame.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/status_server.hpp"

namespace spca {

namespace {

constexpr std::chrono::milliseconds kWaitSlice{100};

constexpr std::uint32_t kRegionSnapshotMagic = 0x53504352;  // 'SPCR'
constexpr std::uint32_t kRegionSnapshotVersion = 1;

TcpTransportConfig region_tcp_config(const RegionalDaemonConfig& config) {
  TcpTransportConfig tcp;
  tcp.node_id = region_node_id(config.region);
  tcp.listen_host = config.listen_host;
  tcp.listen_port = config.listen_port;
  tcp.peers.push_back({kNocId, config.root_host, config.root_port});
  tcp.retry = config.retry;
  tcp.io_timeout = config.io_timeout;
  return tcp;
}

}  // namespace

std::vector<std::byte> encode_region_snapshot(
    std::size_t regions, std::size_t region,
    const std::vector<NodeId>& monitors, std::int64_t next_interval) {
  ByteWriter out;
  out.put(kRegionSnapshotMagic);
  out.put(kRegionSnapshotVersion);
  out.put(static_cast<std::uint32_t>(regions));
  out.put(static_cast<std::uint32_t>(region));
  out.put(static_cast<std::uint32_t>(monitors.size()));
  for (const NodeId id : monitors) out.put(id);
  out.put(next_interval);
  return std::move(out).take();
}

RegionSnapshot decode_region_snapshot(const std::vector<std::byte>& blob) {
  ByteReader in(blob);
  if (in.get<std::uint32_t>() != kRegionSnapshotMagic) {
    throw ProtocolError("region snapshot: bad magic");
  }
  if (in.get<std::uint32_t>() != kRegionSnapshotVersion) {
    throw ProtocolError("region snapshot: unsupported version");
  }
  RegionSnapshot snap;
  snap.regions = in.get<std::uint32_t>();
  snap.region = in.get<std::uint32_t>();
  const auto count = in.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    snap.monitors.push_back(in.get<NodeId>());
  }
  snap.next_interval = in.get<std::int64_t>();
  if (!in.exhausted()) {
    throw ProtocolError("region snapshot: trailing bytes");
  }
  return snap;
}

RegionalDaemon::RegionalDaemon(RegionalDaemonConfig config)
    : config_(std::move(config)), transport_(region_tcp_config(config_)) {}

RegionalDaemon::~RegionalDaemon() { transport_.stop(); }

void RegionalDaemon::start() {
  SPCA_EXPECTS(!started_);
  SPCA_EXPECTS(config_.region < config_.regions);
  SPCA_EXPECTS(config_.regions >= 1 &&
               config_.regions <= config_.scenario.monitors);
  started_ = true;
  transport_.start();
  log_info("regiond ", config_.region, ": listening on ", config_.listen_host,
           ":", bound_port(), ", root at ", config_.root_host, ":",
           config_.root_port);
}

std::uint16_t RegionalDaemon::bound_port() const noexcept {
  return transport_.listen_port();
}

RegionalDaemonResult RegionalDaemon::run() {
  SPCA_EXPECTS(started_);
  SPCA_EXPECTS(config_.checkpoint_every >= 0);
  const std::vector<NodeId> shard = region_monitor_ids(
      config_.scenario.monitors, config_.regions, config_.region);

  std::optional<CheckpointStore> store;
  if (!config_.checkpoint_dir.empty()) {
    store.emplace(config_.checkpoint_dir,
                  "region" + std::to_string(config_.region));
  }

  RegionalDaemonResult result;
  std::int64_t t = 0;  // next interval whose advance we have not relayed
  if (store) {
    if (auto snap = store->load_latest()) {
      try {
        const RegionSnapshot decoded = decode_region_snapshot(snap->payload);
        if (decoded.regions != config_.regions ||
            decoded.region != config_.region || decoded.monitors != shard) {
          throw ProtocolError("snapshot belongs to a different hierarchy");
        }
        t = decoded.next_interval;
        result.restored_from_checkpoint = true;
        log_info("regiond ", config_.region, ": restored interval ", t,
                 " from ", snap->path);
      } catch (const Error& e) {
        log_warn("regiond ", config_.region, ": ignoring snapshot ",
                 snap->path, ": ", e.what());
      }
    }
  }

  std::unique_ptr<Transport> wrapped;
  if (config_.wrap_transport) wrapped = config_.wrap_transport(transport_);
  Transport& bus = wrapped ? *wrapped : static_cast<Transport&>(transport_);

  std::atomic<std::int64_t> current_interval{t};
  DaemonTelemetry telemetry(
      config_.status_port, config_.status_host, config_.on_status_port, stop_,
      "region",
      [this, &current_interval, &result, &shard] {
        std::ostringstream oss;
        oss << ",\"region\":" << config_.region
            << ",\"monitors\":" << shard.size() << ",\"interval\":"
            << current_interval.load(std::memory_order_relaxed)
            << ",\"reconnects\":" << transport_.reconnects()
            << ",\"restored_from_checkpoint\":"
            << (result.restored_from_checkpoint ? "true" : "false");
        return oss.str();
      },
      "regiond " + std::to_string(config_.region));

  const auto intervals = static_cast<std::int64_t>(config_.scenario.intervals);
  const std::int64_t end = config_.last_interval >= 0
                               ? std::min(intervals, config_.last_interval)
                               : intervals;
  SPCA_EXPECTS(t <= intervals);
  const auto checkpoint = [&](bool force) {
    if (!store) return;
    if (!force && (config_.checkpoint_every <= 0 ||
                   t % config_.checkpoint_every != 0)) {
      return;
    }
    store->write(static_cast<std::uint64_t>(t),
                 encode_region_snapshot(config_.regions, config_.region,
                                        shard, t));
  };

  // Event-driven loop: each pass relays whatever arrived (RegionalNoc::relay)
  // and relays the root's advances down to the shard; the deadline clock
  // resets on any progress.
  RegionalNoc region(config_.region, shard, config_.scenario.sketch_rows, t);
  auto waited = std::chrono::milliseconds(0);
  while (t < end && !stop_.load(std::memory_order_relaxed)) {
    current_interval.store(t, std::memory_order_relaxed);
    telemetry.poll();
    bool progressed = region.relay(bus);
    while (auto control = transport_.poll_control()) {
      if (control->type != FrameType::kAdvance) continue;
      const std::int64_t advanced = decode_interval_payload(control->payload);
      for (const NodeId monitor : region.monitors()) {
        transport_.send_control(monitor, FrameType::kAdvance,
                                control->payload);
      }
      progressed = true;
      if (advanced >= t) {
        t = advanced + 1;
        current_interval.store(t, std::memory_order_relaxed);
        FlightRecorder::global().capture_metrics(
            "region" + std::to_string(config_.region) + "_interval",
            advanced);
        checkpoint(/*force=*/false);
      }
    }
    if (progressed) {
      waited = std::chrono::milliseconds(0);
      continue;
    }
    if (!transport_.wait_for_activity(kWaitSlice)) {
      waited += kWaitSlice;
      if (waited >= config_.interval_deadline) {
        throw TransportError("regiond: no progress within the deadline");
      }
    }
  }

  if (config_.final_checkpoint) checkpoint(/*force=*/true);
  result.next_interval = t;
  result.merges = region.merges();
  result.reconnects = transport_.reconnects();
  result.stats = transport_.stats();
  log_info("regiond ", config_.region, ": finished through interval ", t,
           ", ", region.merges(), " merges, ", transport_.reconnects(),
           " reconnects");
  return result;
}

}  // namespace spca
