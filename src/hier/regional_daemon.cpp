#include "hier/regional_daemon.hpp"

#include <optional>
#include <sstream>
#include <vector>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/serialize.hpp"
#include "hier/regional_noc.hpp"
#include "net/frame.hpp"

namespace spca {

namespace {

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

RegionalDaemonResult RegionalDaemon::run() {
  SPCA_EXPECTS(started_);
  const std::vector<NodeId> shard = region_monitor_ids(
      config_.scenario.monitors, config_.regions, config_.region);
  const std::string index = std::to_string(config_.region);
  DaemonShell shell(config_, "region" + index, "regiond " + index, stop_);

  const std::optional<std::int64_t> restored =
      shell.restore([&](const CheckpointSnapshot& snap) {
        const RegionSnapshot decoded = decode_region_snapshot(snap.payload);
        if (decoded.regions != config_.regions ||
            decoded.region != config_.region || decoded.monitors != shard) {
          throw ProtocolError("snapshot belongs to a different hierarchy");
        }
      });
  std::int64_t t = restored.value_or(0);  // next interval to relay past

  Transport& bus = shell.attach(transport_);
  shell.enter(t);
  shell.serve("region", [this, &shell, &shard, &restored] {
    std::ostringstream oss;
    oss << ",\"region\":" << config_.region
        << ",\"monitors\":" << shard.size()
        << ",\"interval\":" << shell.interval()
        << ",\"reconnects\":" << transport_.reconnects()
        << ",\"restored_from_checkpoint\":"
        << (restored ? "true" : "false");
    return oss.str();
  });
  const auto snapshot = [&] {
    return encode_region_snapshot(config_.regions, config_.region, shard, t);
  };

  // Event-driven loop: each pass relays whatever arrived (RegionalNoc::relay)
  // and relays the root's advances down to the shard; the deadline clock
  // restarts on any progress.
  RegionalNoc region(config_.region, shard, config_.scenario.sketch_rows, t);
  const std::int64_t end = shell.end();
  const auto relay = [&] {
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
        shell.finish_interval(advanced, snapshot);
      }
    }
    return progressed;
  };
  const auto wait_slice = [&](std::chrono::milliseconds slice) {
    return transport_.wait_for_activity(slice);
  };
  while (t < end && !shell.stopping() &&
         shell.wait(relay, wait_slice, config_.interval_deadline, "progress",
                    [] {})) {
    shell.poll();
  }

  if (config_.final_checkpoint) (void)shell.shutdown_snapshot(t, snapshot);
  log_info("regiond ", index, ": finished through interval ", t, ", ",
           region.merges(), " merges, ", transport_.reconnects(),
           " reconnects");
  return {t, region.merges(), transport_.reconnects(), transport_.stats(),
          restored.has_value()};
}

}  // namespace spca
