// Durable node state: LocalMonitor and Noc snapshot blobs restore
// bit-identically (including mid-window, with unflushed volume buckets and
// a live model), and malformed blobs are rejected cleanly.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "dist/local_monitor.hpp"
#include "dist/noc_step.hpp"
#include "dist/sim_network.hpp"
#include "net/scenario.hpp"

namespace spca {
namespace {

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

/// The scenario's NOC, fresh.
Noc fresh_noc(const NetScenario& scenario) {
  return Noc(scenario.trace.num_flows(),
             noc_config_from(scenario.detector, /*host_sketches=*/false));
}

/// The NOC's interval step over the scenario's monitors; `observed`
/// intervals were already run (a restored NOC resumes mid-scenario).
NocStep root_of(const NetScenario& scenario, Noc noc,
                std::int64_t observed = 0) {
  return NocStep(std::move(noc), scenario_monitor_ids(scenario.config.monitors),
                 /*aggregated=*/false, static_cast<std::uint64_t>(observed));
}

std::vector<LocalMonitor> build_monitors(const NetScenario& scenario) {
  return make_monitors(scenario.trace.num_flows(), scenario.config.monitors,
                       scenario.detector);
}

/// One lock-step interval of the manual deployment; mirrors what
/// DistributedDetector::observe does.
std::optional<Detection> run_interval(const NetScenario& scenario,
                                      NocStep& root,
                                      std::vector<LocalMonitor>& monitors,
                                      SimNetwork& net, std::int64_t t) {
  for (LocalMonitor& monitor : monitors) {
    for (const FlowId flow : monitor.flows()) {
      monitor.ingest_volume(
          flow, scenario.trace.volumes()(static_cast<std::size_t>(t), flow));
    }
    monitor.end_interval(t, net);
  }
  const auto verdict = root.run(
      t, net, [&](const std::function<bool()>& ready, const char* /*what*/) {
        for (LocalMonitor& monitor : monitors) monitor.handle_mail(net);
        return ready();
      });
  if (!verdict || !verdict->detection.ready) return std::nullopt;
  return verdict->detection;
}

TEST(NodeCheckpoint, MonitorRestoresMidWindowWithUnflushedVolumes) {
  const NetScenario scenario = build_scenario(small_scenario());
  const SketchDetectorConfig& det = scenario.detector;
  LocalMonitor monitor = make_monitor(1, scenario.trace.num_flows(), 2, det);
  const std::vector<FlowId> flows = monitor.flows();

  // Flush 20 intervals, then leave half-ingested volumes in the counter —
  // the awkward mid-interval state a snapshot must carry faithfully.
  for (std::int64_t t = 0; t < 20; ++t) {
    for (const FlowId flow : flows) {
      monitor.ingest_volume(
          flow, scenario.trace.volumes()(static_cast<std::size_t>(t), flow));
    }
    monitor.absorb_interval(t);
  }
  for (const FlowId flow : flows) monitor.ingest_volume(flow, 123.5);

  LocalMonitor restored = LocalMonitor::restore_state(monitor.save_state());
  EXPECT_EQ(restored.id(), monitor.id());
  EXPECT_EQ(restored.flows(), monitor.flows());

  // Both finish interval 20 and answer a sketch pull: reports and
  // responses must agree bit for bit.
  SimNetwork net_a;
  SimNetwork net_b;
  monitor.end_interval(20, net_a);
  restored.end_interval(20, net_b);
  Message request;
  request.type = MessageType::kSketchRequest;
  request.from = kNocId;
  request.to = 1;
  request.interval = 20;
  monitor.handle_request(request, net_a);
  restored.handle_request(request, net_b);

  const std::vector<Message> mail_a = net_a.drain(kNocId);
  const std::vector<Message> mail_b = net_b.drain(kNocId);
  ASSERT_EQ(mail_a.size(), 2u);
  ASSERT_EQ(mail_b.size(), 2u);
  for (std::size_t i = 0; i < mail_a.size(); ++i) {
    EXPECT_EQ(mail_a[i].ids, mail_b[i].ids);
    ASSERT_EQ(mail_a[i].values.size(), mail_b[i].values.size());
    for (std::size_t j = 0; j < mail_a[i].values.size(); ++j) {
      EXPECT_EQ(mail_a[i].values[j], mail_b[i].values[j])
          << "message " << i << " value " << j;
    }
  }
}

TEST(NodeCheckpoint, DeploymentSnapshotMidRunContinuesBitIdentically) {
  const NetScenario scenario = build_scenario(small_scenario());
  const auto intervals = static_cast<std::int64_t>(scenario.config.intervals);
  const std::int64_t snap_at = 25;  // past warm-up, with a fitted model

  // Reference: one uninterrupted run.
  std::vector<double> ref_distances;
  std::vector<std::int64_t> ref_alarms;
  {
    SimNetwork net;
    NocStep noc = root_of(scenario, fresh_noc(scenario));
    std::vector<LocalMonitor> monitors = build_monitors(scenario);
    for (std::int64_t t = 0; t < intervals; ++t) {
      const auto det = run_interval(scenario, noc, monitors, net, t);
      if (!det) continue;
      ref_distances.push_back(det->distance);
      if (det->alarm) ref_alarms.push_back(t);
    }
  }

  // Snapshot the whole deployment after interval snap_at - 1, restore every
  // node from its blob, and continue with the clones only.
  std::vector<double> distances;
  std::vector<std::int64_t> alarms;
  {
    SimNetwork net;
    NocStep noc = root_of(scenario, fresh_noc(scenario));
    std::vector<LocalMonitor> monitors = build_monitors(scenario);
    for (std::int64_t t = 0; t < snap_at; ++t) {
      const auto det = run_interval(scenario, noc, monitors, net, t);
      if (!det) continue;
      distances.push_back(det->distance);
      if (det->alarm) alarms.push_back(t);
    }

    NocStep restored_noc = root_of(
        scenario, Noc::restore_state(noc.noc().save_state()), snap_at);
    EXPECT_EQ(restored_noc.noc().sketch_pulls(), noc.noc().sketch_pulls());
    std::vector<LocalMonitor> restored_monitors;
    for (const LocalMonitor& monitor : monitors) {
      restored_monitors.push_back(
          LocalMonitor::restore_state(monitor.save_state()));
    }
    SimNetwork fresh_net;
    for (std::int64_t t = snap_at; t < intervals; ++t) {
      const auto det = run_interval(scenario, restored_noc,
                                    restored_monitors, fresh_net, t);
      if (!det) continue;
      distances.push_back(det->distance);
      if (det->alarm) alarms.push_back(t);
    }
  }

  EXPECT_EQ(alarms, ref_alarms);
  ASSERT_EQ(distances.size(), ref_distances.size());
  for (std::size_t i = 0; i < ref_distances.size(); ++i) {
    EXPECT_EQ(distances[i], ref_distances[i]) << "detection index " << i;
  }
}

class NodeCheckpointBackend
    : public ::testing::TestWithParam<ModelBackendKind> {};

TEST_P(NodeCheckpointBackend, DeploymentSnapshotContinuesBitIdentically) {
  // Same shape as the exact-path snapshot test above, but per model
  // backend: whatever inter-refit state the backend carries (warm basis,
  // rsvd refit counter, fd sketch) must survive the round trip so the
  // continued run stays bit-identical.
  NetScenarioConfig scenario_config = small_scenario();
  scenario_config.model_backend = to_string(GetParam());
  const NetScenario scenario = build_scenario(scenario_config);
  const auto intervals = static_cast<std::int64_t>(scenario.config.intervals);
  const std::int64_t snap_at = 25;

  std::vector<double> ref_distances;
  std::vector<std::int64_t> ref_alarms;
  {
    SimNetwork net;
    NocStep noc = root_of(scenario, fresh_noc(scenario));
    std::vector<LocalMonitor> monitors = build_monitors(scenario);
    for (std::int64_t t = 0; t < intervals; ++t) {
      const auto det = run_interval(scenario, noc, monitors, net, t);
      if (!det) continue;
      ref_distances.push_back(det->distance);
      if (det->alarm) ref_alarms.push_back(t);
    }
  }

  std::vector<double> distances;
  std::vector<std::int64_t> alarms;
  {
    SimNetwork net;
    NocStep noc = root_of(scenario, fresh_noc(scenario));
    std::vector<LocalMonitor> monitors = build_monitors(scenario);
    for (std::int64_t t = 0; t < snap_at; ++t) {
      const auto det = run_interval(scenario, noc, monitors, net, t);
      if (!det) continue;
      distances.push_back(det->distance);
      if (det->alarm) alarms.push_back(t);
    }

    NocStep restored_noc = root_of(
        scenario, Noc::restore_state(noc.noc().save_state(), GetParam()),
        snap_at);
    EXPECT_EQ(restored_noc.noc().backend().kind(), GetParam());
    std::vector<LocalMonitor> restored_monitors;
    for (const LocalMonitor& monitor : monitors) {
      restored_monitors.push_back(
          LocalMonitor::restore_state(monitor.save_state()));
    }
    SimNetwork fresh_net;
    for (std::int64_t t = snap_at; t < intervals; ++t) {
      const auto det = run_interval(scenario, restored_noc,
                                    restored_monitors, fresh_net, t);
      if (!det) continue;
      distances.push_back(det->distance);
      if (det->alarm) alarms.push_back(t);
    }
  }

  EXPECT_EQ(alarms, ref_alarms);
  ASSERT_EQ(distances.size(), ref_distances.size());
  for (std::size_t i = 0; i < ref_distances.size(); ++i) {
    EXPECT_EQ(distances[i], ref_distances[i]) << "detection index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, NodeCheckpointBackend,
                         ::testing::Values(ModelBackendKind::kExact,
                                           ModelBackendKind::kWarm,
                                           ModelBackendKind::kRsvd,
                                           ModelBackendKind::kFd),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(NodeCheckpoint, CrossBackendRestoreIsRejected) {
  // A blob written under one backend must never be absorbed by a node
  // configured for another: the inter-refit state is kind-specific, and a
  // silent mismatch would corrupt the trajectory instead of failing fast.
  NetScenarioConfig scenario_config = small_scenario();
  scenario_config.model_backend = "warm";
  const NetScenario scenario = build_scenario(scenario_config);
  SimNetwork net;
  NocStep noc = root_of(scenario, fresh_noc(scenario));
  std::vector<LocalMonitor> monitors = build_monitors(scenario);
  for (std::int64_t t = 0; t < 20; ++t) {
    (void)run_interval(scenario, noc, monitors, net, t);
  }
  const std::vector<std::byte> blob = noc.noc().save_state();

  // Matching expectation restores fine; every other kind is rejected.
  EXPECT_NO_THROW((void)Noc::restore_state(blob, ModelBackendKind::kWarm));
  EXPECT_NO_THROW((void)Noc::restore_state(blob));
  for (const ModelBackendKind other :
       {ModelBackendKind::kExact, ModelBackendKind::kRsvd,
        ModelBackendKind::kFd}) {
    EXPECT_THROW((void)Noc::restore_state(blob, other), ProtocolError)
        << to_string(other);
  }
}

TEST(NodeCheckpoint, MonitorBlobCorruptionIsRejectedCleanly) {
  const NetScenario scenario = build_scenario(small_scenario());
  const SketchDetectorConfig& det = scenario.detector;
  LocalMonitor monitor = make_monitor(1, scenario.trace.num_flows(), 2, det);
  const std::vector<FlowId> flows = monitor.flows();
  for (std::int64_t t = 0; t < 8; ++t) {
    for (const FlowId flow : flows) monitor.ingest_volume(flow, 10.0 + t);
    monitor.absorb_interval(t);
  }
  const std::vector<std::byte> blob = monitor.save_state();

  // Wrong magic.
  std::vector<std::byte> bad_magic = blob;
  bad_magic[0] = static_cast<std::byte>(0xFF);
  EXPECT_THROW((void)LocalMonitor::restore_state(bad_magic), ProtocolError);

  // Wrong version.
  std::vector<std::byte> bad_version = blob;
  bad_version[4] = static_cast<std::byte>(0x7F);
  EXPECT_THROW((void)LocalMonitor::restore_state(bad_version),
               ProtocolError);

  // Trailing garbage.
  std::vector<std::byte> padded = blob;
  padded.push_back(std::byte{0});
  EXPECT_THROW((void)LocalMonitor::restore_state(padded), ProtocolError);

  // Truncation at every prefix length must throw, never crash or hang
  // (run under ASan/UBSan in CI).
  for (std::size_t len = 0; len < blob.size();
       len += (len < 64 ? 1 : 97)) {
    const std::vector<std::byte> truncated(blob.begin(),
                                           blob.begin() +
                                               static_cast<std::ptrdiff_t>(
                                                   len));
    EXPECT_THROW((void)LocalMonitor::restore_state(truncated), ProtocolError)
        << "length " << len;
  }
}

TEST(NodeCheckpoint, NocBlobCorruptionIsRejectedCleanly) {
  const NetScenario scenario = build_scenario(small_scenario());
  SimNetwork net;
  NocStep noc = root_of(scenario, fresh_noc(scenario));
  std::vector<LocalMonitor> monitors = build_monitors(scenario);
  for (std::int64_t t = 0; t < 20; ++t) {
    (void)run_interval(scenario, noc, monitors, net, t);
  }
  ASSERT_TRUE(noc.noc().model().has_value());
  const std::vector<std::byte> blob = noc.noc().save_state();

  std::vector<std::byte> bad_magic = blob;
  bad_magic[0] = static_cast<std::byte>(0xFF);
  EXPECT_THROW((void)Noc::restore_state(bad_magic), ProtocolError);

  std::vector<std::byte> padded = blob;
  padded.push_back(std::byte{0});
  EXPECT_THROW((void)Noc::restore_state(padded), ProtocolError);

  for (std::size_t len = 0; len < blob.size();
       len += (len < 64 ? 1 : 211)) {
    const std::vector<std::byte> truncated(blob.begin(),
                                           blob.begin() +
                                               static_cast<std::ptrdiff_t>(
                                                   len));
    EXPECT_THROW((void)Noc::restore_state(truncated), ProtocolError)
        << "length " << len;
  }
}

}  // namespace
}  // namespace spca
