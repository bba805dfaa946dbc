#include "dist/sim_network.hpp"

#include <gtest/gtest.h>

#include "net/scenario.hpp"

namespace spca {
namespace {

Message make_message(NodeId from, NodeId to, MessageType type) {
  Message msg;
  msg.type = type;
  msg.from = from;
  msg.to = to;
  msg.values = {1.0, 2.0};
  return msg;
}

TEST(SimNetwork, DeliversInSendOrder) {
  SimNetwork net;
  Message a = make_message(1, 0, MessageType::kVolumeReport);
  a.interval = 1;
  Message b = make_message(2, 0, MessageType::kVolumeReport);
  b.interval = 2;
  net.send(a);
  net.send(b);
  const auto delivered = net.drain(0);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].interval, 1);
  EXPECT_EQ(delivered[1].interval, 2);
}

TEST(SimNetwork, DrainEmptiesQueue) {
  SimNetwork net;
  net.send(make_message(1, 0, MessageType::kVolumeReport));
  EXPECT_TRUE(net.has_mail(0));
  (void)net.drain(0);
  EXPECT_FALSE(net.has_mail(0));
  EXPECT_TRUE(net.drain(0).empty());
}

TEST(SimNetwork, RoutesByDestination) {
  SimNetwork net;
  net.send(make_message(0, 1, MessageType::kSketchRequest));
  net.send(make_message(0, 2, MessageType::kSketchRequest));
  EXPECT_EQ(net.drain(1).size(), 1u);
  EXPECT_EQ(net.drain(2).size(), 1u);
  EXPECT_TRUE(net.drain(3).empty());
}

TEST(SimNetwork, AccountsBytesAndMessagesByType) {
  SimNetwork net;
  const Message report = make_message(1, 0, MessageType::kVolumeReport);
  const Message request = make_message(0, 1, MessageType::kSketchRequest);
  net.send(report);
  net.send(report);
  net.send(request);
  const NetworkStats& stats = net.stats();
  EXPECT_EQ(stats.messages, 3u);
  EXPECT_EQ(stats.bytes,
            2 * report.wire_bytes() + request.wire_bytes());
  EXPECT_EQ(stats.messages_by_type[static_cast<int>(
                MessageType::kVolumeReport)],
            2u);
  EXPECT_EQ(stats.bytes_by_type[static_cast<int>(
                MessageType::kSketchRequest)],
            request.wire_bytes());
}

TEST(SimNetwork, ResetStatsClearsCounters) {
  SimNetwork net;
  net.send(make_message(1, 0, MessageType::kAlarm));
  net.reset_stats();
  EXPECT_EQ(net.stats().messages, 0u);
  EXPECT_EQ(net.stats().bytes, 0u);
  // Queued mail survives a stats reset.
  EXPECT_TRUE(net.has_mail(0));
}

TEST(SimNetwork, MessagesSurviveWireRoundTrip) {
  SimNetwork net;
  Message msg = make_message(4, 0, MessageType::kSketchResponse);
  msg.ids = {1, 2, 3};
  msg.values = {0.5, 1.5};
  msg.interval = 77;
  net.send(msg);
  const auto delivered = net.drain(0);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].ids, msg.ids);
  EXPECT_EQ(delivered[0].values, msg.values);
  EXPECT_EQ(delivered[0].interval, 77);
}

TEST(TransportParity, ExplicitSimNetworkMatchesDefaultTransport) {
  // run_scenario_reference(nullptr) constructs its own SimNetwork; passing
  // one explicitly must be indistinguishable.
  NetScenarioConfig config;
  config.topology = "diamond";
  config.intervals = 48;
  config.window = 16;
  config.sketch_rows = 8;
  config.monitors = 2;
  config.seed = 7;
  config.anomalies = 3;
  const NetScenario scenario = build_scenario(config);
  const ScenarioRun implicit = run_scenario_reference(scenario, nullptr);
  SimNetwork network;
  const ScenarioRun explicit_run = run_scenario_reference(scenario, &network);
  EXPECT_EQ(explicit_run.alarm_intervals, implicit.alarm_intervals);
  EXPECT_EQ(explicit_run.distances, implicit.distances);
  EXPECT_TRUE(explicit_run.stats == implicit.stats);
}

}  // namespace
}  // namespace spca
