// RegionalNoc collection state machine (hier/regional_noc.hpp) driven over
// a SimNetwork, and the regional daemon's 'SPCR' identity/progress snapshot
// codec (hier/regional_daemon.hpp).
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "dist/aggregate.hpp"
#include "dist/sim_network.hpp"
#include "hier/regional_daemon.hpp"
#include "hier/regional_noc.hpp"

namespace spca {
namespace {

constexpr std::size_t kRows = 4;

Message report(NodeId monitor, std::int64_t interval,
               NodeId to = region_node_id(0)) {
  Message msg;
  msg.type = MessageType::kVolumeReport;
  msg.from = monitor;
  msg.to = to;
  msg.interval = interval;
  msg.ids = {monitor * 10u};
  msg.values = {static_cast<double>(monitor)};
  return msg;
}

Message response(NodeId monitor, std::int64_t interval, NodeId to) {
  Message msg = report(monitor, interval, to);
  msg.type = MessageType::kSketchResponse;
  msg.values.assign(kRows + 2, static_cast<double>(monitor));
  return msg;
}

TEST(RegionalNoc, CollectsTheShardAndMergesOnceComplete) {
  SimNetwork sim;
  RegionalNoc region(0, {1, 2, 3}, kRows);
  EXPECT_EQ(region.id(), region_node_id(0));

  sim.send(report(2, 5));
  EXPECT_FALSE(region.relay(sim));
  EXPECT_FALSE(sim.has_mail(kNocId));

  sim.send(report(1, 5));
  sim.send(report(3, 5));
  EXPECT_TRUE(region.relay(sim));
  const std::vector<Message> up = sim.drain(kNocId);
  ASSERT_EQ(up.size(), 1u);
  const Message& merged = up[0];
  EXPECT_EQ(merged.type, MessageType::kAggregate);
  EXPECT_EQ(merged.from, region.id());
  EXPECT_EQ(merged.interval, 5);
  const std::vector<std::uint32_t> expected_ids = {10, 20, 30};
  EXPECT_EQ(merged.ids, expected_ids);
  // Forwarding clears the store for the next interval.
  EXPECT_FALSE(region.relay(sim));
  EXPECT_FALSE(sim.has_mail(kNocId));
  EXPECT_EQ(region.merges(), 1u);
}

TEST(RegionalNoc, MixedIntervalsAreNotReadyAndLastWins) {
  SimNetwork sim;
  RegionalNoc region(0, {1, 2}, kRows);

  // Monitor 1 already moved to interval 6 while monitor 2 is still at 5:
  // transient during the advance relay, so not ready.
  sim.send(report(1, 6));
  sim.send(report(2, 5));
  EXPECT_FALSE(region.relay(sim));
  EXPECT_FALSE(sim.has_mail(kNocId));

  // A reconnecting monitor re-sends its current interval; last-wins brings
  // the shard back into agreement.
  sim.send(report(2, 6));
  EXPECT_TRUE(region.relay(sim));
  const std::vector<Message> up = sim.drain(kNocId);
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(up[0].interval, 6);
}

TEST(RegionalNoc, ForwardsEachIntervalsReportsOnce) {
  // A node restarted at interval 6 drops a complete merge of interval 5
  // (its monitors re-sent it on reconnect, and the root already has it),
  // forwards interval 6 once, and drops a later duplicate of it.
  SimNetwork sim;
  RegionalNoc region(0, {1, 2}, kRows, /*next_interval=*/6);
  sim.send(report(1, 5));
  sim.send(report(2, 5));
  EXPECT_TRUE(region.relay(sim));
  EXPECT_FALSE(sim.has_mail(kNocId));

  sim.send(report(1, 6));
  sim.send(report(2, 6));
  EXPECT_TRUE(region.relay(sim));
  EXPECT_EQ(sim.drain(kNocId).size(), 1u);

  sim.send(report(1, 6));
  sim.send(report(2, 6));
  EXPECT_TRUE(region.relay(sim));
  EXPECT_FALSE(sim.has_mail(kNocId));
  EXPECT_EQ(region.merges(), 3u);
}

TEST(RegionalNoc, SketchPhaseRoundTrip) {
  SimNetwork sim;
  RegionalNoc region(1, {3, 4}, kRows);

  // A root request fans out to the shard in the same pass.
  Message request;
  request.type = MessageType::kSketchRequest;
  request.from = kNocId;
  request.to = region.id();
  request.interval = 9;
  sim.send(request);
  EXPECT_TRUE(region.relay(sim));
  for (const NodeId monitor : {3u, 4u}) {
    const std::vector<Message> mail = sim.drain(monitor);
    ASSERT_EQ(mail.size(), 1u);
    EXPECT_EQ(mail[0].type, MessageType::kSketchRequest);
    EXPECT_EQ(mail[0].from, region.id());
    EXPECT_EQ(mail[0].interval, 9);
  }
  EXPECT_FALSE(region.relay(sim));

  sim.send(response(4, 9, region.id()));
  sim.send(response(3, 9, region.id()));
  EXPECT_TRUE(region.relay(sim));
  const std::vector<Message> up = sim.drain(kNocId);
  ASSERT_EQ(up.size(), 1u);
  const Message& merged = up[0];
  EXPECT_EQ(merged.values.size(), merged.ids.size() * (kRows + 2));
  EXPECT_TRUE(aggregate_shape_is(merged, MessageType::kSketchResponse,
                                 kRows));
}

TEST(RegionalNoc, RejectsForeignSendersAndMalformedShapes) {
  SimNetwork sim;
  RegionalNoc region(0, {1, 2}, kRows);

  sim.send(report(7, 0));  // not in the shard
  EXPECT_THROW(region.relay(sim), ProtocolError);

  Message bad = report(1, 0);
  bad.values.push_back(0.0);  // shape broken
  sim.send(bad);
  EXPECT_THROW(region.relay(sim), ProtocolError);

  Message agg = report(1, 0);
  agg.type = MessageType::kAggregate;  // a type the tier never receives
  sim.send(agg);
  EXPECT_THROW(region.relay(sim), ProtocolError);
}

TEST(RegionalNoc, RejectsDegenerateShards) {
  EXPECT_THROW(RegionalNoc(0, {}, kRows), ContractViolation);
  EXPECT_THROW(RegionalNoc(0, {1, 1}, kRows), ContractViolation);
  EXPECT_THROW(RegionalNoc(0, {kNocId, 1}, kRows), ContractViolation);
  EXPECT_THROW(RegionalNoc(0, {1, region_node_id(1)}, kRows),
               ContractViolation);
}

TEST(RegionSnapshot, RoundTripsIdentityAndProgress) {
  const std::vector<NodeId> shard = {4, 5, 6};
  const std::vector<std::byte> blob = encode_region_snapshot(3, 1, shard, 17);
  const RegionSnapshot snapshot = decode_region_snapshot(blob);
  EXPECT_EQ(snapshot.regions, 3u);
  EXPECT_EQ(snapshot.region, 1u);
  EXPECT_EQ(snapshot.monitors, shard);
  EXPECT_EQ(snapshot.next_interval, 17);
}

TEST(RegionSnapshot, RejectsCorruptBlobs) {
  std::vector<std::byte> blob = encode_region_snapshot(2, 0, {1, 2}, 3);

  // Truncated.
  std::vector<std::byte> truncated(blob.begin(), blob.end() - 1);
  EXPECT_THROW((void)decode_region_snapshot(truncated), ProtocolError);

  // Trailing garbage.
  std::vector<std::byte> padded = blob;
  padded.push_back(std::byte{0x5A});
  EXPECT_THROW((void)decode_region_snapshot(padded), ProtocolError);

  // Bad magic.
  std::vector<std::byte> bad_magic = blob;
  bad_magic[0] ^= std::byte{0xFF};
  EXPECT_THROW((void)decode_region_snapshot(bad_magic), ProtocolError);

  // Unknown version.
  std::vector<std::byte> bad_version = blob;
  bad_version[4] ^= std::byte{0xFF};
  EXPECT_THROW((void)decode_region_snapshot(bad_version), ProtocolError);

  EXPECT_THROW((void)decode_region_snapshot({}), ProtocolError);
}

}  // namespace
}  // namespace spca
