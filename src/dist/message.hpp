// Wire messages of the simulated distributed deployment (Fig. 1 / Fig. 2).
//
// Messages are actually serialized to bytes and parsed back on delivery, so
// the communication-cost numbers reported by the benches reflect a real
// encoding, not struct sizes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace spca {

/// Identifies a node in the simulation; the NOC is node 0.
using NodeId = std::uint32_t;
inline constexpr NodeId kNocId = 0;

/// Protocol message types.
enum class MessageType : std::uint8_t {
  /// Monitor -> NOC: per-interval traffic volumes of the monitor's flows.
  kVolumeReport = 1,
  /// NOC -> monitor: request for current sketches (lazy pull, Sec. IV-C).
  kSketchRequest = 2,
  /// Monitor -> NOC: sketch vectors, means, and counts of its flows.
  kSketchResponse = 3,
  /// NOC -> operator: anomaly alarm for an interval.
  kAlarm = 4,
  /// Regional NOC -> root NOC: merged per-monitor payloads of one region
  /// (volume reports, sketch responses, or first-line score reports),
  /// concatenated in sorted monitor id order. The inner kind is recovered
  /// from the payload shape (see dist/aggregate.hpp).
  kAggregate = 5,
  /// Monitor -> NOC: first-line anomaly scores of the ensemble detection
  /// plane, sent at interval close alongside the volume report. ids holds
  /// the reporting monitor ids; each id owns two values
  /// [entropy_z, rate_z] (see detect/score_codec.hpp).
  kScoreReport = 6,
};

/// A protocol message: typed header plus id and value payloads.
struct Message {
  MessageType type = MessageType::kVolumeReport;
  NodeId from = 0;
  NodeId to = 0;
  std::int64_t interval = 0;
  /// Flow ids the values refer to (layout depends on `type`).
  std::vector<std::uint32_t> ids;
  /// Numeric payload (volumes, or per-flow [mean, count, z_1..z_l] blocks).
  std::vector<double> values;

  /// Serialized size in bytes.
  [[nodiscard]] std::size_t wire_bytes() const noexcept;
};

/// A sketch request (lazy pull, Sec. IV-C) from `from` to `to` for interval
/// `t`; it carries no payload.
[[nodiscard]] Message sketch_request(NodeId from, NodeId to, std::int64_t t);

/// Encodes to a flat little-endian byte buffer.
[[nodiscard]] std::vector<std::byte> serialize(const Message& msg);

/// Parses a buffer produced by `serialize`; throws ProtocolError on a
/// malformed buffer.
[[nodiscard]] Message deserialize(const std::vector<std::byte>& buffer);

}  // namespace spca
