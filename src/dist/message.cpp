#include "dist/message.hpp"

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace spca {

namespace {

// Header: type(1) + from(4) + to(4) + interval(8) + id_count(4) +
// value_count(4) = 25 bytes.
constexpr std::size_t kHeaderBytes = 25;

}  // namespace

std::size_t Message::wire_bytes() const noexcept {
  return kHeaderBytes + ids.size() * sizeof(std::uint32_t) +
         values.size() * sizeof(double);
}

Message sketch_request(NodeId from, NodeId to, std::int64_t t) {
  Message request;
  request.type = MessageType::kSketchRequest;
  request.from = from;
  request.to = to;
  request.interval = t;
  return request;
}

std::vector<std::byte> serialize(const Message& msg) {
  ByteWriter out;
  out.put(static_cast<std::uint8_t>(msg.type));
  out.put(msg.from);
  out.put(msg.to);
  out.put(msg.interval);
  out.put(static_cast<std::uint32_t>(msg.ids.size()));
  out.put(static_cast<std::uint32_t>(msg.values.size()));
  for (const std::uint32_t id : msg.ids) out.put(id);
  for (const double v : msg.values) out.put(v);
  return std::move(out).take();
}

Message deserialize(const std::vector<std::byte>& buffer) {
  ByteReader in(buffer);
  Message msg;
  const auto type = in.get<std::uint8_t>();
  if (type < 1 || type > 6) {
    throw ProtocolError("deserialize: unknown message type");
  }
  msg.type = static_cast<MessageType>(type);
  msg.from = in.get<NodeId>();
  msg.to = in.get<NodeId>();
  msg.interval = in.get<std::int64_t>();
  const auto id_count = in.get<std::uint32_t>();
  const auto value_count = in.get<std::uint32_t>();
  // Validate the announced payload size against the bytes actually present
  // before reserving anything: a hostile length field must not drive a
  // multi-gigabyte allocation. The division form cannot overflow.
  const std::size_t rest = in.remaining();
  if (id_count > rest / sizeof(std::uint32_t) ||
      value_count > rest / sizeof(double) ||
      id_count * sizeof(std::uint32_t) + value_count * sizeof(double) !=
          rest) {
    throw ProtocolError("deserialize: payload length mismatch");
  }
  msg.ids.reserve(id_count);
  for (std::uint32_t i = 0; i < id_count; ++i) {
    msg.ids.push_back(in.get<std::uint32_t>());
  }
  msg.values.reserve(value_count);
  for (std::uint32_t i = 0; i < value_count; ++i) {
    msg.values.push_back(in.get<double>());
  }
  if (!in.exhausted()) {
    throw ProtocolError("deserialize: trailing bytes in message buffer");
  }
  return msg;
}

}  // namespace spca
