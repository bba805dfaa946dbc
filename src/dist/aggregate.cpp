#include "dist/aggregate.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace spca {

std::vector<NodeId> region_node_ids(std::size_t regions) {
  std::vector<NodeId> ids;
  ids.reserve(regions);
  for (std::size_t r = 0; r < regions; ++r) ids.push_back(region_node_id(r));
  return ids;
}

namespace {

void check_partition(std::size_t monitors, std::size_t regions) {
  if (regions == 0 || regions > monitors) {
    throw InputError("hier: need 1 <= regions <= monitors");
  }
}

}  // namespace

std::size_t region_of_monitor(std::size_t monitors, std::size_t regions,
                              NodeId monitor) {
  check_partition(monitors, regions);
  if (monitor == kNocId || monitor > monitors) {
    throw InputError("hier: monitor id out of range");
  }
  // Region r owns monitors (r*k/R, (r+1)*k/R]; invert by scanning is O(R)
  // but R is tiny; closed form: the smallest r with (r+1)*k/R >= monitor.
  for (std::size_t r = 0; r < regions; ++r) {
    if (static_cast<std::size_t>(monitor) <= (r + 1) * monitors / regions) {
      return r;
    }
  }
  return regions - 1;  // unreachable: monitor <= k = R*k/R
}

std::vector<NodeId> region_monitor_ids(std::size_t monitors,
                                       std::size_t regions,
                                       std::size_t region) {
  check_partition(monitors, regions);
  if (region >= regions) throw InputError("hier: region index out of range");
  const std::size_t lo = region * monitors / regions;       // exclusive
  const std::size_t hi = (region + 1) * monitors / regions;  // inclusive
  std::vector<NodeId> ids;
  ids.reserve(hi - lo);
  for (std::size_t id = lo + 1; id <= hi; ++id) {
    ids.push_back(static_cast<NodeId>(id));
  }
  return ids;
}

Message merge_aggregate(std::vector<Message> parts, NodeId from, NodeId to) {
  if (parts.empty()) {
    throw ProtocolError("merge_aggregate: no messages to merge");
  }
  // Ascending sender id: the bit-stable merge order. Senders are distinct,
  // so the order is total and independent of arrival order.
  std::sort(parts.begin(), parts.end(),
            [](const Message& a, const Message& b) { return a.from < b.from; });
  const MessageType inner = parts.front().type;
  if (inner != MessageType::kVolumeReport &&
      inner != MessageType::kSketchResponse &&
      inner != MessageType::kScoreReport) {
    throw ProtocolError("merge_aggregate: unmergeable message type");
  }
  Message agg;
  agg.type = MessageType::kAggregate;
  agg.from = from;
  agg.to = to;
  agg.interval = parts.front().interval;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const Message& part = parts[i];
    if (part.type != inner) {
      throw ProtocolError("merge_aggregate: mixed message types");
    }
    if (part.interval != agg.interval) {
      throw ProtocolError("merge_aggregate: mixed intervals");
    }
    if (i > 0 && part.from == parts[i - 1].from) {
      throw ProtocolError("merge_aggregate: duplicate sender");
    }
    if (part.ids.empty()) {
      throw ProtocolError("merge_aggregate: empty part");
    }
    agg.ids.insert(agg.ids.end(), part.ids.begin(), part.ids.end());
    agg.values.insert(agg.values.end(), part.values.begin(),
                      part.values.end());
  }
  return agg;
}

bool aggregate_shape_is(const Message& msg, MessageType inner,
                        std::size_t sketch_rows) noexcept {
  if (msg.type != MessageType::kAggregate || msg.ids.empty()) return false;
  const std::size_t per_flow = inner == MessageType::kVolumeReport ? 1
                               : inner == MessageType::kScoreReport
                                   ? 2
                                   : sketch_rows + 2;
  return msg.values.size() == msg.ids.size() * per_flow;
}

Message unwrap_aggregate(Message agg, MessageType inner,
                         std::size_t sketch_rows) {
  if (agg.type != MessageType::kAggregate) {
    throw ProtocolError("unwrap_aggregate: not an aggregate");
  }
  if (inner != MessageType::kVolumeReport &&
      inner != MessageType::kSketchResponse &&
      inner != MessageType::kScoreReport) {
    throw ProtocolError("unwrap_aggregate: invalid inner type");
  }
  if (!aggregate_shape_is(agg, inner, sketch_rows)) {
    throw ProtocolError("unwrap_aggregate: payload shape mismatch");
  }
  agg.type = inner;
  return agg;
}

}  // namespace spca
