#include "hier/regional_noc.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace spca {

namespace {

Counter& merges_counter() {
  static Counter& c = MetricsRegistry::global().counter("spca.hier.merges");
  return c;
}

Counter& aggregates_counter() {
  static Counter& c =
      MetricsRegistry::global().counter("spca.hier.aggregates_tx");
  return c;
}

Counter& forwards_counter() {
  static Counter& c =
      MetricsRegistry::global().counter("spca.hier.requests_forwarded");
  return c;
}

}  // namespace

RegionalNoc::RegionalNoc(std::size_t region, std::vector<NodeId> monitors,
                         std::size_t sketch_rows, std::int64_t next_interval)
    : region_(region),
      monitors_(std::move(monitors)),
      sketch_rows_(sketch_rows),
      reports_forwarded_through_(next_interval - 1),
      scores_forwarded_through_(next_interval - 1) {
  SPCA_EXPECTS(!monitors_.empty());
  std::sort(monitors_.begin(), monitors_.end());
  SPCA_EXPECTS(std::adjacent_find(monitors_.begin(), monitors_.end()) ==
               monitors_.end());
  SPCA_EXPECTS(monitors_.front() != kNocId && !is_region_node(monitors_.back()));
}

bool RegionalNoc::relay(Transport& bus) {
  bool progressed = false;
  for (Message& msg : bus.drain(id())) {
    if (msg.type != MessageType::kSketchRequest) {
      store(std::move(msg));
      continue;
    }
    for (const NodeId monitor : monitors_) {
      bus.send(sketch_request(id(), monitor, msg.interval));
      forwards_counter().inc();
    }
    progressed = true;
  }
  if (ready(responses_)) {
    bus.send(take_merged(responses_));
    progressed = true;
  }
  const auto forward_once = [&](std::map<NodeId, Message>& pending,
                                std::int64_t& forwarded_through) {
    const auto ready_at = ready(pending);
    if (!ready_at) return;
    Message merged = take_merged(pending);
    if (*ready_at > forwarded_through) {
      forwarded_through = *ready_at;
      bus.send(merged);
    }
    progressed = true;
  };
  forward_once(reports_, reports_forwarded_through_);
  forward_once(scores_, scores_forwarded_through_);
  return progressed;
}

void RegionalNoc::store(Message msg) {
  if (msg.type != MessageType::kVolumeReport &&
      msg.type != MessageType::kScoreReport &&
      msg.type != MessageType::kSketchResponse) {
    throw ProtocolError("RegionalNoc: unexpected message type");
  }
  if (!std::binary_search(monitors_.begin(), monitors_.end(), msg.from)) {
    throw ProtocolError("RegionalNoc: message from outside the shard");
  }
  const bool volumes = msg.type == MessageType::kVolumeReport;
  const bool scores = msg.type == MessageType::kScoreReport;
  const std::size_t per_flow = volumes ? 1 : scores ? 2 : sketch_rows_ + 2;
  if (msg.ids.empty() || msg.values.size() != msg.ids.size() * per_flow) {
    throw ProtocolError("RegionalNoc: malformed payload shape");
  }
  auto& by_sender = volumes ? reports_ : scores ? scores_ : responses_;
  by_sender[msg.from] = std::move(msg);
}

std::optional<std::int64_t> RegionalNoc::ready(
    const std::map<NodeId, Message>& pending) const {
  if (pending.size() < monitors_.size()) return std::nullopt;
  const std::int64_t t = pending.begin()->second.interval;
  for (const auto& [sender, msg] : pending) {
    if (msg.interval != t) return std::nullopt;
  }
  return t;
}

Message RegionalNoc::take_merged(std::map<NodeId, Message>& pending) {
  std::vector<Message> parts;
  parts.reserve(pending.size());
  for (auto& [sender, msg] : pending) parts.push_back(std::move(msg));
  pending.clear();
  ++merges_;
  merges_counter().inc();
  aggregates_counter().inc();
  return merge_aggregate(std::move(parts), id(), kNocId);
}

}  // namespace spca
