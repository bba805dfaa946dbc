#include "dist/noc_step.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "detect/score_codec.hpp"
#include "dist/aggregate.hpp"

namespace spca {

namespace {

/// The flat message type `msg` stands for: its own type from a monitor, or
/// the inner type its payload shape encodes from a regional NOC. kAggregate
/// means it has none the NOC routes.
MessageType routed_type(const Message& msg, bool aggregated,
                        std::size_t sketch_rows) {
  if (!aggregated) return msg.type;
  for (const MessageType inner :
       {MessageType::kVolumeReport, MessageType::kScoreReport,
        MessageType::kSketchResponse}) {
    if (aggregate_shape_is(msg, inner, sketch_rows)) return inner;
  }
  return MessageType::kAggregate;
}

}  // namespace

NocStep::NocStep(Noc noc, std::vector<NodeId> children, bool aggregated,
                 std::uint64_t observed)
    : noc_(std::move(noc)),
      children_(std::move(children)),
      aggregated_(aggregated),
      observed_(observed) {
  std::sort(children_.begin(), children_.end());
}

void NocStep::enable_fusion(const FusionConfig& config) {
  fusion_.emplace(config);
}

void NocStep::absorb(Transport& bus) {
  const std::size_t rows = noc_.config().sketch_rows;
  for (Message& msg : bus.drain(kNocId)) {
    const MessageType type = routed_type(msg, aggregated_, rows);
    std::map<NodeId, Message>* store =
        type == MessageType::kVolumeReport     ? &reports_
        : type == MessageType::kScoreReport    ? &scores_
        : type == MessageType::kSketchResponse ? &responses_
                                               : nullptr;
    if (store == nullptr) {
      throw ProtocolError("NocStep: unexpected message type");
    }
    if (!std::binary_search(children_.begin(), children_.end(), msg.from)) {
      throw ProtocolError("NocStep: message from a node that is no child");
    }
    // Keyed by sender: a child that reconnected re-sends an identical copy,
    // so the last one wins.
    if (msg.interval == interval_) (*store)[msg.from] = std::move(msg);
  }
}

std::optional<IntervalVerdict> NocStep::run(std::int64_t t, Transport& bus,
                                            const AwaitPolicy& await) {
  interval_ = t;
  reports_.clear();
  scores_.clear();
  responses_.clear();
  const bool reported = await(
      [&] {
        absorb(bus);
        return complete(reports_) && (!fusion_ || complete(scores_));
      },
      "volume reports");
  if (!reported) return std::nullopt;

  const std::size_t rows = noc_.config().sketch_rows;
  std::vector<Message> reports;
  reports.reserve(reports_.size());
  for (auto& [child, msg] : reports_) {
    reports.push_back(
        aggregated_
            ? unwrap_aggregate(std::move(msg), MessageType::kVolumeReport,
                               rows)
            : std::move(msg));
  }
  const Vector x = noc_.assemble_volumes(t, reports);
  // Scores decode in ascending child order, which every deployment shares,
  // so the fused trajectory is bit-identical across them.
  std::vector<MonitorScore> scores;
  if (fusion_) {
    for (auto& [child, msg] : scores_) {
      const std::vector<MonitorScore> part = parse_score_report(
          aggregated_ ? unwrap_aggregate(std::move(msg),
                                         MessageType::kScoreReport, rows)
                      : std::move(msg));
      scores.insert(scores.end(), part.begin(), part.end());
    }
  }

  IntervalVerdict verdict;
  if (++observed_ >= noc_.config().window) {  // past the warm-up
    verdict.detection = noc_.detect_with_pull(
        t, x, [&] { pull(t, bus, await); }, bus);
  }
  // During warm-up fusion abstains, but still runs so that metrics and
  // traces match interval for interval across deployments.
  if (fusion_) verdict.fused = fusion_->fuse(t, verdict.detection, scores);
  return verdict;
}

void NocStep::pull(std::int64_t t, Transport& bus, const AwaitPolicy& await) {
  if (noc_.config().host_sketches) {
    noc_.pull_hosted();
    return;
  }
  responses_.clear();
  noc_.request_sketches(t, children_, bus);
  pulling_ = true;
  const bool answered = await(
      [&] {
        absorb(bus);
        return complete(responses_);
      },
      "sketch responses");
  pulling_ = false;
  if (!answered) throw TransportError("noc: stopped during a sketch pull");
  const std::size_t rows = noc_.config().sketch_rows;
  for (auto& [child, msg] : responses_) {
    if (aggregated_) {
      noc_.ingest_sketch_response(unwrap_aggregate(
          std::move(msg), MessageType::kSketchResponse, rows));
    } else {
      noc_.ingest_sketch_response(msg);
    }
  }
  responses_.clear();
  noc_.refit();
}

void NocStep::rerequest_missing(Transport& bus) {
  if (!pulling_) return;
  for (const NodeId child : children_) {
    if (responses_.count(child) != 0) continue;
    bus.send(sketch_request(kNocId, child, interval_));
  }
}

}  // namespace spca
