// Regional NOC node (the middle tier of the hierarchical deployment): owns
// a shard of monitors, collects their per-interval messages, and forwards
// ONE merged kAggregate per phase up to the root NOC. Downstream it fans
// root sketch requests out to its monitors (kAdvance relaying is the
// daemon's, since control frames are not Messages).
//
// The node holds no sketch or model state — merging is pure concatenation
// in sorted monitor id order (dist/aggregate.hpp) — which is what makes a
// regional NOC cheap to restart: its monitors re-send their current
// interval on reconnect and the merge is reproduced bit-identically.
//
// `relay` is the node's whole per-pass behaviour, written once: the
// hierarchy simulation (hier/hier_scenario.hpp) calls it from the root's
// await policy, and the TCP regional daemon (hier/regional_daemon.hpp)
// from its event loop between waits on the socket.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "dist/aggregate.hpp"
#include "dist/message.hpp"
#include "net/transport.hpp"

namespace spca {

/// One regional NOC.
class RegionalNoc final {
 public:
  /// `monitors` is this region's monitor shard (any order; stored sorted).
  /// `next_interval` is the first interval whose reports are still to be
  /// forwarded (a restarted node resumes from its snapshot's interval).
  RegionalNoc(std::size_t region, std::vector<NodeId> monitors,
              std::size_t sketch_rows, std::int64_t next_interval = 0);

  [[nodiscard]] NodeId id() const noexcept { return region_node_id(region_); }
  [[nodiscard]] const std::vector<NodeId>& monitors() const noexcept {
    return monitors_;
  }

  /// One relay pass. Drains the mailbox: each root sketch request fans out
  /// to the whole shard at once; volume reports, score reports and sketch
  /// responses from the shard are stored keyed by sender (last-wins — a
  /// reconnecting monitor re-sends an identical copy). Then every store
  /// whose shard is complete on one interval (the kAdvance lock-step makes
  /// mixed intervals transient) is merged and sent to the root: sketch
  /// responses whenever complete (the root may re-request them), reports
  /// and scores once per interval (a merge of an interval already forwarded
  /// is a stale duplicate after a monitor reconnect and is dropped).
  /// Returns whether the pass forwarded or dropped anything. Messages from
  /// outside the shard, of a malformed shape or of an unexpected type throw
  /// ProtocolError.
  bool relay(Transport& bus);

  /// Merges performed by this node (all phases).
  [[nodiscard]] std::uint64_t merges() const noexcept { return merges_; }

 private:
  /// Stores one shard message keyed by sender.
  void store(Message msg);
  /// The interval every monitor of the shard reported in `pending`, if any.
  [[nodiscard]] std::optional<std::int64_t> ready(
      const std::map<NodeId, Message>& pending) const;
  /// Merges and clears `pending` into one kAggregate to the root.
  [[nodiscard]] Message take_merged(std::map<NodeId, Message>& pending);

  std::size_t region_;
  std::vector<NodeId> monitors_;  // sorted ascending
  std::size_t sketch_rows_;
  std::map<NodeId, Message> reports_;
  std::map<NodeId, Message> scores_;
  std::map<NodeId, Message> responses_;
  std::uint64_t merges_ = 0;
  /// Last interval whose report / score merge went to the root.
  std::int64_t reports_forwarded_through_;
  std::int64_t scores_forwarded_through_;
};

}  // namespace spca
