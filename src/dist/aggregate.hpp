// Aggregation codec of the hierarchical deployment: a regional NOC merges
// the per-monitor messages of its shard (volume reports, sketch responses,
// or first-line score reports) into one kAggregate message, and the root
// NOC unwraps it back into the inner message type.
//
// The codec exists so the hierarchy is invisible to the detection protocol:
// merging is pure concatenation in ascending sender-id order, and the root's
// assembly/ingest paths are keyed by flow id, so a run through regional
// NOCs is bit-identical to the flat deployment by construction. The inner
// kind is never written on the wire — it is recovered from the payload
// shape (a volume report carries one value per id; a score report carries
// two; a sketch response carries a [mean, count, z_1..z_l] block per id,
// always >= 3 values since l >= 1), so the shapes can only coincide on an
// empty payload, which is rejected.
//
// Node-id spaces: the root NOC is 0, monitors are 1..k, and regional NOCs
// live at kRegionBase + region, so the spaces can never collide.
#pragma once

#include <cstddef>
#include <vector>

#include "dist/message.hpp"

namespace spca {

/// First regional-NOC node id (monitors are far below: k <= num flows).
inline constexpr NodeId kRegionBase = 0x10000;

/// Node id of region `region` (0-based).
[[nodiscard]] constexpr NodeId region_node_id(std::size_t region) noexcept {
  return kRegionBase + static_cast<NodeId>(region);
}

/// True for ids in the regional-NOC space.
[[nodiscard]] constexpr bool is_region_node(NodeId id) noexcept {
  return id >= kRegionBase;
}

/// Inverse of region_node_id.
[[nodiscard]] constexpr std::size_t region_index(NodeId id) noexcept {
  return static_cast<std::size_t>(id - kRegionBase);
}

/// Node ids of an R-region hierarchy, in region order.
[[nodiscard]] std::vector<NodeId> region_node_ids(std::size_t regions);

/// Contiguous-block partition of monitors 1..k over R regions: region r
/// owns monitors [r*k/R + 1, (r+1)*k/R]. Requires 1 <= R <= k, so every
/// region owns at least one monitor.
[[nodiscard]] std::size_t region_of_monitor(std::size_t monitors,
                                            std::size_t regions,
                                            NodeId monitor);

/// The monitor ids of region `region` under the partition above, ascending.
[[nodiscard]] std::vector<NodeId> region_monitor_ids(std::size_t monitors,
                                                     std::size_t regions,
                                                     std::size_t region);

/// Merges same-type, same-interval per-monitor messages into one kAggregate
/// from `from` to `to`, concatenating ids and values in ascending sender-id
/// order — the bit-stable merge order, independent of arrival order. Parts
/// must be kVolumeReport, kSketchResponse, or kScoreReport, non-empty, and
/// from distinct senders; throws ProtocolError otherwise.
[[nodiscard]] Message merge_aggregate(std::vector<Message> parts, NodeId from,
                                      NodeId to);

/// True when `msg` is a kAggregate whose payload has the shape of `inner`
/// (kVolumeReport: one value per id; kScoreReport: two values per id;
/// kSketchResponse: sketch_rows + 2 values per id). Lets the root tell a
/// stale volume aggregate from a score or sketch aggregate while all three
/// ride the same message type.
[[nodiscard]] bool aggregate_shape_is(const Message& msg, MessageType inner,
                                      std::size_t sketch_rows) noexcept;

/// Validates `agg` against the expected inner type and returns the payload
/// re-typed as `inner` (from/to/interval preserved), so the root NOC feeds
/// it through the exact code path a flat deployment uses. Takes `agg` by
/// value: a moved-in aggregate is re-typed without copying its payload.
/// Throws ProtocolError on a type or shape mismatch.
[[nodiscard]] Message unwrap_aggregate(Message agg, MessageType inner,
                                       std::size_t sketch_rows);

}  // namespace spca
