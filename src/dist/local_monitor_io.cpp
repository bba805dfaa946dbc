// Checkpoint format of a LocalMonitor (versioned, little-endian):
//
//   u32 magic 'SPCM' | u32 version
//   u32 id | u64 window | f64 epsilon | u64 sketch_rows | u8 counter_only
//   projection: u8 kind | u64 seed | f64 sparsity
//   u32[] flow ids
//   counter: f64[] unflushed buckets | u64 intervals_completed
//   per sketch (omitted when counter_only):
//     i64 now | u64 bucket_count
//     per bucket: i64 timestamp | u64 count | f64 mean | f64 variance
//                 | f64[] payload
//   u8 has_scorer | FirstLineScorer state when 1 (version 2; see
//                   detect/first_line.cpp for the scalar run)
//
// This is everything a monitor owns: a restore answers the next sketch
// request bit-identically to a monitor that never died. The surrounding
// file-level CRC/versioning lives in CheckpointStore
// (common/checkpoint_store); this blob only has to be internally consistent.
#include <utility>

#include "common/serialize.hpp"
#include "dist/local_monitor.hpp"

namespace spca {

namespace {
constexpr std::uint32_t kMagic = 0x4D435053;  // "SPCM"
// v2 appended the first-line scorer section; v1 blobs (pre-ensemble) are
// rejected rather than silently restored with a cold scorer, which would
// break the bit-identical-restore guarantee for fusion deployments.
constexpr std::uint32_t kVersion = 2;
}  // namespace

std::vector<std::byte> LocalMonitor::save_state() const {
  ByteWriter out;
  out.put(kMagic);
  out.put(kVersion);

  out.put(id_);
  out.put(window_);
  out.put(epsilon_);
  out.put(static_cast<std::uint64_t>(sketch_rows_));
  out.put(static_cast<std::uint8_t>(counter_only_ ? 1 : 0));
  out.put(static_cast<std::uint8_t>(projection_.kind()));
  out.put(projection_.seed());
  out.put(projection_.sparsity());
  out.put_all(flows_);
  out.put_all(counter_.buckets());
  out.put(counter_.intervals_completed());

  for (const FlowSketch& sketch : sketches_) {
    const VarianceHistogram& vh = sketch.histogram();
    out.put(vh.now());
    out.put(static_cast<std::uint64_t>(vh.buckets().size()));
    for (const VhBucket& b : vh.buckets()) {
      out.put(b.timestamp);
      out.put(b.count);
      out.put(b.mean);
      out.put(b.variance);
      out.put_all(b.payload);
    }
  }
  out.put(static_cast<std::uint8_t>(scorer_ ? 1 : 0));
  if (scorer_) scorer_->save(out);
  return std::move(out).take();
}

LocalMonitor LocalMonitor::restore_state(const std::vector<std::byte>& blob) {
  ByteReader in(blob);
  if (in.get<std::uint32_t>() != kMagic) {
    throw ProtocolError("LocalMonitor::restore_state: bad magic");
  }
  if (in.get<std::uint32_t>() != kVersion) {
    throw ProtocolError("LocalMonitor::restore_state: unknown version");
  }

  const auto id = in.get<NodeId>();
  const auto window = in.get<std::uint64_t>();
  const auto epsilon = in.get<double>();
  const auto sketch_rows = static_cast<std::size_t>(in.get<std::uint64_t>());
  const bool counter_only = in.get<std::uint8_t>() != 0;
  const auto kind = static_cast<ProjectionKind>(in.get<std::uint8_t>());
  const auto seed = in.get<std::uint64_t>();
  const auto sparsity = in.get<double>();
  if (kind != ProjectionKind::kGaussian && kind != ProjectionKind::kTugOfWar &&
      kind != ProjectionKind::kSparse && kind != ProjectionKind::kVerySparse) {
    throw ProtocolError("LocalMonitor::restore_state: bad projection kind");
  }
  const ProjectionSource projection(kind, seed, sparsity);

  if (id == kNocId) {
    throw ProtocolError("LocalMonitor::restore_state: bad monitor id");
  }
  std::vector<FlowId> flows = in.get_all<FlowId>();
  if (flows.empty()) {
    throw ProtocolError("LocalMonitor::restore_state: no flows");
  }
  LocalMonitor monitor(id, std::move(flows), window, epsilon, sketch_rows,
                       projection, counter_only);

  std::vector<double> buckets = in.get_all<double>();
  if (buckets.size() != monitor.flows_.size()) {
    throw ProtocolError("LocalMonitor::restore_state: bad counter shape");
  }
  const auto intervals = in.get<std::uint64_t>();
  monitor.counter_ = VolumeCounter::from_state(std::move(buckets), intervals);

  if (!counter_only) {
    monitor.sketches_.clear();
    monitor.sketches_.reserve(monitor.flows_.size());
    for (std::size_t j = 0; j < monitor.flows_.size(); ++j) {
      const auto now = in.get<std::int64_t>();
      const auto bucket_count = in.get<std::uint64_t>();
      std::vector<VhBucket> vh_buckets;
      vh_buckets.reserve(bucket_count);
      for (std::uint64_t b = 0; b < bucket_count; ++b) {
        VhBucket bucket;
        bucket.timestamp = in.get<std::int64_t>();
        bucket.count = in.get<std::uint64_t>();
        bucket.mean = in.get<double>();
        bucket.variance = in.get<double>();
        bucket.payload = in.get_all<double>();
        vh_buckets.push_back(std::move(bucket));
      }
      monitor.sketches_.push_back(FlowSketch::from_state(
          window, epsilon, sketch_rows, projection, std::move(vh_buckets),
          now));
    }
  }
  if (in.get<std::uint8_t>() != 0) {
    monitor.scorer_ = FirstLineScorer::restore(in);
  }
  if (!in.exhausted()) {
    throw ProtocolError("LocalMonitor::restore_state: trailing bytes");
  }
  return monitor;
}

}  // namespace spca
