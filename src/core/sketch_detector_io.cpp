// Checkpoint format of the SketchDetector (versioned, little-endian):
//
//   u32 magic 'SPCA' | u32 version (2)
//   config: u64 window | f64 epsilon | u64 sketch_rows | f64 alpha
//           | u8 rank_kind | u64 fixed_rank | f64 energy_fraction
//           | f64 ksigma_k | f64 scree_knee
//           | u8 projection_kind | f64 sparsity | u64 seed | u8 lazy
//           | backend config (see write_backend_config: u8 kind
//             | f64 drift_threshold | i32 warm_sweeps | u64 rank
//             | u64 oversample | i32 power_iters | u64 fd_rows | u64 seed)
//   u64 dimensions | u64 observed | u64 model_computations
//   model: u8 fitted; if fitted: u64 sample_count | f64[] singular_values
//          | f64[] components (row-major m*m) | u64 basis_cols | f64[] means
//          | u64 rank | f64 threshold_squared
//   backend state (kind-specific, see ModelBackend::save_state)
//   per flow (dimensions times):
//     i64 now | u64 bucket_count
//     per bucket: i64 timestamp | u64 count | f64 mean | f64 variance
//                 | f64[] payload
//
// Version history: v1 had no backend config/state section and no
// basis_cols; v1 blobs are no longer readable (restore throws
// ProtocolError on the version word).
#include <utility>

#include "common/serialize.hpp"
#include "core/sketch_detector.hpp"

namespace spca {

namespace {
constexpr std::uint32_t kMagic = 0x53504341;  // "SPCA"
constexpr std::uint32_t kVersion = 2;
}  // namespace

std::vector<std::byte> SketchDetector::save_state() const {
  ByteWriter out;
  out.put(kMagic);
  out.put(kVersion);

  out.put(static_cast<std::uint64_t>(config_.window));
  out.put(config_.epsilon);
  out.put(static_cast<std::uint64_t>(config_.sketch_rows));
  out.put(config_.alpha);
  out.put(static_cast<std::uint8_t>(config_.rank_policy.kind));
  out.put(static_cast<std::uint64_t>(config_.rank_policy.fixed_rank));
  out.put(config_.rank_policy.energy_fraction);
  out.put(config_.rank_policy.ksigma_k);
  out.put(config_.rank_policy.scree_knee);
  out.put(static_cast<std::uint8_t>(config_.projection));
  out.put(config_.sparsity);
  out.put(config_.seed);
  out.put(static_cast<std::uint8_t>(config_.lazy ? 1 : 0));
  write_backend_config(out, config_.backend);

  out.put(static_cast<std::uint64_t>(m_));
  out.put(observed_);
  out.put(model_computations_);

  out.put(static_cast<std::uint8_t>(model_.fitted() ? 1 : 0));
  if (model_.fitted()) {
    out.put(static_cast<std::uint64_t>(model_.sample_count()));
    out.put_all(model_.singular_values().data());
    std::vector<double> components(m_ * m_);
    for (std::size_t i = 0; i < m_; ++i) {
      for (std::size_t j = 0; j < m_; ++j) {
        components[i * m_ + j] = model_.components()(i, j);
      }
    }
    out.put_all(components);
    out.put(static_cast<std::uint64_t>(model_.basis_cols()));
    out.put_all(model_.column_means().data());
    out.put(static_cast<std::uint64_t>(rank_));
    out.put(threshold_squared_);
  }
  backend_->save_state(out);

  for (const FlowSketch& flow : flows_) {
    const VarianceHistogram& vh = flow.histogram();
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
  return std::move(out).take();
}

SketchDetector SketchDetector::restore_state(
    const std::vector<std::byte>& blob,
    std::optional<ModelBackendKind> expected_backend) {
  ByteReader in(blob);
  if (in.get<std::uint32_t>() != kMagic) {
    throw ProtocolError("SketchDetector::restore_state: bad magic");
  }
  if (in.get<std::uint32_t>() != kVersion) {
    throw ProtocolError("SketchDetector::restore_state: unknown version");
  }

  SketchDetectorConfig config;
  config.window = static_cast<std::size_t>(in.get<std::uint64_t>());
  config.epsilon = in.get<double>();
  config.sketch_rows = static_cast<std::size_t>(in.get<std::uint64_t>());
  config.alpha = in.get<double>();
  config.rank_policy.kind =
      static_cast<RankPolicy::Kind>(in.get<std::uint8_t>());
  config.rank_policy.fixed_rank =
      static_cast<std::size_t>(in.get<std::uint64_t>());
  config.rank_policy.energy_fraction = in.get<double>();
  config.rank_policy.ksigma_k = in.get<double>();
  config.rank_policy.scree_knee = in.get<double>();
  config.projection = static_cast<ProjectionKind>(in.get<std::uint8_t>());
  config.sparsity = in.get<double>();
  config.seed = in.get<std::uint64_t>();
  config.lazy = in.get<std::uint8_t>() != 0;
  config.backend = read_backend_config(in);
  if (expected_backend && config.backend.kind != *expected_backend) {
    throw ProtocolError(
        std::string("SketchDetector::restore_state: checkpoint written by "
                    "the '") +
        to_string(config.backend.kind) + "' model backend, expected '" +
        to_string(*expected_backend) + "'");
  }

  const auto m = static_cast<std::size_t>(in.get<std::uint64_t>());
  SketchDetector detector(m, config);
  detector.observed_ = in.get<std::uint64_t>();
  detector.model_computations_ = in.get<std::uint64_t>();

  if (in.get<std::uint8_t>() != 0) {
    const auto sample_count = in.get<std::uint64_t>();
    Vector singular_values(in.get_all<double>());
    const std::vector<double> components_flat = in.get_all<double>();
    const auto basis_cols = static_cast<std::size_t>(in.get<std::uint64_t>());
    Vector means(in.get_all<double>());
    if (singular_values.size() != m || means.size() != m ||
        components_flat.size() != m * m || basis_cols > m) {
      throw ProtocolError("SketchDetector::restore_state: bad model shape");
    }
    Matrix components(m, m);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        components(i, j) = components_flat[i * m + j];
      }
    }
    detector.model_ =
        PcaModel::from_parts(std::move(singular_values),
                             std::move(components), std::move(means),
                             sample_count, basis_cols);
    detector.rank_ = static_cast<std::size_t>(in.get<std::uint64_t>());
    detector.threshold_squared_ = in.get<double>();
  }
  detector.backend_->restore_state(in);

  const ProjectionSource source =
      projection_source_for(config.projection, config.seed, config.sparsity,
                              config.window);
  detector.flows_.clear();
  detector.flows_.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    const auto now = in.get<std::int64_t>();
    const auto bucket_count = in.get<std::uint64_t>();
    std::vector<VhBucket> buckets;
    buckets.reserve(bucket_count);
    for (std::uint64_t b = 0; b < bucket_count; ++b) {
      VhBucket bucket;
      bucket.timestamp = in.get<std::int64_t>();
      bucket.count = in.get<std::uint64_t>();
      bucket.mean = in.get<double>();
      bucket.variance = in.get<double>();
      bucket.payload = in.get_all<double>();
      buckets.push_back(std::move(bucket));
    }
    detector.flows_.push_back(FlowSketch::from_state(
        config.window, config.epsilon, config.sketch_rows, source,
        std::move(buckets), now));
  }
  if (!in.exhausted()) {
    throw ProtocolError("SketchDetector::restore_state: trailing bytes");
  }
  return detector;
}

}  // namespace spca
