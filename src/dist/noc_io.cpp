// Checkpoint format of the Noc (versioned, little-endian):
//
//   u32 magic 'SPCN' | u32 version (2)
//   config: u64 window | u64 sketch_rows | f64 alpha
//           | u8 rank_kind | u64 fixed_rank | f64 energy_fraction
//           | f64 ksigma_k | f64 scree_knee
//           | u8 lazy | u8 host_sketches | f64 epsilon
//           | u8 projection_kind | f64 sparsity | u64 seed
//           | backend config (see write_backend_config: u8 kind
//             | f64 drift_threshold | i32 warm_sweeps | u64 rank
//             | u64 oversample | i32 power_iters | u64 fd_rows | u64 seed)
//   u64 m | u64 sketch_pulls | u64 alarms_sent
//   per flow (m times): f64 mean | u64 count | u8 seen | f64[] sketch
//   u64 hosted_count (0 or m); per hosted sketch:
//     i64 now | u64 bucket_count
//     per bucket: i64 timestamp | u64 count | f64 mean | f64 variance
//                 | f64[] payload
//   model: u8 fitted; if fitted: u64 sample_count | f64[] singular_values
//          | f64[] components (row-major m*m) | u64 basis_cols | f64[] means
//          | u64 rank | f64 threshold_squared
//   backend state (kind-specific, see ModelBackend::save_state)
//
// Version history: v1 had no backend config/state section and no
// basis_cols; v1 blobs are no longer readable (restore throws
// ProtocolError on the version word).
#include <utility>

#include "common/serialize.hpp"
#include "dist/noc.hpp"

namespace spca {

namespace {
constexpr std::uint32_t kMagic = 0x4E435053;  // "SPCN"
constexpr std::uint32_t kVersion = 2;
}  // namespace

std::vector<std::byte> Noc::save_state() const {
  ByteWriter out;
  out.put(kMagic);
  out.put(kVersion);

  out.put(static_cast<std::uint64_t>(config_.window));
  out.put(static_cast<std::uint64_t>(config_.sketch_rows));
  out.put(config_.alpha);
  out.put(static_cast<std::uint8_t>(config_.rank_policy.kind));
  out.put(static_cast<std::uint64_t>(config_.rank_policy.fixed_rank));
  out.put(config_.rank_policy.energy_fraction);
  out.put(config_.rank_policy.ksigma_k);
  out.put(config_.rank_policy.scree_knee);
  out.put(static_cast<std::uint8_t>(config_.lazy ? 1 : 0));
  out.put(static_cast<std::uint8_t>(config_.host_sketches ? 1 : 0));
  out.put(config_.epsilon);
  out.put(static_cast<std::uint8_t>(config_.projection));
  out.put(config_.sparsity);
  out.put(config_.seed);
  write_backend_config(out, config_.backend);

  out.put(static_cast<std::uint64_t>(m_));
  out.put(sketch_pulls_);
  out.put(alarms_sent_);

  for (const FlowState& state : flow_state_) {
    out.put(state.mean);
    out.put(state.count);
    out.put(static_cast<std::uint8_t>(state.seen ? 1 : 0));
    out.put_all(state.sketch);
  }

  out.put(static_cast<std::uint64_t>(hosted_sketches_.size()));
  for (const FlowSketch& sketch : hosted_sketches_) {
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

  out.put(static_cast<std::uint8_t>(model_.has_value() ? 1 : 0));
  if (model_.has_value()) {
    out.put(model_->sample_count());
    out.put_all(model_->singular_values().data());
    std::vector<double> components(m_ * m_);
    for (std::size_t i = 0; i < m_; ++i) {
      for (std::size_t j = 0; j < m_; ++j) {
        components[i * m_ + j] = model_->components()(i, j);
      }
    }
    out.put_all(components);
    out.put(static_cast<std::uint64_t>(model_->basis_cols()));
    out.put_all(model_->column_means().data());
    out.put(static_cast<std::uint64_t>(rank_));
    out.put(threshold_squared_);
  }
  backend_->save_state(out);
  return std::move(out).take();
}

Noc Noc::restore_state(const std::vector<std::byte>& blob,
                       std::optional<ModelBackendKind> expected_backend) {
  ByteReader in(blob);
  if (in.get<std::uint32_t>() != kMagic) {
    throw ProtocolError("Noc::restore_state: bad magic");
  }
  if (in.get<std::uint32_t>() != kVersion) {
    throw ProtocolError("Noc::restore_state: unknown version");
  }

  NocConfig config;
  config.window = static_cast<std::size_t>(in.get<std::uint64_t>());
  config.sketch_rows = static_cast<std::size_t>(in.get<std::uint64_t>());
  config.alpha = in.get<double>();
  config.rank_policy.kind =
      static_cast<RankPolicy::Kind>(in.get<std::uint8_t>());
  config.rank_policy.fixed_rank =
      static_cast<std::size_t>(in.get<std::uint64_t>());
  config.rank_policy.energy_fraction = in.get<double>();
  config.rank_policy.ksigma_k = in.get<double>();
  config.rank_policy.scree_knee = in.get<double>();
  config.lazy = in.get<std::uint8_t>() != 0;
  config.host_sketches = in.get<std::uint8_t>() != 0;
  config.epsilon = in.get<double>();
  config.projection = static_cast<ProjectionKind>(in.get<std::uint8_t>());
  config.sparsity = in.get<double>();
  config.seed = in.get<std::uint64_t>();
  config.backend = read_backend_config(in);
  if (config.alpha <= 0.0 || config.alpha >= 1.0 || config.sketch_rows == 0) {
    throw ProtocolError("Noc::restore_state: bad config");
  }
  if (expected_backend && config.backend.kind != *expected_backend) {
    throw ProtocolError(
        std::string("Noc::restore_state: checkpoint written by the '") +
        to_string(config.backend.kind) + "' model backend, expected '" +
        to_string(*expected_backend) + "'");
  }

  const auto m = static_cast<std::size_t>(in.get<std::uint64_t>());
  if (m < 2) throw ProtocolError("Noc::restore_state: bad flow count");
  Noc noc(m, config);
  noc.sketch_pulls_ = in.get<std::uint64_t>();
  noc.alarms_sent_ = in.get<std::uint64_t>();

  for (FlowState& state : noc.flow_state_) {
    state.mean = in.get<double>();
    state.count = in.get<std::uint64_t>();
    state.seen = in.get<std::uint8_t>() != 0;
    state.sketch = in.get_all<double>();
    if (state.seen && state.sketch.size() != config.sketch_rows) {
      throw ProtocolError("Noc::restore_state: bad sketch shape");
    }
  }

  const auto hosted_count = in.get<std::uint64_t>();
  if (hosted_count != noc.hosted_sketches_.size()) {
    throw ProtocolError("Noc::restore_state: hosted sketch count mismatch");
  }
  if (hosted_count > 0) {
    const ProjectionSource source =
        projection_source_for(config.projection, config.seed, config.sparsity,
                              config.window);
    noc.hosted_sketches_.clear();
    for (std::uint64_t j = 0; j < hosted_count; ++j) {
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
      noc.hosted_sketches_.push_back(FlowSketch::from_state(
          config.window, config.epsilon, config.sketch_rows, source,
          std::move(buckets), now));
    }
  }

  if (in.get<std::uint8_t>() != 0) {
    const auto sample_count = in.get<std::uint64_t>();
    Vector singular_values(in.get_all<double>());
    const std::vector<double> components_flat = in.get_all<double>();
    const auto basis_cols = static_cast<std::size_t>(in.get<std::uint64_t>());
    Vector means(in.get_all<double>());
    if (singular_values.size() != m || means.size() != m ||
        components_flat.size() != m * m || basis_cols > m) {
      throw ProtocolError("Noc::restore_state: bad model shape");
    }
    Matrix components(m, m);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        components(i, j) = components_flat[i * m + j];
      }
    }
    noc.model_ = PcaModel::from_parts(std::move(singular_values),
                                      std::move(components), std::move(means),
                                      sample_count, basis_cols);
    noc.rank_ = static_cast<std::size_t>(in.get<std::uint64_t>());
    noc.threshold_squared_ = in.get<double>();
  }
  noc.backend_->restore_state(in);
  if (!in.exhausted()) {
    throw ProtocolError("Noc::restore_state: trailing bytes");
  }
  return noc;
}

}  // namespace spca
