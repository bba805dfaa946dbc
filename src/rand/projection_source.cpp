#include "rand/projection_source.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "rand/distributions.hpp"
#include "rand/projection_prf.hpp"

namespace spca {

namespace {

/// Keyed PRF: hashes (seed, t, k, lane) into 64 well-mixed bits. The
/// definition lives in rand/projection_prf.hpp so the batched SIMD kernel
/// shares it bit for bit.
std::uint64_t prf(std::uint64_t seed, std::int64_t t, std::size_t k,
                  std::uint64_t lane) noexcept {
  return projection_prf(seed, t, k, lane);
}

}  // namespace

std::string_view to_string(ProjectionKind kind) noexcept {
  switch (kind) {
    case ProjectionKind::kGaussian:
      return "gaussian";
    case ProjectionKind::kTugOfWar:
      return "tug-of-war";
    case ProjectionKind::kSparse:
      return "sparse";
    case ProjectionKind::kVerySparse:
      return "very-sparse";
  }
  return "?";
}

ProjectionKind projection_kind_from_string(std::string_view name) {
  if (name == "gaussian") return ProjectionKind::kGaussian;
  if (name == "tug-of-war") return ProjectionKind::kTugOfWar;
  if (name == "sparse") return ProjectionKind::kSparse;
  if (name == "very-sparse") return ProjectionKind::kVerySparse;
  throw InputError("unknown projection kind: '" + std::string(name) + "'");
}

ProjectionSource::ProjectionSource(ProjectionKind kind, std::uint64_t seed,
                                   double sparsity_s)
    : kind_(kind), seed_(seed), sparsity_(sparsity_s) {
  SPCA_EXPECTS(sparsity_s >= 1.0);
}

ProjectionSource ProjectionSource::very_sparse(std::uint64_t seed,
                                               std::size_t window_n) {
  SPCA_EXPECTS(window_n >= 1);
  return ProjectionSource(ProjectionKind::kVerySparse, seed,
                          std::sqrt(static_cast<double>(window_n)));
}

ProjectionSource projection_source_for(ProjectionKind kind,
                                       std::uint64_t seed, double sparsity,
                                       std::size_t window) {
  return kind == ProjectionKind::kVerySparse
             ? ProjectionSource::very_sparse(seed, window)
             : ProjectionSource(kind, seed, sparsity);
}

double ProjectionSource::value(std::int64_t t, std::size_t k) const noexcept {
  const std::uint64_t h0 = prf(seed_, t, k, 0);
  switch (kind_) {
    case ProjectionKind::kGaussian: {
      const std::uint64_t h1 = prf(seed_, t, k, 1);
      return box_muller(bits_to_open_unit_double(h0),
                        bits_to_unit_double(h1));
    }
    case ProjectionKind::kTugOfWar:
      return (h0 & 1ULL) ? 1.0 : -1.0;
    case ProjectionKind::kSparse:
    case ProjectionKind::kVerySparse: {
      // +/- sqrt(s) with probability 1/(2s) each, 0 otherwise: unit variance.
      const double u = bits_to_unit_double(h0);
      const double inv_2s = 0.5 / sparsity_;
      if (u < inv_2s) return std::sqrt(sparsity_);
      if (u < 2.0 * inv_2s) return -std::sqrt(sparsity_);
      return 0.0;
    }
  }
  return 0.0;  // unreachable
}

}  // namespace spca
