// Counter-based shared source of random projection coefficients r_{t,k}.
//
// The paper (Sec. IV-B) requires that all local monitors use the SAME
// pseudo-random numbers r_{t,k} for time interval t and sketch row k, so the
// NOC can assemble sketch columns from different monitors into one coherent
// projection of the traffic matrix. Distributing a generator state would
// require synchronization; instead we derive every coefficient from a keyed
// hash of (seed, t, k), so any monitor can evaluate any coefficient at any
// time, in O(1), with no communication — the "n pseudo random number
// generators shared by all flows among local monitors" of Fig. 4.
//
// Four schemes are supported, matching Sec. V-B:
//   * Gaussian        — standard normal entries (Vempala's random projection)
//   * Tug-of-war      — ±1 entries (Alon, Gibbons, Matias, Szegedy)
//   * Sparse          — Achlioptas: ±sqrt(s) w.p. 1/(2s) each, else 0
//   * Very sparse     — Li, Hastie, Church: sparse with s = sqrt(n)
// All schemes are scaled to unit variance so E(|z|^2) = |y|^2 holds.
#pragma once

#include <cstdint>
#include <string_view>

namespace spca {

/// Which random-projection distribution generates the coefficients.
enum class ProjectionKind {
  kGaussian,
  kTugOfWar,
  kSparse,
  kVerySparse,
};

/// Human-readable name ("gaussian", "tug-of-war", ...).
[[nodiscard]] std::string_view to_string(ProjectionKind kind) noexcept;

/// Parses a name produced by `to_string`; throws InputError on mismatch.
[[nodiscard]] ProjectionKind projection_kind_from_string(std::string_view name);

/// Stateless functor producing r_{t,k} for any (interval, row) pair.
///
/// Deterministic in (seed, kind, sparsity): two instances constructed with
/// equal parameters return identical coefficients — this is the property the
/// distributed protocol relies on.
class ProjectionSource final {
 public:
  /// `sparsity_s` is the `s` of the (very) sparse schemes and is ignored by
  /// the Gaussian and tug-of-war schemes. Must be >= 1.
  ProjectionSource(ProjectionKind kind, std::uint64_t seed,
                   double sparsity_s = 3.0);

  /// Convenience factory for the very sparse scheme with s = sqrt(n), the
  /// setting recommended by Li et al. for a window of length n.
  [[nodiscard]] static ProjectionSource very_sparse(std::uint64_t seed,
                                                    std::size_t window_n);

  /// The projection coefficient for time interval `t`, sketch row `k`.
  [[nodiscard]] double value(std::int64_t t, std::size_t k) const noexcept;

  [[nodiscard]] ProjectionKind kind() const noexcept { return kind_; }
  [[nodiscard]] double sparsity() const noexcept { return sparsity_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  ProjectionKind kind_;
  std::uint64_t seed_;
  double sparsity_;
};

/// The projection source of a deployment's detector parameters: the very
/// sparse scheme takes s = sqrt(window) (Li et al.), every other scheme the
/// given `sparsity`. Every node that sketches builds its source here, so
/// monitors, NOC-hosted sketches and the single-process detector agree.
[[nodiscard]] ProjectionSource projection_source_for(ProjectionKind kind,
                                                     std::uint64_t seed,
                                                     double sparsity,
                                                     std::size_t window);

}  // namespace spca
