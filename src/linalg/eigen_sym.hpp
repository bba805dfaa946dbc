// Symmetric eigendecomposition via the cyclic Jacobi rotation method.
//
// Jacobi is the right tool here: the matrices are small (m x m covariance
// matrices with m = number of OD flows, at most a few hundred), it is
// backward stable, and it computes small eigenvalues to high *relative*
// accuracy — which matters because the Q-statistic threshold (eq. 7/22 of
// the paper) is built from the residual eigenvalues sigma_{r+1..m}, the
// smallest ones.
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace spca {

/// Result of a symmetric eigendecomposition A = V diag(lambda) V^T.
struct EigenSym {
  /// Eigenvalues in descending order.
  Vector values;
  /// Orthonormal eigenvectors as columns, ordered to match `values`.
  Matrix vectors;
  /// Jacobi sweeps the solve actually performed (cold + any warm attempt).
  int sweeps = 0;
  /// True when a warm-started solve abandoned the rotated problem and fell
  /// back to the cold path (rank-deficient / near-degenerate spectra).
  bool warm_fallback = false;
};

/// Decomposes the symmetric matrix `a`.
///
/// Preconditions: `a` is square and numerically symmetric.
/// Throws NumericalError if the sweep limit is exceeded (does not happen for
/// symmetric input; the limit guards against NaN poisoning).
[[nodiscard]] EigenSym eigen_symmetric(const Matrix& a, int max_sweeps = 64);

/// Warm-started variant for streaming use: when `a` differs only slightly
/// from a matrix whose eigenbasis `warm_basis` is known (the sliding-window
/// covariance between consecutive intervals), rotating into that basis
/// first — B = V^T A V — leaves B nearly diagonal, so Jacobi converges in
/// one or two sweeps instead of O(log) of them. Results are identical to
/// the cold solver up to rounding. `warm_basis` must be m x m orthonormal.
///
/// The inner solve runs under a `warm_sweeps` budget: spectra with repeated
/// or near-degenerate eigenvalues rotate the eigenbasis arbitrarily between
/// windows, which can leave B far from diagonal — instead of burning the
/// full sweep limit there, the solve falls back to the cold path on `a` and
/// reports it via `EigenSym::warm_fallback`.
[[nodiscard]] EigenSym eigen_symmetric_warm(const Matrix& a,
                                            const Matrix& warm_basis,
                                            int max_sweeps = 64,
                                            int warm_sweeps = 8);

}  // namespace spca
