"""Dense symmetric-matrix kernel.

All numerical work in the package funnels through here: spectral
decompositions, matrix exponentials and square roots, norms, and image
bases.  Matrices are plain float ndarrays; ``as_symmetric`` is the
canonical constructor and enforces the two invariants every routine
assumes, exact symmetry and finite entries.

Sizes stay small (side <= ~200), so everything uses dense LAPACK paths
via numpy and favours determinism over speed.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    NotPsdError,
    NumericError,
    PreconditionError,
)
from .record import Record

# Relative eigenvalue cutoff below which a direction counts as kernel.
RANK_TOL = 1e-9
# Relative cutoff of ``image_basis``: round-off only.  A congruence of
# condition c spreads a PSD matrix's spectrum by up to c^2, so a cut at
# RANK_TOL drops real directions of its image once c nears 1e4.
IMAGE_TOL = 1e-14
# Eigenvalues closer than this (relative to the operator norm) are treated
# as one degenerate cluster; shared with the derivative and rescaling code
# so both see identical eigenspaces.
CLUSTER_TOL = 1e-8
# exp() overflows just above 709; anything near this signals a step-size bug.
EXP_CAP = 700.0
# Largest accepted residual ||V diag(lam) V^T - m||_F of an eigendecomposition,
# relative to 1 + ||m||_F.
SPECTRAL_TOL = 1e-10


def as_symmetric(a) -> np.ndarray:
    """Validate and symmetrize a square matrix, or a stack of them: (a + a^T) / 2."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise PreconditionError("matrix has non-finite entries")
    return (a + a.swapaxes(-1, -2)) / 2.0


class SpectralDecomposition(Record):
    """Eigenvalues sorted descending with matching orthonormal columns.

    Holds one matrix, (k,) and (k, k), or a stack, (..., k) and (..., k, k).
    """

    __slots__ = ("eigenvalues", "eigenvectors")

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray):
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "eigenvectors", eigenvectors)

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ v.swapaxes(-1, -2)

    def top_cluster(self) -> np.ndarray:
        """Eigenvectors of the largest eigenvalue, as the columns of one (k, K) array.

        Eigenvalues within CLUSTER_TOL times the operator norm of the top
        one count as degenerate and are merged into the cluster.  For one
        matrix the columns are an orthonormal basis of that eigenspace; for
        a stack they are those bases one matrix after another.
        """
        lam = self.eigenvalues
        scale = np.maximum(abs(lam[..., :1]), abs(lam[..., -1:]))
        keep = lam >= lam[..., :1] - CLUSTER_TOL * scale
        return self.eigenvectors.swapaxes(-1, -2)[keep].T


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (a 0-d array for one matrix)."""
    return np.sqrt((m * m).sum(axis=(-2, -1)))


def spectral_decompose(m: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix or a stack of them, eigenvalues descending.

    Raises ConvergenceError if the eigensolver fails or the reconstruction
    residual of any matrix exceeds ``SPECTRAL_TOL * (1 + ||m||_F)``.
    """
    m = as_symmetric(m)
    try:
        lam, vec = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    dec = SpectralDecomposition(eigenvalues=lam[..., ::-1], eigenvectors=vec[..., ::-1])
    residual = _frobenius(dec.reconstruct() - m)
    if (residual > SPECTRAL_TOL * (1.0 + _frobenius(m))).any():
        raise ConvergenceError(
            "spectral reconstruction residual too large", residual=float(residual.max())
        )
    return dec


def operator_norm(m: np.ndarray) -> float:
    """Largest eigenvalue in absolute value of a symmetric matrix."""
    m = as_symmetric(m)
    if m.shape[0] == 0:
        return 0.0
    lam = np.linalg.eigvalsh(m)
    return float(np.max(np.abs(lam)))


def matrix_exponential(m: np.ndarray) -> np.ndarray:
    """exp(m) for symmetric m, computed through the eigendecomposition."""
    dec = spectral_decompose(m)
    lam = dec.eigenvalues
    if lam.size and lam[0] > EXP_CAP:
        raise NumericError(
            f"matrix exponential overflows: top eigenvalue {lam[0]:.3g} "
            f"exceeds cap {EXP_CAP:.3g}"
        )
    v = dec.eigenvectors
    return as_symmetric((v * np.exp(lam)) @ v.T)


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """PSD square root; eigenvalues in [-RANK_TOL * scale, 0) are clipped to zero."""
    dec = spectral_decompose(m)
    lam = dec.eigenvalues
    scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    if lam.size and lam[-1] < -RANK_TOL * max(scale, 1.0):
        raise NotPsdError(
            f"matrix is not PSD: min eigenvalue {lam[-1]:.3g}"
        )
    v = dec.eigenvectors
    return as_symmetric((v * np.sqrt(np.clip(lam, 0.0, None))) @ v.T)


def eig_clip(m: np.ndarray, min_eig: float = 0.0, max_eig: float | None = None) -> np.ndarray:
    """Symmetrize and clip the spectrum into [min_eig, max_eig], batched over a stack.

    One batched ``eigh``; the result is symmetric up to round-off.
    """
    lam, vec = np.linalg.eigh(as_symmetric(m))
    return np.einsum("...ab,...b,...cb->...ac", vec, np.clip(lam, min_eig, max_eig), vec)


def image_basis(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the image of a PSD matrix, as the columns of a (k, d) array.

    Directions with eigenvalue > IMAGE_TOL * lambda_max are kept; the zero
    matrix gives d = 0.  A negative eigenvalue below -RANK_TOL * lambda_max
    raises NotPsdError.
    """
    dec = spectral_decompose(m)
    lam = dec.eigenvalues
    scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    if lam.size and lam[-1] < -RANK_TOL * max(scale, 1.0):
        raise NotPsdError(f"matrix is not PSD: min eigenvalue {lam[-1]:.3g}")
    return dec.eigenvectors[:, lam > IMAGE_TOL * scale]
