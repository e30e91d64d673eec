"""Dense symmetric-matrix kernel.

The shared kernels live here.  ``spectral_decompose`` gives a spectrum as
plain arrays (lam, vec), ``psd_spectrum`` refuses one that fails
``not_psd``, ``from_spectrum`` is the one rebuild V diag(lam) V^T and
``top_cluster`` reads the top eigenspace.  On top of them sit the matrix
exponential and square root, ``eig_clip``, norms and image bases;
``inner_products`` contracts two matrix stacks.  Work that batches
its own stacks calls ``np.linalg`` directly: in ``rescaling``,
``reduce_to_common_space``, ``mean_congruence``, the John decomposition
and the descent loop's SVDs; in ``factorization``, ``side_extremes`` and
``fit_factorization``; and in ``rounding``, ``_dual_values``,
``_single_row_duals`` and ``_decide``'s step norm and witness check.
Matrices are plain float ndarrays; ``as_symmetric`` is the canonical
constructor and enforces the two invariants every routine assumes, exact
symmetry and finite entries.

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

# Relative cutoff of the rank decisions: a singular value or residual norm
# at most RANK_TOL times the largest counts as zero.
RANK_TOL = 1e-9
# PSD acceptance slack: the least eigenvalue may dip to
# -PSD_TOL * (1 + max(lambda_max, 0)) from floating-point noise.
PSD_TOL = 1e-9
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


def from_spectrum(lam: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """V diag(lam) V^T, batched over a stack: lam (..., k) and V (..., j, k)."""
    return (vec * lam[..., None, :]) @ vec.swapaxes(-1, -2)


def top_cluster(lam: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Eigenvectors of the largest eigenvalue, as the columns of one (k, K) array.

    ``lam`` and ``vec`` are a spectrum as ``spectral_decompose`` gives it,
    eigenvalues descending.  Eigenvalues within CLUSTER_TOL times the
    operator norm of the top one count as degenerate and are merged into
    the cluster.  For one matrix the columns are an orthonormal basis of
    that eigenspace; for a stack they are those bases one matrix after
    another.
    """
    scale = np.maximum(abs(lam[..., :1]), abs(lam[..., -1:]))
    keep = lam >= lam[..., :1] - CLUSTER_TOL * scale
    return vec.swapaxes(-1, -2)[keep].T


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (a 0-d array for one matrix)."""
    return np.sqrt((m * m).sum(axis=(-2, -1)))


# As a decorator, errstate sets the error state per call, for less than a
# ``with`` block costs at these sizes.
@np.errstate(over="ignore", invalid="ignore")
def inner_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (k, l) matrix of trace inner products <A_i, B_j> of two stacks of one side s.

    One BLAS product of the flattened stacks, (k, s^2) times (s^2, l).  The
    sizes are written out, so an empty stack, (0, s, s), or side 0 gives a
    (k, l) array of zeros.  As with einsum, entries that overflow come back
    inf or NaN without a warning.
    """
    k, l, s = len(a), len(b), a.shape[-1]
    return a.reshape(k, s * s).dot(b.reshape(l, s * s).T)


def spectral_decompose(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (lam, vec) of a symmetric matrix or a stack of them.

    The eigenvalues, (k,) or (..., k), come sorted descending, with the
    matching orthonormal eigenvectors as the columns of vec, (k, k) or
    (..., k, k).  Raises ConvergenceError if the eigensolver fails or the
    reconstruction residual of any matrix exceeds
    ``SPECTRAL_TOL * (1 + ||m||_F)``.
    """
    m = as_symmetric(m)
    try:
        lam, vec = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    lam, vec = lam[..., ::-1], vec[..., ::-1]
    # Squares of entries above about 1e154 overflow to inf, and so does the
    # bound then; the test passes such a matrix without a warning.
    with np.errstate(over="ignore"):
        residual = _frobenius(from_spectrum(lam, vec) - m)
        failed = (residual > SPECTRAL_TOL * (1.0 + _frobenius(m))).any()
    if failed:
        raise ConvergenceError(
            "spectral reconstruction residual too large", residual=float(residual.max())
        )
    return lam, vec


def psd_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``spectral_decompose`` of one matrix whose spectrum passes ``not_psd``, else NotPsdError."""
    lam, vec = spectral_decompose(m)
    if not_psd(lam):
        raise NotPsdError(f"matrix is not PSD: min eigenvalue {lam[-1]:.3g}")
    return lam, vec


def not_psd(lam: np.ndarray) -> np.ndarray:
    """Whether each spectrum along the last axis fails the PSD test, in any order.

    A spectrum fails when its least eigenvalue is below
    -PSD_TOL * (1 + max(lambda_max, 0)); an empty one passes.
    """
    return lam.min(axis=-1, initial=0.0) < -PSD_TOL * (1.0 + lam.max(axis=-1, initial=0.0))


def operator_norms(factors) -> np.ndarray:
    """Operator norm of every matrix in a stack, from one batched eigvalsh.

    The spectrum comes back ascending, so max |lambda| is read off its two
    ends; ``+ 0.0`` turns a zero factor's -0.0 into 0.0, and matrices of
    side 0 have norm 0.  eigvalsh reads one triangle only, so the stack
    must be exactly symmetric, as every factorization's stacks are; it is
    not checked here.
    """
    lam = np.linalg.eigvalsh(factors)
    if not lam.shape[-1]:
        return np.zeros(lam.shape[:-1])
    return np.maximum(lam[..., -1], -lam[..., 0]) + 0.0


def operator_norm(m: np.ndarray) -> float:
    """Largest eigenvalue in absolute value of a symmetric matrix, or over a stack of them."""
    return float(operator_norms(as_symmetric(m)).max(initial=0.0))


def matrix_exponential(m: np.ndarray) -> np.ndarray:
    """exp(m) for symmetric m, computed through the eigendecomposition."""
    lam, vec = spectral_decompose(m)
    if lam.size and lam[0] > EXP_CAP:
        raise NumericError(
            f"matrix exponential overflows: top eigenvalue {lam[0]:.3g} "
            f"exceeds cap {EXP_CAP:.3g}"
        )
    return as_symmetric(from_spectrum(np.exp(lam), vec))


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """PSD square root; negative eigenvalues that pass ``not_psd`` are clipped to zero."""
    lam, vec = psd_spectrum(m)
    return as_symmetric(from_spectrum(np.sqrt(np.clip(lam, 0.0, None)), vec))


def eig_clip(m: np.ndarray, max_eig: float | None = None) -> np.ndarray:
    """Symmetrize and clip the spectrum into [0, max_eig], batched over a stack.

    One batched ``eigh`` and one batched product V diag(lambda) V^T; the
    result is symmetric up to round-off.
    """
    lam, vec = np.linalg.eigh(as_symmetric(m))
    lam = np.maximum(lam, 0.0) if max_eig is None else np.minimum(np.maximum(lam, 0.0), max_eig)
    return from_spectrum(lam, vec)


def image_basis(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the image of a PSD matrix, as the columns of a (k, d) array.

    Directions with eigenvalue > IMAGE_TOL * lambda_max are kept; the zero
    matrix gives d = 0.  A spectrum that fails ``not_psd`` raises
    NotPsdError.
    """
    lam, vec = psd_spectrum(m)
    return vec[:, lam > IMAGE_TOL * np.abs(lam).max(initial=0.0)]
