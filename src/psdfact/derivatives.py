"""Right-sided directional derivatives of the operator norm.

For nonzero PSD X with top eigenspace W, the map eps -> ||X + eps Z|| has
right derivative max_{w in W, |w|=1} w^T Z w, and the congruence map
eps -> ||exp(eps Z) X exp(eps Z)|| has right derivative 2 lambda_1 times
the same maximum.  Both are computed on the numerically clustered top
eigenspace, and a finite-difference ladder harness cross-checks them.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, PreconditionError
from .record import Record
from . import symmat


def _top_basis(x: np.ndarray) -> tuple[float, np.ndarray]:
    dec = symmat.spectral_decompose(x)
    lam = dec.eigenvalues
    scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    if scale == 0.0:
        raise PreconditionError("derivative undefined for the zero matrix")
    if lam.size and lam[-1] < -symmat.RANK_TOL * scale:
        raise PreconditionError(f"matrix is not PSD: min eigenvalue {lam[-1]:.3g}")
    return float(lam[0]), dec.top_cluster()


def dplus_opnorm_additive(x: np.ndarray, z: np.ndarray) -> float:
    """Right derivative of eps -> ||x + eps z|| at 0 for nonzero PSD x."""
    _, basis = _top_basis(x)
    z = symmat.as_symmetric(z)
    restricted = basis.T @ z @ basis
    return float(np.max(np.linalg.eigvalsh(symmat.as_symmetric(restricted))))


def dplus_opnorm_congruence(x: np.ndarray, z: np.ndarray) -> float:
    """Right derivative of eps -> ||exp(eps z) x exp(eps z)|| at 0."""
    lam1, basis = _top_basis(x)
    z = symmat.as_symmetric(z)
    restricted = basis.T @ z @ basis
    top = float(np.max(np.linalg.eigvalsh(symmat.as_symmetric(restricted))))
    return 2.0 * lam1 * top


class DerivativeCheck(Record):
    """Finite-difference slopes on a decreasing eps ladder vs an analytic value."""

    __slots__ = ("analytic", "slopes", "max_deviation")

    def __init__(self, analytic: float, slopes: tuple, max_deviation: float):
        object.__setattr__(self, "analytic", analytic)
        # ((eps, slope), ...) with eps strictly decreasing
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "max_deviation", max_deviation)


def fd_ladder(f, analytic: float, eps_ladder=(1e-3, 1e-4, 1e-5, 1e-6)) -> DerivativeCheck:
    """Right-sided finite-difference slopes (f(eps) - f(0)) / eps.

    Records the worst deviation from the supplied analytic value; a NaN
    from f is reported with the eps that produced it.
    """
    ladder = tuple(float(e) for e in eps_ladder)
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise PreconditionError("eps ladder must be strictly decreasing")
    f0 = float(f(0.0))
    slopes = []
    for eps in ladder:
        val = float(f(eps))
        if not np.isfinite(val):
            raise NumericError(f"objective returned non-finite value at eps={eps:g}")
        slopes.append((eps, (val - f0) / eps))
    max_dev = max(abs(s - analytic) for _, s in slopes)
    return DerivativeCheck(
        analytic=float(analytic), slopes=tuple(slopes), max_deviation=float(max_dev)
    )
