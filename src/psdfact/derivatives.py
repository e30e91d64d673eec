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


def _top_restriction(x: np.ndarray, z: np.ndarray) -> tuple[float, float]:
    """lambda_1 of nonzero PSD x, and max w^T z w over unit w in its top eigenspace."""
    lam, vec = symmat.psd_spectrum(x)
    if not np.abs(lam).max(initial=0.0):
        raise PreconditionError("derivative undefined for the zero matrix")
    basis = symmat.top_cluster(lam, vec)
    restricted = basis.T @ symmat.as_symmetric(z) @ basis
    return float(lam[0]), float(np.max(np.linalg.eigvalsh(symmat.as_symmetric(restricted))))


def dplus_opnorm_additive(x: np.ndarray, z: np.ndarray) -> float:
    """Right derivative of eps -> ||x + eps z|| at 0 for nonzero PSD x."""
    return _top_restriction(x, z)[1]


def dplus_opnorm_congruence(x: np.ndarray, z: np.ndarray) -> float:
    """Right derivative of eps -> ||exp(eps z) x exp(eps z)|| at 0."""
    lam1, top = _top_restriction(x, z)
    return 2.0 * lam1 * top


class DerivativeCheck(Record):
    """Finite-difference slopes on a decreasing eps ladder vs an analytic value.

    ``slopes`` is ((eps, slope), ...) with eps strictly decreasing.
    """

    __slots__ = ("analytic", "slopes", "max_deviation")


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
