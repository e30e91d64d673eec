"""Right-sided directional derivatives of the operator norm.

For nonzero PSD X with top eigenspace W, the map eps -> ||X + eps Z|| has
right derivative max_{w in W, |w|=1} w^T Z w, and the congruence map
eps -> ||exp(eps Z) X exp(eps Z)|| has right derivative 2 lambda_1 times
the same maximum.  Both are computed on the numerically clustered top
eigenspace; ``psdfact check derivatives`` compares both with one-step
right-sided finite differences.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError
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
