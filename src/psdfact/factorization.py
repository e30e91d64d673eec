"""Semidefinite factorizations of nonnegative matrices.

A factorization pairs PSD matrices (U_i) with (V^j), all of one side r,
such that <U_i, V^j> reproduces the target matrix entrywise.  Each side
is one stacked float array, ``row_factors`` of shape (m, r, r) and
``col_factors`` of shape (n, r, r); the ``PsdFactorization`` constructor
validates both once (square factors, one common side, finite entries),
so every routine here works on whole stacks.  This module holds the
data model, the congruence that rescaling applies to a whole
factorization, verification against a slack matrix, the canonical
diagonal embedding, a numerical search for low-rank factorizations, and
the potential function (product of the two largest operator norms) that
the rescaler drives down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericError, PreconditionError, ResourceError
from .polytopes import SlackMatrix
from . import symmat

# PSD acceptance slack for constructed factors: min eigenvalue may dip to
# -PSD_TOL * (1 + lambda_max) from floating-point noise.
PSD_TOL = 1e-9
# Residual tolerance, relative to 1 + Delta, of verify_factorization and of
# rescale's input and output; residual_budget turns it into a threshold.
VERIFY_TOL = 1e-8
# Projected-gradient steps per side in each sweep of alternating_fit.
FIT_INNER_STEPS = 5
# Largest side alternating_fit accepts: it draws m + n random r x r factors
# and eigendecomposes every one at each of its up to 2 * FIT_INNER_STEPS *
# sweeps projections, O(r^3) apiece.
FIT_MAX_SIDE = 64


@dataclass(frozen=True)
class PsdFactorization:
    """Row factors (U_i) and column factors (V^j), all PSD of one side r.

    ``row_factors`` and ``col_factors`` are float arrays of shapes
    (m, r, r) and (n, r, r).  The constructor accepts such arrays or any
    sequence of r x r matrices and validates once that the factors are
    square, share one side and have finite entries; an empty side is
    stored as (0, r, r) with r taken from the other side.  PSD-ness is
    checked only by ``from_factors``.
    """

    row_factors: np.ndarray
    col_factors: np.ndarray

    def __post_init__(self):
        try:
            rows, cols = (np.asarray(s, dtype=float) for s in (self.row_factors, self.col_factors))
        except ValueError:
            raise DimensionError("factor sides disagree") from None
        r = next((s.shape[-1] for s in (rows, cols) if s.shape != (0,)), 0)
        rows, cols = (s.reshape(0, r, r) if s.shape == (0,) else s for s in (rows, cols))
        if rows.shape[1:] != (r, r) or cols.shape[1:] != (r, r):
            raise DimensionError(f"factors must be square of one side: {rows.shape}, {cols.shape}")
        if not (np.isfinite(rows).all() and np.isfinite(cols).all()):
            raise PreconditionError("factors have non-finite entries")
        object.__setattr__(self, "row_factors", rows)
        object.__setattr__(self, "col_factors", cols)

    @classmethod
    def from_factors(cls, row_factors, col_factors):
        """Construct, then check every factor for PSD-ness up to PSD_TOL."""
        f = cls(row_factors=row_factors, col_factors=col_factors)
        if not f.side:
            return f
        for stack, label in ((f.row_factors, "row factor"), (f.col_factors, "column factor")):
            lam = np.linalg.eigvalsh(stack)
            bad = np.flatnonzero(lam[:, 0] < -PSD_TOL * (1.0 + np.maximum(lam[:, -1], 0.0)))
            if bad.size:
                raise PreconditionError(
                    f"{label} {bad[0]} is not PSD: min eigenvalue {lam[bad[0], 0]:.3g}"
                )
        return f

    @property
    def side(self) -> int:
        return self.row_factors.shape[1]

    @property
    def n_rows(self) -> int:
        return len(self.row_factors)

    @property
    def n_cols(self) -> int:
        return len(self.col_factors)

    def products(self) -> np.ndarray:
        """Matrix of trace inner products <U_i, V^j>."""
        return np.einsum("irs,jrs->ij", self.row_factors, self.col_factors)


def congruence(f: PsdFactorization, a: np.ndarray, b: np.ndarray) -> PsdFactorization:
    """The factorization (A U_i A, B V^j B), each side one batched product.

    With A symmetric and B its inverse (or pseudo-inverse on the common
    space) the products <U_i, V^j> are unchanged.  Each result stack is
    symmetrized and checked finite.
    """
    rows = symmat.as_symmetric(a @ f.row_factors @ a)
    cols = symmat.as_symmetric(b @ f.col_factors @ b)
    return PsdFactorization(row_factors=rows, col_factors=cols)


def operator_norms(factors) -> np.ndarray:
    """Operator norm of every matrix in a stack, from one batched eigvalsh.

    The spectrum comes back ascending, so max |lambda| is read off its two
    ends; ``+ 0.0`` turns a zero factor's -0.0 into 0.0, and matrices of
    side 0 have norm 0.  The stack must be exactly symmetric and finite,
    as every factorization the package builds or loads is; it is not
    checked here, and eigvalsh reads one triangle only.  Symmetrise a raw
    input with ``symmat.as_symmetric`` first.
    """
    lam = np.linalg.eigvalsh(factors)
    if not lam.shape[-1]:
        return np.zeros(lam.shape[:-1])
    return np.maximum(lam[..., -1], -lam[..., 0]) + 0.0


def side_norms(f: PsdFactorization) -> tuple[np.ndarray, np.ndarray]:
    """The operator norm of every factor, one array per side.

    Both stacks go through one eigvalsh, at the cost of one copy of them.
    """
    norms = operator_norms(np.concatenate([f.row_factors, f.col_factors]))
    return norms[:f.n_rows], norms[f.n_rows:]


def top_norms(norms: tuple[np.ndarray, np.ndarray]) -> tuple[float, float]:
    """(lmax(U), lmax(V)) from ``side_norms``; an empty side gives 0."""
    return float(norms[0].max(initial=0.0)), float(norms[1].max(initial=0.0))


def max_operator_norm(factors) -> float:
    """Largest operator norm over a nonempty stack of symmetric matrices."""
    if len(factors) == 0:
        raise PreconditionError("empty factor list")
    return float(np.max(operator_norms(factors)))


def potential(f: PsdFactorization) -> float:
    """Product of the largest operator norms of the two sides."""
    return max_operator_norm(f.row_factors) * max_operator_norm(f.col_factors)


@dataclass(frozen=True)
class FactorizationReport:
    """Result of checking <U_i, V^j> against a slack matrix."""

    max_abs_residual: float
    residual_location: tuple[int, int]
    lmax_u: float
    lmax_v: float
    potential: float
    tol: float
    passed: bool


def check_tol(tol: float) -> None:
    """Raise PreconditionError unless ``tol`` is finite and >= 0."""
    # Written so that NaN fails the check.
    if not 0.0 <= tol < np.inf:
        raise PreconditionError(f"tol must be finite and >= 0, got {tol!r}")


def max_residual(f: PsdFactorization, s: SlackMatrix) -> tuple[float, tuple[int, int]]:
    """Largest |<U_i, V^j> - S_ij| and its (i, j); (0.0, (0, 0)) when S is empty."""
    target = s.as_float()
    if (f.n_rows, f.n_cols) != target.shape:
        raise DimensionError(
            f"index sets disagree: factorization {f.n_rows}x{f.n_cols}, "
            f"slack {target.shape[0]}x{target.shape[1]}"
        )
    residual = np.abs(f.products() - target)
    if not residual.size:
        return 0.0, (0, 0)
    i, j = divmod(int(residual.argmax()), residual.shape[1])
    return float(residual[i, j]), (i, j)


def residual_budget(s: SlackMatrix, tol: float) -> float:
    """The largest residual a factorization of ``s`` may have: tol * (1 + Delta).

    Delta is the largest slack entry.  Every residual check against a slack
    matrix reads its threshold here.
    """
    check_tol(tol)
    return tol * (1.0 + s.max_entry)


def verify_factorization(
    f: PsdFactorization, s: SlackMatrix, tol: float = VERIFY_TOL
) -> FactorizationReport:
    """Compare all inner products against the slack entries.

    Passes iff the largest absolute residual is within ``residual_budget``.
    """
    budget = residual_budget(s, tol)
    max_res, loc = max_residual(f, s)
    lmax_u, lmax_v = top_norms(side_norms(f))
    return FactorizationReport(
        max_abs_residual=max_res,
        residual_location=loc,
        lmax_u=lmax_u,
        lmax_v=lmax_v,
        potential=lmax_u * lmax_v,
        tol=tol,
        passed=max_res <= budget,
    )


def diagonal_embed(s: SlackMatrix) -> PsdFactorization:
    """Canonical exact factorization of side r = min(|I|, |J|).

    With rows the shorter side, U_i = e_i e_i^T and V^j = diag(S[:, j]);
    otherwise the roles flip.  Inner products reproduce S exactly.
    """
    entries = s.as_float()
    m, n = entries.shape
    if m <= n:
        rows, cols = np.eye(m), entries.T
    else:
        rows, cols = entries, np.eye(n)
    # Row k of each array becomes the diagonal of factor k.
    eye = np.eye(min(m, n))
    return PsdFactorization(row_factors=rows[:, :, None] * eye, col_factors=cols[:, :, None] * eye)


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the alternating projected-gradient search."""

    tol: float = 1e-7
    sweeps: int = 6000
    seed: int = 7

    def __post_init__(self):
        check_tol(self.tol)


@dataclass(frozen=True)
class FitFailure:
    """Search outcome when no factorization at the target residual was found.

    Not evidence that none exists; the report must read "not found".
    """

    residual: float
    trace: tuple = field(default_factory=tuple)


def _pgd_side(fixed: np.ndarray, moving: np.ndarray, target: np.ndarray, steps: int) -> np.ndarray:
    """Projected-gradient steps on one side of the factorization.

    ``fixed`` has shape (m, r, r); ``moving`` (n, r, r); ``target`` (m, n).
    Minimizes sum of squared residuals over PSD ``moving`` via eigenvalue
    clipping after each gradient step.
    """
    m = fixed.shape[0]
    flat = fixed.reshape(m, -1)
    lip = 2.0 * float(np.linalg.norm(flat, 2)) ** 2
    if lip == 0.0:
        return moving
    step = 1.0 / lip
    for _ in range(steps):
        err = np.einsum("irs,jrs->ij", fixed, moving) - target
        grad = 2.0 * np.einsum("ij,irs->jrs", err, fixed)
        moving = symmat.eig_clip(moving - step * grad)
    return moving


def alternating_fit(s: SlackMatrix, r: int, cfg: FitConfig = FitConfig()):
    """Search for a side-r factorization by alternating projected gradient.

    Sweeps alternate projected-gradient updates of the two sides with an
    extrapolation step between sweeps (reset whenever the residual jumps),
    which repairs the 1/k tail plain alternation suffers from.  The side
    must lie in [1, FIT_MAX_SIDE], checked before anything is drawn.
    Returns a PsdFactorization once the max residual drops to
    cfg.tol * (1 + Delta), else a FitFailure carrying the residual trace.
    """
    if r < 1:
        raise PreconditionError("side must be at least 1")
    if r > FIT_MAX_SIDE:
        raise ResourceError(f"side r = {r} refused (--r above {FIT_MAX_SIDE})")
    target = s.as_float()
    m, n = target.shape
    rng = np.random.default_rng(cfg.seed)
    scale = np.sqrt(max(target.mean(), 1e-3) / r)
    u = symmat.eig_clip(rng.standard_normal((m, r, r)) * scale)
    v = symmat.eig_clip(rng.standard_normal((n, r, r)) * scale)

    threshold = residual_budget(s, cfg.tol)
    trace = []
    u_prev, v_prev = u, v
    momentum = 1.0
    last = np.inf
    for _ in range(cfg.sweeps):
        m_next = (1.0 + np.sqrt(1.0 + 4.0 * momentum**2)) / 2.0
        beta = (momentum - 1.0) / m_next
        u_ex = u + beta * (u - u_prev)
        v_ex = v + beta * (v - v_prev)
        u_prev, v_prev = u, v
        v = _pgd_side(u_ex, v_ex, target, FIT_INNER_STEPS)
        u = _pgd_side(np.ascontiguousarray(v), u_ex, target.T, FIT_INNER_STEPS)
        residual = float(
            np.max(np.abs(np.einsum("irs,jrs->ij", u, v) - target))
        )
        if not np.isfinite(residual):
            raise NumericError("NaN/Inf in alternating-fit iterates")
        momentum = 1.0 if residual > last * 1.2 else m_next
        last = residual
        trace.append(residual)
        if residual <= threshold:
            # eig_clip leaves its result symmetric only up to round-off.
            return PsdFactorization(
                row_factors=symmat.as_symmetric(u), col_factors=symmat.as_symmetric(v)
            )
    return FitFailure(residual=trace[-1] if trace else float("inf"), trace=tuple(trace))
