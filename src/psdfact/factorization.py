"""Semidefinite factorizations of nonnegative matrices.

A factorization pairs PSD matrices (U_i) with (V^j), all of one side r,
such that <U_i, V^j> reproduces the target matrix entrywise.  Each side
is one stacked float array, ``row_factors`` of shape (m, r, r) and
``col_factors`` of shape (n, r, r); the ``PsdFactorization`` constructor
validates both once (square factors, one common side, finite entries)
and stores them exactly symmetric, so every routine here works on whole
stacks.  This module holds the data model, the congruence that
rescaling applies to a whole factorization, verification against a
slack matrix, the canonical diagonal embedding, a Levenberg-Marquardt
search for factorizations of a given side, and the potential function
(product of the two largest operator norms) that the rescaler drives
down.  Every measurement of a factorization takes one path:
``side_extremes`` (one eigvalsh over both stacks) -> ``top_norms`` ->
``potential``; ``verify_factorization``, ``from_factors`` and the
rescaler read the same extremes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, PreconditionError, ResourceError
from .polytopes import SlackMatrix
from .record import Record
from . import symmat
from .symmat import operator_norms

# Residual tolerance, relative to 1 + Delta, of verify_factorization, of
# check_reproduces and of rescale's output; residual_budget makes it a threshold.
VERIFY_TOL = 1e-8
# Largest side fit_factorization accepts: each of its steps forms m n
# Jacobian blocks of r x r products, O(m n r^3) in all.
FIT_MAX_SIDE = 64
# Largest number m * n of slack entries fit_factorization accepts: each step
# solves one mn x mn system, 8 MiB of float64 and O((m n)^3) work at 1024.
FIT_MAX_ENTRIES = 1024
# Steps, kept or not, after which fit_factorization gives up.
FIT_MAX_STEPS = 2000


class PsdFactorization(Record):
    """Row factors (U_i) and column factors (V^j), all PSD of one side r.

    ``row_factors`` and ``col_factors`` are float arrays of shapes
    (m, r, r) and (n, r, r).  The constructor accepts such arrays or any
    sequence of r x r matrices and validates once that the factors are
    square, share one side and have finite entries; an empty side is
    stored as (0, r, r) with r taken from the other side.  Both stacks are
    stored exactly symmetric: <U, V> and every eigvalsh see only a
    factor's symmetric part, so a stack that is not exactly symmetric is
    replaced by (a + a^T) / 2, and one that is is kept as given, bit for
    bit.  Each stack gets one symmetry test and one finiteness test.
    PSD-ness is checked only by ``from_factors``.
    """

    __slots__ = ("row_factors", "col_factors")

    def __init__(self, row_factors, col_factors):
        try:
            rows, cols = (np.asarray(s, dtype=float) for s in (row_factors, col_factors))
        except ValueError:
            raise DimensionError("factor sides disagree") from None
        r = next((s.shape[-1] for s in (rows, cols) if s.shape != (0,)), 0)
        rows, cols = (s.reshape(0, r, r) if s.shape == (0,) else s for s in (rows, cols))
        if rows.shape[1:] != (r, r) or cols.shape[1:] != (r, r):
            raise DimensionError(f"factors must be square of one side: {rows.shape}, {cols.shape}")
        # NaN equals nothing, so a stack holding one is symmetrized, and the
        # finiteness test after it refuses the NaN, as it does a sum
        # (a + a^T) that overflows.
        rows, cols = (s if (s == s.swapaxes(1, 2)).all() else (s + s.swapaxes(1, 2)) / 2.0
                      for s in (rows, cols))
        if not (np.isfinite(rows).all() and np.isfinite(cols).all()):
            raise PreconditionError("factors have non-finite entries")
        self._set_fields(rows, cols)

    @classmethod
    def from_factors(cls, row_factors, col_factors):
        """Construct, then check every factor's ``side_extremes`` with ``symmat.not_psd``."""
        f = cls(row_factors=row_factors, col_factors=col_factors)
        ends = side_extremes(f)
        bad = np.flatnonzero(symmat.not_psd(ends))
        if bad.size:
            k = bad[0]
            label = f"row factor {k}" if k < f.n_rows else f"column factor {k - f.n_rows}"
            raise PreconditionError(f"{label} is not PSD: min eigenvalue {ends[k, 0]:.3g}")
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
        """Matrix of trace inner products <U_i, V^j>, an (m, n) array.

        One BLAS product of the flattened stacks, by ``symmat.inner_products``.
        """
        return symmat.inner_products(self.row_factors, self.col_factors)


def congruence(f: PsdFactorization, a: np.ndarray, b: np.ndarray) -> PsdFactorization:
    """The factorization (A U_i A, B V^j B), each side one batched product.

    With A symmetric and B its inverse (or pseudo-inverse on the common
    space) the products <U_i, V^j> are unchanged.  The constructor
    symmetrizes each result stack and checks it finite.
    """
    return PsdFactorization(row_factors=a @ f.row_factors @ a, col_factors=b @ f.col_factors @ b)


def side_extremes(f: PsdFactorization, *more: np.ndarray) -> np.ndarray:
    """The least and largest eigenvalue of every factor, an (m + n, 2) array, rows first.

    Both stacks go through one eigvalsh, at the cost of one copy of them;
    a factor of side 0 gives (0, 0).  Further stacks ``more`` of f's side
    join the same eigvalsh, and their rows follow f's.
    """
    lam = np.linalg.eigvalsh(np.concatenate([f.row_factors, f.col_factors, *more]))
    return lam.take((0, -1), axis=1) if f.side else np.zeros((len(lam), 2))


def top_norms(ends: np.ndarray, m: int) -> tuple[float, float]:
    """(lmax(U), lmax(V)) from the ``side_extremes`` of a factorization with m row factors.

    A factor's operator norm is the larger |lambda| of its two extremes; an
    empty side gives 0.
    """
    mags = np.abs(ends)
    return float(mags[:m].max(initial=0.0)), float(mags[m:].max(initial=0.0))


def max_operator_norm(factors) -> float:
    """Largest operator norm over a nonempty stack of symmetric matrices."""
    if len(factors) == 0:
        raise PreconditionError("empty factor list")
    return float(np.max(operator_norms(factors)))


def potential(f: PsdFactorization) -> float:
    """Product of the largest operator norms of the two sides; an empty side gives 0."""
    lmax_u, lmax_v = top_norms(side_extremes(f), f.n_rows)
    return lmax_u * lmax_v


class FactorizationReport(Record):
    """Result of checking <U_i, V^j> against a slack matrix."""

    __slots__ = ("max_abs_residual", "residual_location", "lmax_u", "lmax_v", "potential",
                 "tol", "passed")


def check_tol(tol: float) -> None:
    """Raise PreconditionError unless ``tol`` is finite and >= 0."""
    # Written so that NaN fails the check.
    if not 0.0 <= tol < np.inf:
        raise PreconditionError(f"tol must be finite and >= 0, got {tol!r}", arg="tol")


def max_residual(f: PsdFactorization, s: SlackMatrix) -> tuple[float, tuple[int, int]]:
    """Largest |<U_i, V^j> - S_ij| and its (i, j); (0.0, (0, 0)) when S is empty."""
    target = s.floats
    if (f.n_rows, f.n_cols) != target.shape:
        raise DimensionError(
            f"index sets disagree: factorization {f.n_rows}x{f.n_cols}, "
            f"slack {target.shape[0]}x{target.shape[1]}", arg="f")
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


def check_reproduces(f: PsdFactorization, s: SlackMatrix, arg: str = "f") -> float:
    """``f``'s largest residual against ``s``; PreconditionError naming ``arg`` when
    it is above ``residual_budget(s, VERIFY_TOL)`` or NaN."""
    residual, _ = max_residual(f, s)
    budget = residual_budget(s, VERIFY_TOL)
    # Written so that a NaN residual fails the check.
    if not residual <= budget:
        raise PreconditionError(f"factorization does not reproduce the slack matrix "
                                f"(max residual {residual:.3g} above {budget:.3g})", arg=arg)
    return residual


def verify_factorization(
    f: PsdFactorization, s: SlackMatrix, tol: float = VERIFY_TOL
) -> FactorizationReport:
    """Compare all inner products against the slack entries.

    Passes iff the largest absolute residual is within ``residual_budget``.
    """
    budget = residual_budget(s, tol)
    max_res, loc = max_residual(f, s)
    lmax_u, lmax_v = top_norms(side_extremes(f), f.n_rows)
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
    entries = s.floats
    m, n = entries.shape
    eye = np.eye(min(m, n))
    rows, cols = (eye, entries.T) if m <= n else (entries, eye)
    # Row k of each array becomes the diagonal of factor k.
    return PsdFactorization(row_factors=rows[:, :, None] * eye, col_factors=cols[:, :, None] * eye)


class FitResult(Record):
    """Outcome of ``fit_factorization``, found or not.

    ``trace`` holds the max residual after every step, so ``steps`` is its
    length and ``residual`` its last entry, None when no step was taken.
    ``factorization`` is None when no factorization at the target residual
    was found, and ``reason`` then says why the search stopped: a side
    below a PSD-rank lower bound, refused before any step, proves that
    none exists; a search that stalls or reaches FIT_MAX_STEPS is not
    evidence that none exists, and the report must read "not found".
    """

    __slots__ = ("factorization", "trace", "reason")
    _defaults = {"reason": None}

    @property
    def steps(self) -> int:
        return len(self.trace)

    @property
    def residual(self) -> float | None:
        return self.trace[-1] if self.trace else None


def fit_factorization(s: SlackMatrix, r: int, seed: int = 7) -> FitResult:
    """Search for a side-r factorization by Levenberg-Marquardt on square roots.

    U_i = L_i L_i^T and V^j = K_j K_j^T, with full r x r roots drawn from
    ``default_rng(seed)``, so every iterate is PSD (Burer & Monteiro 2003).
    Each step is -J^T (J J^T + mu I)^-1 res on the residuals
    <U_i, V^j> - S_ij (Levenberg 1944, Marquardt 1963), one mn x mn solve;
    it is kept only if the sum of squared residuals falls, and mu is then
    divided by 3, else multiplied by 4.  The fit is found once the max
    residual is within ``residual_budget(s, VERIFY_TOL / 10)``, and is not
    found after FIT_MAX_STEPS steps or once the step is lost in round-off.
    The side and the size of S are checked before anything is drawn.

    A side with r (r + 1) / 2 < rank S is refused at once, with no step:
    the products <U_i, V^j> are inner products of vectors of the
    r (r + 1) / 2-dimensional space of symmetric r x r matrices, so they
    have rank at most k = r (r + 1) / 2.  The rank counts the singular
    values of S above sqrt(m n) times the residual target t: a product
    matrix P within t of S entrywise has ||S - P||_2 <= sqrt(m n) t, so the
    (k + 1)-th singular value of S is at most that (Weyl), and a larger one
    proves that the fit cannot succeed.
    """
    if r < 1:
        raise PreconditionError("side must be at least 1", arg="r")
    if r > FIT_MAX_SIDE:
        raise ResourceError(f"side above {FIT_MAX_SIDE} refused", arg="r")
    target = s.floats
    m, n = target.shape
    if not m * n:
        raise PreconditionError("slack matrix has no entries to fit", arg="s")
    if m * n > FIT_MAX_ENTRIES:
        raise ResourceError(
            f"slack matrix of {m} x {n} = {m * n} entries refused (above {FIT_MAX_ENTRIES})",
            arg="s",
        )
    threshold = residual_budget(s, VERIFY_TOL / 10)
    rank = int(np.linalg.matrix_rank(target, tol=math.sqrt(m * n) * threshold))
    if r * (r + 1) // 2 < rank:
        return FitResult(factorization=None, trace=(), reason=(
            f"side {r} is below the PSD-rank lower bound: r (r + 1) / 2 = {r * (r + 1) // 2} "
            f"< rank S = {rank}"))
    rng = np.random.default_rng(seed)
    scale = np.sqrt(max(target.mean(), 1e-3) / r)
    l, k = rng.standard_normal((m, r, r)) * scale, rng.standard_normal((n, r, r)) * scale

    def evaluate(l, k):
        u, v = l @ l.swapaxes(1, 2), k @ k.swapaxes(1, 2)
        return u, v, np.einsum("irs,jrs->ij", u, v) - target

    def linearize(l, k, u, v):
        # Jacobian blocks of residual (i, j): a[i, j] = 2 V^j L_i, b[i, j] = 2 U_i K_j.
        a = 2.0 * (v[None] @ l[:, None])
        b = 2.0 * (u[:, None] @ k[None])
        flat_a = a.reshape(m, n, r * r)
        flat_b = b.swapaxes(0, 1).reshape(n, m, r * r)
        # J J^T couples residuals that share a row (a-blocks) or a column (b-blocks).
        jjt = np.zeros((m, n, m, n))
        jjt[np.arange(m), :, np.arange(m), :] = flat_a @ flat_a.swapaxes(1, 2)
        jjt[:, np.arange(n), :, np.arange(n)] += flat_b @ flat_b.swapaxes(1, 2)
        return a, b, jjt.reshape(m * n, m * n)

    u, v, res = evaluate(l, k)
    a, b, jjt = linearize(l, k, u, v)
    mu = 1e-3
    trace = []
    for _ in range(FIT_MAX_STEPS):
        y = np.linalg.solve(jjt + mu * np.eye(m * n), res.ravel()).reshape(m, n)
        trial_l = l - np.einsum("ij,ijrs->irs", y, a)
        trial_k = k - np.einsum("ij,ijrs->jrs", y, b)
        # Once mu is so large that the step is lost in round-off, the fit has stalled.
        stalled = np.array_equal(trial_l, l) and np.array_equal(trial_k, k)
        trial = evaluate(trial_l, trial_k)
        # A non-finite trial fails this test and is rejected.
        if np.sum(trial[2] ** 2) < np.sum(res**2):
            l, k, (u, v, res) = trial_l, trial_k, trial
            a, b, jjt = linearize(l, k, u, v)
            mu /= 3.0
        else:
            mu *= 4.0
        trace.append(float(np.max(np.abs(res))))
        if trace[-1] <= threshold:
            # l @ l^T is symmetric only up to round-off; the constructor symmetrizes it.
            return FitResult(factorization=PsdFactorization(u, v), trace=tuple(trace))
        if stalled:
            return FitResult(factorization=None, trace=tuple(trace),
                             reason="stalled: the step is lost in round-off")
    return FitResult(factorization=None, trace=tuple(trace),
                     reason=f"no fit within FIT_MAX_STEPS = {FIT_MAX_STEPS} steps")


def fit_report(fit: FitResult) -> dict:
    """The factorize stage's report of a fit, which ``run_pipeline`` and ``fact fit`` both give."""
    report = {"found": fit.factorization is not None, "residual": fit.residual, "steps": fit.steps}
    if fit.factorization is None:
        report["reason"] = fit.reason
    return report
