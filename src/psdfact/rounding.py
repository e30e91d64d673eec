"""Grid rounding of rescaled factors and vertex reconstruction.

A factor U with operator norm at most sqrt(r Delta) is rounded by
snapping its eigenvalues and eigenvector entries to the nearest integer
multiple of delta/Delta (ties toward +inf), reassembling, and snapping
the reassembled entries once more so every entry lands exactly on the
grid.  The selected factors are rounded as one (m, r, r) stack through one
batched eigendecomposition.  The paper's bounds are the same for every
factor, so they live on ``GridParams``: a Frobenius error of at most
``error_bound`` = 4 delta r^2 / sqrt(Delta) and entries of at most
``entry_bound`` = 8 r^1.5 sqrt(Delta).

Membership of a lattice point x asks for a witness Y in
K = {0 <= Y <= cap I}, cap = sqrt(r Delta), with every row residual
e_i = b_i - a_i.x - <U_i, Y> within the budget 1/(4(n + r^2)).  Both
answers are certified.  Projected gradient on sum_i hinge(|e_i| - budget)^2
over K yields the witness of a member.  Its residual turns into the dual
functional lambda = hinge * sign(e) / ||hinge * sign(e)||_1; for every Y in
K, lambda.c - <sum_i lambda_i U_i, Y> <= budget when Y is a witness, and
<S, Y> <= cap tr(S_+), so lambda.c - cap tr((sum_i lambda_i U_i)_+) > budget
proves that no witness exists (conic duality; Ben-Tal & Nemirovski,
Lectures on Modern Convex Optimization).

The single-row duals lambda = +-e_i are such functionals too; with
c = b - A x their value +-c_i - cap tr((+-U_i)_+) needs no iterate.  The
rounded subsystem determines the vertex set, so a 0/1 point outside the
polytope violates some integer inequality; when that is a selected row i,
-e_i proves rejection at once, as +e_i does when row i's slack exceeds
cap tr(U_i) + budget.  Other points (on crosspoly_01 n=2 the violated
rows are combinations of the selected ones) are left to projected
gradient.

``reconstruct`` runs one batched loop over all of {0,1}^n, stops each
point at its first witness or certificate, and re-validates both from
scratch; a point that has neither after MEMBER_MAX_ITERS iterations is
inconclusive.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DimensionError, NumericError, PreconditionError, ResourceError
from .factorization import PsdFactorization
from .polytopes import HPolytope, cube_points
from .record import Record
from . import symmat


def grid_delta(n: int, r: int) -> float:
    """Largest admissible rounding parameter, (16 r^3 (n + r^2))^-1."""
    if n < 1 or r < 1:
        raise PreconditionError("n and r must be positive")
    return 1.0 / (16.0 * r**3 * (n + r**2))


def round_to_grid(x, step: float):
    """Nearest integer multiple of ``step``, ties toward +inf."""
    return np.floor(np.asarray(x, dtype=float) / step + 0.5) * step


class GridParams(Record):
    """Rounding grid, tolerance budget, and which Delta convention is used."""

    __slots__ = ("n", "r", "delta", "big_delta", "worst_case")

    def __init__(self, n: int, r: int, delta: float, big_delta: float, worst_case: bool = False):
        # Written so that NaN fails both checks.
        if not big_delta > 0:
            raise PreconditionError("Delta must be positive")
        if not 0 < delta <= grid_delta(n, r) * (1 + 1e-12):
            raise PreconditionError(f"delta must lie in (0, {grid_delta(n, r):.3g}]", arg="delta")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "big_delta", big_delta)
        object.__setattr__(self, "worst_case", worst_case)

    @property
    def step(self) -> float:
        return self.delta / self.big_delta

    @property
    def budget(self) -> float:
        return 1.0 / (4.0 * (self.n + self.r**2))

    @property
    def witness_cap(self) -> float:
        return float(np.sqrt(self.r * self.big_delta))

    @property
    def error_bound(self) -> float:
        return float(4.0 * self.delta * self.r**2 / np.sqrt(self.big_delta))

    @property
    def entry_bound(self) -> float:
        return float(8.0 * self.r**1.5 * np.sqrt(self.big_delta))

    @classmethod
    def for_slack(cls, n: int, r: int, delta_eff: float, scale: float = 1.0,
                  worst_case: bool = False) -> "GridParams":
        """Grid from a concrete slack matrix; Delta is its largest entry.

        ``scale`` shrinks delta below the admissible maximum (e.g. 0.1).
        The worst-case convention (n+1)^((n+1)/2) is only evaluated for
        n <= 12 where it fits in floating point.
        """
        if worst_case:
            if n > 12:
                raise PreconditionError(
                    f"worst-case Delta supported for n <= 12 only, got n = {n}", arg="worst_case")
            big = float((n + 1) ** ((n + 1) / 2.0))
        else:
            # Integral slack matrices are either zero or have max entry >= 1;
            # the zero case still needs a positive grid.
            big = max(float(delta_eff), 1.0)
        return cls(n=n, r=r, delta=grid_delta(n, r) * scale, big_delta=big,
                   worst_case=worst_case)


def round_factor(u: np.ndarray, g: GridParams) -> np.ndarray:
    """Round a PSD matrix, or a stack of them, onto the delta/Delta grid via the spectrum.

    Eigenvalues and eigenvector entries are snapped first; the reassembled
    matrix is snapped entrywise so that every entry is an exact grid
    multiple.  PSD-ness survives up to the final entrywise snap.
    """
    step = g.step
    dec = symmat.spectral_decompose(u)
    top = dec.eigenvalues[..., 0]
    if np.any((top > 0.0) & (step >= 2.0 * top)):
        warnings.warn(
            "grid step exceeds twice the top eigenvalue; rounding will "
            "destroy the factor",
            RuntimeWarning,
            stacklevel=2,
        )
    lam = round_to_grid(dec.eigenvalues, step)
    vec = round_to_grid(dec.eigenvectors, step)
    rounded = (vec * lam[..., None, :]) @ vec.swapaxes(-1, -2)
    return round_to_grid((rounded + rounded.swapaxes(-1, -2)) / 2.0, step)


# ---------------------------------------------------------------------------
# Subsystem selection


def select_subsystem(h: HPolytope, f: PsdFactorization) -> list[int]:
    """Greedy max-volume row subset of the stacked vectors (a_i, vec(U_i)).

    Pivoted Gram-Schmidt: repeatedly add the row whose residual against the
    span of the selected rows is largest, i.e. the row maximizing the Gram
    determinant increase, until no residual exceeds symmat.RANK_TOL times
    the largest row norm.  At most n + r^2 rows are selected.
    """
    if h.n_rows == 0:
        raise PreconditionError("empty inequality system")
    if h.n_rows != f.n_rows:
        raise DimensionError("inequality rows and row factors are misaligned")
    n, r = h.dim, f.side
    residual = np.concatenate([h.a.astype(float), f.row_factors.reshape(f.n_rows, -1)], axis=1)
    # np.linalg.norm(., axis=1)'s own formula, without its wrapper.
    norms = np.sqrt(np.add.reduce(residual * residual, axis=1))
    threshold = symmat.RANK_TOL * max(float(norms.max()), 1.0)
    selected: list[int] = []
    while True:
        norms[selected] = 0.0
        j = int(norms.argmax())
        if norms[j] <= threshold:
            break
        q = residual[j] / norms[j]
        selected.append(j)
        residual = residual - (residual @ q)[:, None] * q
        norms = np.sqrt(np.add.reduce(residual * residual, axis=1))
    if len(selected) > n + r * r:
        raise NumericError("selected subsystem exceeds n + r^2 rows")
    return selected


class RoundedSystem(Record):
    """Padded subsystem (a_i, b_i, rounded U_i) driving the membership oracle."""

    __slots__ = ("a", "b", "factors", "grid", "selected", "error_fnorm")

    def __init__(self, a: np.ndarray, b: np.ndarray, factors: np.ndarray, grid: GridParams,
                 selected: tuple = (), error_fnorm: tuple = ()):
        object.__setattr__(self, "a", a)  # (n + r^2, n) float
        object.__setattr__(self, "b", b)  # (n + r^2,) float
        object.__setattr__(self, "factors", factors)  # (n + r^2, r, r) float
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "selected", selected)
        # ||rounded U_i - U_i||_F per selected row, in slot order; empty when
        # the system was loaded rather than rounded.
        object.__setattr__(self, "error_fnorm", error_fnorm)

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]


def build_rounded_system(h: HPolytope, f: PsdFactorization, g: GridParams) -> RoundedSystem:
    """Select the working subsystem, round its factors as one stack, pad with zero rows."""
    selected = select_subsystem(h, f)
    u = f.row_factors[selected]
    rounded = round_factor(u, g)
    k, m = len(selected), g.n + g.r**2
    a, b, factors = np.zeros((m, h.dim)), np.zeros(m), np.zeros((m, f.side, f.side))
    a[:k], b[:k], factors[:k] = h.a[selected], h.b[selected], rounded
    # Row-by-row dot products, as the 2-D np.linalg.norm of each factor
    # takes them; a batched norm sums in another order and moves the last
    # bits.
    err = (rounded - u).reshape(k, 1, f.side**2)
    return RoundedSystem(
        a=a,
        b=b,
        factors=factors,
        grid=g,
        selected=tuple(int(i) for i in selected),
        error_fnorm=tuple(np.sqrt(err @ err.swapaxes(1, 2)).ravel().tolist()),
    )


# ---------------------------------------------------------------------------
# Membership oracle


# Projected-gradient iterations after which a live point is inconclusive.
MEMBER_MAX_ITERS = 4000
# Relative round-off allowance shared by both certificates: a witness may
# exceed the budget and the cap by this fraction, a dual value must beat the
# budget by it.
MEMBER_RTOL = 1e-9
# Points decided together; bounds the memory of a sweep over a large cube.
MEMBER_BATCH = 1 << 12
# Largest n whose 2^n-point sweep ``reconstruct`` runs.
RECONSTRUCT_MAX_DIM = 20


class MembershipConfig(Record):
    """A seed that perfbench/workloads.py passes as
    ``PipelineConfig(membership_cfg=MembershipConfig(seed=...))``; the
    oracle is deterministic, and nothing in the package reads it."""

    __slots__ = ("seed",)

    def __init__(self, seed: int = 11):
        object.__setattr__(self, "seed", seed)


class MembershipVerdict(Record):
    __slots__ = ("point", "verdict", "witness", "violation", "dual_margin", "dual", "iterations")

    def __init__(self, point: tuple, verdict: str, witness: np.ndarray | None, violation: float,
                 dual_margin: float, dual: np.ndarray | None, iterations: int):
        object.__setattr__(self, "point", point)
        # "member-with-witness" | "rejected" | "inconclusive"
        object.__setattr__(self, "verdict", verdict)
        # the final iterate Y, None when rejected
        object.__setattr__(self, "witness", witness)
        # max_i |residual_i| - budget at the final iterate
        object.__setattr__(self, "violation", violation)
        # lambda.c - cap tr((sum_i lambda_i U_i)_+) - budget, best seen
        object.__setattr__(self, "dual_margin", dual_margin)
        # that lambda (||lambda||_1 = 1), None when accepted; a single-row
        # dual has one +-1 entry
        object.__setattr__(self, "dual", dual)
        object.__setattr__(self, "iterations", iterations)


def _dual_values(lam, const, u_flat, cap):
    """lambda.c - cap tr((sum_i lambda_i U_i)_+) for each row of ``lam``.

    For ||lambda||_1 <= 1 every Y in {0 <= Y <= cap I} has
    <S, Y> <= cap tr(S_+) for S = sum_i lambda_i U_i, and
    lambda.c - <S, Y> = lambda.e <= max_i |e_i|; so a value above the
    budget proves that no Y meets it.
    """
    r = math.isqrt(u_flat.shape[1])
    s = (lam @ u_flat).reshape(-1, r, r)
    # A zero lambda has value exactly 0 and needs no spectrum.
    nonzero = lam.any(axis=1)
    positive = np.zeros(len(lam))
    if nonzero.any():
        positive[nonzero] = np.clip(np.linalg.eigvalsh(s[nonzero]), 0.0, None).sum(axis=1)
    return np.einsum("bi,bi->b", lam, const) - cap * positive


def _single_row_duals(factors, const, cap):
    """Each point's best single-row dual lambda = +-e_i, and its value.

    The value of +-e_i is +-c_i - cap tr((+-U_i)_+); it needs no iterate,
    and ||lambda||_1 = 1, so ``_dual_values``' proof applies.  One
    ``eigvalsh`` covers the rows with a nonzero factor; a zero row's traces
    are 0.
    """
    m = factors.shape[0]
    nonzero = np.flatnonzero(factors.reshape(m, -1).any(axis=1))
    spectrum = np.linalg.eigvalsh(factors[nonzero])
    trace = np.zeros((2, m))
    trace[0, nonzero] = spectrum.clip(min=0.0).sum(axis=1)
    trace[1, nonzero] = -spectrum.clip(max=0.0).sum(axis=1)
    values = np.concatenate([const - cap * trace[0], -const - cap * trace[1]], axis=1)
    pick = values.argmax(axis=1)
    points = np.arange(len(const))
    lam = np.zeros((len(const), m))
    lam[points, pick % m] = np.where(pick < m, 1.0, -1.0)
    return lam, values[points, pick]


def _decide(system: RoundedSystem, xs: np.ndarray, starts: np.ndarray) -> list:
    """Decide each point of ``xs`` (B, n) by projected gradient from ``starts`` (B, r, r).

    One loop runs over the stacked iterates of every live point, minimizing
    sum_i hinge(|e_i| - budget)^2 over {0 <= Y <= cap I}.  Each iteration
    checks the primal residual and the dual functional lambda = hinge *
    sign(e) / ||hinge * sign(e)||_1; a point leaves the live set at its
    first witness or certificate.  Both are re-validated from scratch.
    Points still live after the first iteration's checks are also tried
    against every single-row dual +-e_i, whose value needs no iterate; one
    ``eigvalsh`` of the factors serves the whole batch, and a batch whose
    points all have witnesses at once, as warm-started vertices do, never
    takes it; their hinge duals are zero, which takes no spectrum either.  The step 1 / L, with L = 2 ||U||^2 from a spectral norm of
    the stacked factors, is computed at the first gradient step, so a batch
    decided at its first iteration never computes it.
    """
    g = system.grid
    budget, cap = g.budget, g.witness_cap
    m, r = system.n_rows, g.r
    u_flat = system.factors.reshape(m, -1)
    step = None
    const = system.b - xs @ system.a.T
    y = symmat.eig_clip(starts, cap)
    best = np.full(len(xs), -np.inf)
    best_lam = np.zeros((len(xs), m))
    iterations = np.full(len(xs), MEMBER_MAX_ITERS)
    found = np.zeros(len(xs), dtype=bool)
    live = np.arange(len(xs))
    for it in range(1, MEMBER_MAX_ITERS + 1):
        e = const[live] - y[live].reshape(len(live), -1) @ u_flat.T
        if not np.isfinite(e).all():
            raise NumericError("NaN/Inf in membership iterates")
        push = np.maximum(np.abs(e) - budget, 0.0) * np.sign(e)
        mass = np.abs(push).sum(axis=1, keepdims=True)
        lam = push / np.where(mass > 0.0, mass, 1.0)
        margin = _dual_values(lam, const[live], u_flat, cap) - budget
        better = margin > best[live]
        best[live[better]] = margin[better]
        best_lam[live[better]] = lam[better]
        member = np.abs(e).max(axis=1) <= budget * (1.0 + MEMBER_RTOL)
        done = member | (best[live] > budget * MEMBER_RTOL)
        if it == 1 and not done.all():
            rest = live[~done]
            lam, margin = _single_row_duals(system.factors, const[rest], cap)
            margin -= budget
            better = margin > best[rest]
            best[rest[better]] = margin[better]
            best_lam[rest[better]] = lam[better]
            done = member | (best[live] > budget * MEMBER_RTOL)
        found[live[member]] = True
        iterations[live[done]] = it
        push, live = push[~done], live[~done]
        if live.size == 0:
            break
        if step is None:
            lip = 2.0 * float(np.linalg.norm(u_flat, 2)) ** 2
            step = 1.0 / lip if lip > 0.0 else 0.0
        # The gradient of the objective is -2 sum_i push_i U_i.
        y[live] = symmat.eig_clip(y[live] + (2.0 * step) * (push @ u_flat).reshape(-1, r, r), cap)

    # Re-validate from scratch: each witness against the budget and the cap
    # through the full factor stack, each dual functional by its value.
    witness = symmat.as_symmetric(y)
    resid = const - np.einsum("irs,brs->bi", system.factors, witness)
    violation = np.abs(resid).max(axis=1) - budget
    spectrum = np.linalg.eigvalsh(witness)
    witness_ok = (
        found
        & (violation <= budget * MEMBER_RTOL)
        & (spectrum[:, 0] >= -cap * MEMBER_RTOL)
        & (spectrum[:, -1] <= cap * (1.0 + MEMBER_RTOL))
    )
    margin = _dual_values(best_lam, const, u_flat, cap) - budget
    dual_ok = (
        ~found
        & (margin > budget * MEMBER_RTOL)
        & (np.abs(best_lam).sum(axis=1) <= 1.0 + MEMBER_RTOL)
    )
    out = []
    for k, point in enumerate(tuple(p) for p in xs.astype(int).tolist()):
        verdict = ("member-with-witness" if witness_ok[k]
                   else "rejected" if dual_ok[k] else "inconclusive")
        out.append(MembershipVerdict(
            point=point,
            verdict=verdict,
            witness=None if verdict == "rejected" else witness[k],
            violation=float(violation[k]),
            dual_margin=float(margin[k]),
            dual=None if verdict == "member-with-witness" else best_lam[k],
            iterations=int(iterations[k]),
        ))
    return out


def membership_test(x, system: RoundedSystem,
                    warm_start: np.ndarray | None = None) -> MembershipVerdict:
    """Decide one lattice point: a PSD witness Y with ||Y|| <= sqrt(r Delta)
    certifies membership, a dual functional certifies rejection.

    The search starts from ``warm_start``, else from 0; it is the batched
    oracle of ``reconstruct`` run on one point.
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    start = np.zeros((system.grid.r, system.grid.r)) if warm_start is None else warm_start
    return _decide(system, x, np.asarray(start, dtype=float)[None])[0]


class ReconstructionReport(Record):
    __slots__ = ("verdicts",)

    def __init__(self, verdicts: tuple):
        # one MembershipVerdict per point of {0,1}^n, lexicographic
        object.__setattr__(self, "verdicts", verdicts)

    def _kind(self, verdict: str) -> tuple:
        return tuple(v for v in self.verdicts if v.verdict == verdict)

    @property
    def accepted(self) -> tuple:
        return self._kind("member-with-witness")

    @property
    def rejected(self) -> tuple:
        return self._kind("rejected")

    @property
    def inconclusive(self) -> tuple:
        return self._kind("inconclusive")

    @property
    def complete(self) -> bool:
        return not self.inconclusive

    def to_json(self) -> dict:
        """Point lists by verdict, and one entry per point with its certificate values."""
        return {
            "accepted": [list(v.point) for v in self.accepted],
            "rejected": [list(v.point) for v in self.rejected],
            "inconclusive": [list(v.point) for v in self.inconclusive],
            "points": [
                {
                    "point": list(v.point),
                    "verdict": v.verdict,
                    "violation": v.violation,
                    "dual_margin": v.dual_margin,
                    "iterations": v.iterations,
                }
                for v in self.verdicts
            ],
        }


def reconstruct(system: RoundedSystem, n: int,
                warm_start_map: dict | None = None) -> ReconstructionReport:
    """Run the membership oracle over all of {0,1}^n, lexicographically.

    All points are decided together, up to MEMBER_BATCH at a time; a point
    starts from the matrix ``warm_start_map`` gives its tuple, else from 0.
    Inconclusive verdicts are listed, never dropped; their presence marks
    the reconstruction incomplete.
    """
    if n > RECONSTRUCT_MAX_DIM:
        raise ResourceError(f"2^{n} membership sweep refused (n > {RECONSTRUCT_MAX_DIM})",
                            arg="n")
    if n != system.a.shape[1]:
        raise DimensionError(f"n = {n} disagrees with the system's dimension {system.a.shape[1]}",
                             arg="n")
    warm_start_map = warm_start_map or {}
    zero = np.zeros((system.grid.r, system.grid.r))
    verdicts = []
    for bits in cube_points(n, MEMBER_BATCH):
        points = [tuple(p) for p in bits.tolist()]
        starts = np.array([warm_start_map.get(p, zero) for p in points], dtype=float)
        verdicts.extend(_decide(system, bits.astype(float), starts))
    return ReconstructionReport(verdicts=tuple(verdicts))
