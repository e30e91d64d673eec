"""Grid rounding of rescaled factors and vertex reconstruction.

A factor U is rounded entry by entry to the nearest integer multiple of
the grid step delta/Delta (ties toward +inf): the result is exactly
symmetric, its entries at most lmax(U) + step/2, its Frobenius error at
most r step / 2.  The rounded system holds only the selected rows, at
most n + r^2 of them, in ascending order, their factors rounded as one
stack.  The rows are chosen by pivoted Gram-Schmidt, or taken all at once
when one spectrum of their Gram matrix certifies full row rank.  The
paper's bounds live on ``GridParams``: a Frobenius error of at most
``error_bound`` = 4 delta r^2 / sqrt(Delta), which r step / 2 meets for
every Delta >= 1, and entries of at most ``entry_bound`` = 8 r^1.5 sqrt(Delta).

Membership of a lattice point x asks for a witness Y in
K = {0 <= Y <= cap I}, cap = sqrt(r Delta), with every row residual
e_i = c_i - <U_i, Y>, c = b - A x, within the budget 1/(4(n + r^2)).  Both
answers are certified.  A witness proves membership.  A dual functional
lambda with ||lambda||_1 <= 1 proves rejection when
lambda.c - cap tr((sum_i lambda_i U_i)_+) > budget: for every Y in K,
lambda.c - <sum_i lambda_i U_i, Y> <= max_i |e_i|, and <S, Y> <= cap tr(S_+)
(conic duality; Ben-Tal & Nemirovski, Lectures on Modern Convex
Optimization).

``reconstruct`` decides all of {0,1}^n in batches, each in one loop of
checks followed by re-validation.  Iteration 1 starts every point of the
batch from a vertex's warm start clipped into K, or from 0; later
iterations take a projected-gradient step on
sum_i hinge(|e_i| - budget)^2 over K first.  Each check costs only what
its certificate needs, and a point leaves at its first certificate.
Every iteration first checks each live iterate as a witness, which takes
residuals and no spectrum.  On the points that leave open, iteration 1
next tries the best single-row dual +-e_i, whose value
+-c_i - cap tr((+-U_i)_+) needs no iterate: one spectrum of the factors
serves every point.  Last, each point still open gets the hinge dual
lambda = hinge * sign(e) / ||hinge * sign(e)||_1 of its residual,
hinge = max(|e| - budget, 0), at one spectrum per point.  A point with
no certificate after MEMBER_MAX_ITERS iterations is inconclusive.

The rounded subsystem determines the vertex set, so a 0/1 point outside
the polytope violates some integer inequality; when that is one of the
system's rows i, -e_i proves rejection at iteration 1, as +e_i does when
row i's slack exceeds cap tr(U_i) + budget.  Otherwise (on crosspoly_01
n=2 the violated rows are combinations of the selected ones) the hinge
duals and the steps go on.  Re-validation checks every witness against
the budget and the cap, and every dual by its value, before a verdict is
given.

The verdicts come back as a ``ReconstructionReport`` of columns, one row
per point: points, verdict codes, violations, dual margins, iterations,
witnesses and duals.  Its point lists and JSON form are built from those
columns in bulk.  ``membership_test`` decides one point and returns its
one-row report.
"""

from __future__ import annotations

import math

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
        # Written so that NaN fails both checks.  The witness cap is
        # sqrt(r Delta), so r * Delta must stay finite too.
        if not big_delta > 0:
            raise PreconditionError("Delta must be positive")
        if not math.isfinite(r * big_delta):
            raise PreconditionError(f"Delta must be finite, with r * Delta = {r} * "
                                    f"{big_delta:.3g} below the float maximum")
        if not 0 < delta <= grid_delta(n, r):
            raise PreconditionError(f"delta must lie in (0, {grid_delta(n, r):.3g}]", arg="delta")
        self._set_fields(n, r, delta, big_delta, worst_case)

    @property
    def step(self) -> float:
        return self.delta / self.big_delta

    @property
    def budget(self) -> float:
        return 1.0 / (4.0 * (self.n + self.r**2))

    @property
    def witness_cap(self) -> float:
        return math.sqrt(self.r * self.big_delta)

    @property
    def error_bound(self) -> float:
        """The paper's bound, 8 r sqrt(Delta) times ``round_factor``'s r step / 2."""
        return 4.0 * self.delta * self.r**2 / math.sqrt(self.big_delta)

    @property
    def entry_bound(self) -> float:
        return 8.0 * self.r**1.5 * math.sqrt(self.big_delta)

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
    """Round a factor, or a stack of them, entrywise onto the delta/Delta grid.

    The Frobenius error is at most r step / 2, beside the paper's
    ``error_bound``, and the result is exactly symmetric.  A factor whose
    entries all lie below half the grid step rounds to zero;
    ``zeroed_factors`` finds those.  A step so fine that the snap
    overflows is refused, naming ``delta``.
    """
    top = float(np.abs(u).max(initial=0.0))
    if not g.step or not math.isfinite(top / g.step):
        raise PreconditionError(f"the grid step {g.step:.3g} overflows the snap of factor "
                                f"entries up to {top:.3g}", arg="delta")
    return round_to_grid(u, g.step)


def zeroed_factors(u: np.ndarray, rounded: np.ndarray) -> list[int]:
    """Positions k at which ``u[k]`` is nonzero and ``rounded[k]`` is zero.

    These are the factors whose entries all lie below half a grid step.
    """
    return np.flatnonzero(u.any(axis=(1, 2)) & ~rounded.any(axis=(1, 2))).tolist()


# ---------------------------------------------------------------------------
# Subsystem selection


def _squared_norms(rows: np.ndarray, what: str) -> np.ndarray:
    """Each row's squared norm, refused (naming ``f``) when they or their total overflow."""
    with np.errstate(over="raise"):
        try:
            sums = np.add.reduce(rows * rows, axis=1)
            np.add.reduce(sums)
            return sums
        except FloatingPointError:
            raise PreconditionError(f"the squared norms of the {what} overflow", arg="f") from None


def select_subsystem(h: HPolytope, f: PsdFactorization) -> list[int]:
    """Greedy max-volume row subset of the stacked vectors (a_i, vec(U_i)), ascending.

    Pivoted Gram-Schmidt: repeatedly add the row whose residual against the
    span of the selected rows is largest, i.e. the row maximizing the Gram
    determinant increase, until no residual exceeds symmat.RANK_TOL times
    the largest row norm.  At most n + r^2 rows are selected.

    One eigvalsh of the Gram matrix G = R R^T of the stacked rows R comes
    first.  A row's residual against the span of any other rows is at
    least sigma_min(R) = sqrt(lam_min(G)), and the loop computes it to
    about eps kappa(R) relative; so when lam_min(G) exceeds both
    symmat.GRAM_TOL lam_max(G) and (2 threshold)^2, every pivot's largest
    residual stays above the cut, and every row is taken at once.  The
    rows are returned in ascending order on both paths: a subsystem is a
    set of rows, and the pivot order carries nothing that a later stage
    reads.
    """
    if h.n_rows == 0:
        raise PreconditionError("empty inequality system")
    if h.n_rows != f.n_rows:
        raise DimensionError("inequality rows and row factors are misaligned")
    n, r = h.dim, f.side
    residual = np.concatenate([h.a.astype(float), f.row_factors.reshape(f.n_rows, -1)], axis=1)
    # The Gram spectrum is at most the squared norms' total, and the loop's
    # residuals only shrink, so nothing overflows past _squared_norms.
    norms = np.sqrt(_squared_norms(residual, "rows"))
    threshold = symmat.RANK_TOL * max(float(norms.max()), 1.0)
    lam = np.linalg.eigvalsh(residual @ residual.T)
    if lam[0] > symmat.GRAM_TOL * lam[-1] and lam[0] > (2.0 * threshold) ** 2:
        return list(range(len(residual)))
    # The loop updates the residual, its squares and the norms in place.
    square = np.empty_like(residual)
    selected: list[int] = []
    while True:
        j = int(norms.argmax())
        if norms[j] <= threshold:
            break
        q = residual[j] / norms[j]
        selected.append(j)
        # A selected row's residual is exactly 0 from here on (its
        # projections subtract 0), so its norm is never the largest again,
        # and once every row is selected no residual is left.
        if len(selected) == len(residual):
            break
        residual -= np.multiply.outer(residual.dot(q), q)
        residual[j] = 0.0
        np.sqrt(np.add.reduce(np.multiply(residual, residual, out=square), axis=1), out=norms)
    if len(selected) > n + r * r:
        raise NumericError("selected subsystem exceeds n + r^2 rows")
    return sorted(selected)


class RoundedSystem(Record):
    """The selected subsystem (a_i, b_i, rounded U_i) driving the membership oracle.

    ``a`` (k, n), ``b`` (k,) and ``factors`` (k, r, r) are float arrays,
    one row per selected row, k <= n + r^2.  ``selected``, ``error_fnorm``
    and ``zeroed`` default to (): ``selected`` is the polytope row of each
    slot, in ascending order as ``select_subsystem`` returns them,
    ``error_fnorm`` ||rounded U_i - U_i||_F per slot, and ``zeroed``
    the selected rows whose nonzero factor rounded to zero, by
    ``zeroed_factors``; the last two are empty when the system was loaded
    rather than rounded.
    """

    __slots__ = ("a", "b", "factors", "grid", "selected", "error_fnorm", "zeroed")
    _defaults = {"selected": (), "error_fnorm": (), "zeroed": ()}

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]


def build_rounded_system(h: HPolytope, f: PsdFactorization, g: GridParams) -> RoundedSystem:
    """Select the working subsystem and round its factors as one stack."""
    if (g.n, g.r) != (h.dim, f.side):
        raise DimensionError(f"grid n, r = {g.n}, {g.r}, but dimension, side = {h.dim}, {f.side}")
    selected = select_subsystem(h, f)
    u = f.row_factors[selected]
    rounded = round_factor(u, g)
    # Row-by-row dot products, as the 2-D np.linalg.norm of each factor
    # takes them; a batched norm sums in another order and moves the last
    # bits.
    err = (rounded - u).reshape(len(selected), 1, f.side**2)
    return RoundedSystem(
        a=h.a[selected].astype(float),
        b=h.b[selected].astype(float),
        factors=rounded,
        grid=g,
        selected=tuple(int(i) for i in selected),
        error_fnorm=tuple(np.sqrt(err @ err.swapaxes(1, 2)).ravel().tolist()),
        zeroed=tuple(int(selected[k]) for k in zeroed_factors(u, rounded)),
    )


def round_report(system: RoundedSystem, col_factors: np.ndarray) -> dict:
    """The round stage's report, which ``run_pipeline`` and ``round run`` both give: the
    grid, the selected and zeroed rows, each selected row's rounding error, and the
    bounds checked against the largest error and entry.  Rounding moves warm start V^j's
    residual on row i by <U'_i - U_i, V^j> <= ||E_i||_F ||V^j||_F: the warm budget's value
    is the largest error times the largest norm of ``col_factors``, the rounded ones'."""
    g = system.grid
    max_error = max(system.error_fnorm, default=0.0)
    squares = _squared_norms(col_factors.reshape(len(col_factors), -1), "column factors")
    budget_margin = max_error * math.sqrt(float(squares.max(initial=0.0)))
    return {
        "delta": g.delta,
        "Delta": g.big_delta,
        "grid_step": g.step,
        "budget": g.budget,
        "selected_rows": list(system.selected),
        "zeroed_factors": list(system.zeroed),
        "error_fnorm": list(system.error_fnorm),
        "error_bound": g.error_bound,
        "error_bound_ok": max_error <= g.error_bound,
        "entry_bound": g.entry_bound,
        "entry_bound_ok": bool(np.abs(system.factors).max(initial=0.0) <= g.entry_bound),
        "max_error_fnorm": max_error,
        "warm_budget_ok": bool(budget_margin <= g.budget),
        "warm_budget_value": float(budget_margin),
    }


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
# The verdicts, indexed by the codes of ``ReconstructionReport.codes``.
VERDICTS = ("member-with-witness", "rejected", "inconclusive")
MEMBER, REJECTED, INCONCLUSIVE = range(3)


class MembershipConfig(Record):
    """A seed that perfbench/workloads.py passes as
    ``PipelineConfig(membership_cfg=MembershipConfig(seed=...))``; the
    oracle is deterministic, and nothing in the package reads it."""

    __slots__ = ("seed",)
    _defaults = {"seed": 11}


class ReconstructionReport(Record):
    """The oracle's verdicts on a list of points, one array per field.

    Row k of every array belongs to point k: ``points`` (B, n) int;
    ``codes`` (B,) indices into VERDICTS; ``violations`` (B,)
    max_i |residual_i| - budget at the final iterate; ``margins`` (B,)
    lambda.c - cap tr((sum_i lambda_i U_i)_+) - budget of the best dual
    seen; ``iterations`` (B,); the final iterates ``witnesses`` (B, r, r);
    and those best duals ``duals`` (B, m), of l1 norm 1 (a single-row dual
    has one +-1 entry), or 0 when none was kept.  Every row holds both,
    whatever its verdict.
    """

    __slots__ = ("points", "codes", "violations", "margins", "iterations", "witnesses", "duals")

    def _points_of(self, code: int) -> list:
        return self.points[self.codes == code].tolist()

    @property
    def accepted(self) -> list:
        """The points with a witness, as lists, in the order of ``points``."""
        return self._points_of(MEMBER)

    @property
    def rejected(self) -> list:
        return self._points_of(REJECTED)

    @property
    def inconclusive(self) -> list:
        return self._points_of(INCONCLUSIVE)

    @property
    def complete(self) -> bool:
        return not (self.codes == INCONCLUSIVE).any()

    def to_json(self) -> dict:
        """Point lists by verdict, and one entry per point with its certificate values."""
        rows = zip(self.points.tolist(), self.codes.tolist(), self.violations.tolist(),
                   self.margins.tolist(), self.iterations.tolist())
        return {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "inconclusive": self.inconclusive,
            "points": [
                {"point": point, "verdict": VERDICTS[code], "violation": violation,
                 "dual_margin": margin, "iterations": iterations}
                for point, code, violation, margin, iterations in rows
            ],
        }


def _dual_values(lam, const, u_flat, cap):
    """lambda.c - cap tr((sum_i lambda_i U_i)_+) for each row of ``lam``.

    All of ``lam`` goes through one product, since a row of a GEMM can
    depend on the rows beside it, and the matrices S of its nonzero rows
    through one ``eigvalsh``; a zero lambda has value exactly 0 and needs
    neither.  For ||lambda||_1 <= 1 every Y in {0 <= Y <= cap I} has
    <S, Y> <= cap tr(S_+), and lambda.c - <S, Y> = lambda.e <= max_i |e_i|;
    so a value above the budget proves that no Y meets it.
    """
    value = np.einsum("bi,bi->b", lam, const)
    nonzero = lam.any(axis=1)
    if nonzero.any():
        r = math.isqrt(u_flat.shape[1])
        s = (lam @ u_flat).reshape(-1, r, r)[nonzero]
        value[nonzero] -= cap * np.maximum(np.linalg.eigvalsh(s), 0.0).sum(axis=1)
    return value


def _single_row_duals(factors, const, cap):
    """Each point's best single-row dual lambda = +-e_i, and its value.

    The value of +-e_i is +-c_i - cap tr((+-U_i)_+); it needs no iterate,
    and ||lambda||_1 = 1, so ``_dual_values``' proof applies.  One
    ``eigvalsh`` measures every factor.  This is the first dual valuation
    of a sweep, before the step size is known, so it is where factors too
    large for the cap raise NumericError.
    """
    m = len(factors)
    spectra = np.linalg.eigvalsh(factors)
    try:
        with np.errstate(over="raise"):
            positive = np.maximum(spectra, 0.0).sum(axis=1)
            negative = -np.minimum(spectra, 0.0).sum(axis=1)
            values = np.concatenate([const - cap * positive, -const - cap * negative], axis=1)
    except FloatingPointError:
        raise NumericError("the dual values overflow: the factors are too large") from None
    pick = values.argmax(axis=1)
    points = np.arange(len(const))
    lam = np.zeros((len(const), m))
    lam[points, pick % m] = np.where(pick < m, 1.0, -1.0)
    return lam, values[points, pick]


def _residuals(y, const, factors, budget):
    """The residuals e_i = c_i - <U_i, Y> of each iterate, and whether Y is within the budget."""
    e = const - symmat.inner_products(y, factors)
    if not np.isfinite(e).all():
        raise NumericError("NaN/Inf in membership iterates")
    return e, np.abs(e).max(axis=1, initial=0.0) <= budget * (1.0 + MEMBER_RTOL)


def _hinge(e, budget):
    """The hinge hinge(|e| - budget) * sign(e) of each residual and its dual
    lambda: the hinge over its l1 norm, 0 when the hinge is 0."""
    hinge = np.maximum(np.abs(e) - budget, 0.0)
    push = hinge * np.sign(e)
    mass = hinge.sum(axis=1, keepdims=True)
    return push, push / np.where(mass > 0.0, mass, 1.0)


def _decide(system: RoundedSystem, xs: np.ndarray, warm: np.ndarray,
            starts: np.ndarray) -> ReconstructionReport:
    """Decide each point of ``xs`` (B, n); point warm[j] starts from starts[j], the others from 0.

    Each warm start (k, r, r) is clipped into K = {0 <= Y <= cap I}, and 0
    is already in K.  Each check costs only what its certificate needs, so
    iteration 1 goes from the cheapest to the dearest: the starts of the
    whole batch as witnesses, which takes no spectrum; the best single-row
    dual +-e_i of each point left open, whose one ``eigvalsh`` of the
    factors serves them all; then the hinge dual of the residual of each
    point still open, one spectrum per point.  Iterations 2 to
    MEMBER_MAX_ITERS take a projected-gradient step on
    sum_i hinge(|e_i| - budget)^2 over K, with the step 1 / L,
    L = 2 ||U||^2 from one spectral norm of the stacked factors, and then
    check each live point's iterate as a witness and, if it is none, the
    hinge dual of its residual.  A dual replaces a point's best only when
    its margin is strictly larger, so a NaN never does, and a point leaves
    at its first certificate; one still live after MEMBER_MAX_ITERS keeps
    the iterate of one more step.  Every
    residual c - <U_i, Y> is one BLAS product of the flattened iterates and
    factors (``symmat.inner_products``).

    Re-validation symmetrises each final iterate and checks it against the
    budget through the full factor stack; only points holding a witness get
    the spectrum that checks the cap.  Each point's best dual is valued
    again.  A point that passes neither check is inconclusive.
    """
    g = system.grid
    budget, cap = g.budget, g.witness_cap
    m, r = system.n_rows, g.r
    u_flat = system.factors.reshape(m, r * r)
    const = system.b - xs @ system.a.T
    y = np.zeros((len(xs), r, r))
    if len(warm):
        y[warm] = symmat.eig_clip(starts, cap)
    found = np.zeros(len(xs), dtype=bool)
    best, best_lam = np.full(len(xs), -np.inf), np.zeros((len(xs), m))
    iterations = np.ones(len(xs), dtype=int)

    def offer(points, lam, margin):
        """Keep each dual whose margin beats its point's best; which points are now rejected."""
        better = margin > best[points]
        best[points[better]] = margin[better]
        best_lam[points[better]] = lam[better]
        return best[points] > budget * MEMBER_RTOL

    live, c, y_live = np.arange(len(xs)), const, y
    for it in range(1, MEMBER_MAX_ITERS + 2):
        if it == 2:
            # A float's ** raises OverflowError, its doubling gives inf.
            try:
                lip = 2.0 * float(np.linalg.norm(u_flat, 2)) ** 2
                if lip == math.inf:
                    raise OverflowError
            except OverflowError:
                raise NumericError("the step size overflows: the factors are too large") from None
            step = 1.0 / lip if lip > 0.0 else 0.0
        if it > 1:
            # The gradient of the objective is -2 sum_i push_i U_i.
            y[live] = symmat.eig_clip(
                y[live] + (2.0 * step) * (push @ u_flat).reshape(-1, r, r), cap)
            if it > MEMBER_MAX_ITERS:
                break
            c, y_live = const[live], y[live]
            iterations[live] = it
        e, member = _residuals(y_live, c, system.factors, budget)
        found[live[member]] = True
        open_ = ~member
        live, c, e = live[open_], c[open_], e[open_]
        if it == 1 and live.size:
            lam, margin = _single_row_duals(system.factors, c, cap)
            open_ = ~offer(live, lam, margin - budget)
            live, c, e = live[open_], c[open_], e[open_]
        if not live.size:
            break
        push, lam = _hinge(e, budget)
        open_ = ~offer(live, lam, _dual_values(lam, c, u_flat, cap) - budget)
        push, live = push[open_], live[open_]
        if not live.size:
            break

    # Re-validation.
    witness = symmat.as_symmetric(y)
    resid = const - symmat.inner_products(witness, system.factors)
    violation = np.abs(resid).max(axis=1, initial=0.0) - budget
    witness_ok = found & (violation <= budget * MEMBER_RTOL)
    spectra = np.linalg.eigvalsh(witness[witness_ok])
    witness_ok[witness_ok] = ((spectra[:, 0] >= -cap * MEMBER_RTOL)
                              & (spectra[:, -1] <= cap * (1.0 + MEMBER_RTOL)))
    best = _dual_values(best_lam, const, u_flat, cap) - budget
    dual_ok = (
        ~found
        & (best > budget * MEMBER_RTOL)
        & (np.abs(best_lam).sum(axis=1) <= 1.0 + MEMBER_RTOL)
    )
    codes = np.where(witness_ok, MEMBER, np.where(dual_ok, REJECTED, INCONCLUSIVE))
    return ReconstructionReport(points=xs.astype(int), codes=codes, violations=violation,
                                margins=best, iterations=iterations, witnesses=witness,
                                duals=best_lam)


def membership_test(x, system: RoundedSystem,
                    warm_start: np.ndarray | None = None) -> ReconstructionReport:
    """Decide one lattice point: a PSD witness Y with ||Y|| <= sqrt(r Delta)
    certifies membership, a dual functional certifies rejection.

    The search starts from ``warm_start``, else from 0; it is the batched
    oracle of ``reconstruct`` run on one point, and its one-row report is
    returned.  ``x`` must have n coordinates and ``warm_start`` be (r, r),
    as the system's grid says; a point need not lie in {0,1}^n.
    """
    n, r = system.grid.n, system.grid.r
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise DimensionError(f"point must have shape ({n},), got {x.shape}")
    starts = (np.zeros((0, r, r)) if warm_start is None
              else np.asarray(warm_start, dtype=float)[None])
    if starts.shape[1:] != (r, r):
        raise DimensionError(f"warm start must have shape ({r}, {r}), got {starts.shape[1:]}")
    return _decide(system, x[None], np.arange(len(starts)), starts)


def reconstruct(system: RoundedSystem, warm_starts: tuple | None = None) -> ReconstructionReport:
    """Run the membership oracle over all of {0,1}^n, lexicographically, n = ``system.grid.n``.

    All points are decided together, up to MEMBER_BATCH at a time.
    ``warm_starts`` is a pair (points, factors) of a (k, n) array of 0/1
    points and a (k, r, r) stack: point j starts from factor j, every other
    point from 0.  Inconclusive verdicts are listed, never dropped; their
    presence marks the reconstruction incomplete.
    """
    n, r = system.grid.n, system.grid.r
    if n > RECONSTRUCT_MAX_DIM:
        raise ResourceError(f"2^{n} membership sweep refused (n > {RECONSTRUCT_MAX_DIM})",
                            arg="system")
    if warm_starts is None:
        warm_starts = (np.zeros((0, n), dtype=np.int64), np.zeros((0, r, r)))
    points, factors = (np.asarray(a) for a in warm_starts)
    if points.shape != (len(factors), n) or factors.shape[1:] != (r, r):
        raise DimensionError(f"warm starts must pair (k, {n}) points with (k, {r}, {r}) factors")
    if not ((points == 0) | (points == 1)).all():
        raise PreconditionError("warm-start points must lie in {0,1}^n")
    # Each point's position in the lexicographic order.
    index = points.astype(np.int64) @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64))
    if 1 << n <= MEMBER_BATCH:
        return _decide(system, next(cube_points(n, MEMBER_BATCH)).astype(float), index, factors)
    parts = []
    for first, bits in zip(range(0, 1 << n, MEMBER_BATCH), cube_points(n, MEMBER_BATCH)):
        here = (index >= first) & (index < first + len(bits))
        parts.append(_decide(system, bits.astype(float), index[here] - first, factors[here]))
    return ReconstructionReport(*(np.concatenate([getattr(p, name) for p in parts])
                                  for name in ReconstructionReport.__slots__))
