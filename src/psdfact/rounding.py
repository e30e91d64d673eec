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
e_i = c_i - <U_i, Y>, c = b - A x, within the budget 1/(4(n + r^2)).  Both
answers are certified.  A witness proves membership.  A dual functional
lambda with ||lambda||_1 <= 1 proves rejection when
lambda.c - cap tr((sum_i lambda_i U_i)_+) > budget: for every Y in K,
lambda.c - <sum_i lambda_i U_i, Y> <= max_i |e_i|, and <S, Y> <= cap tr(S_+)
(conic duality; Ben-Tal & Nemirovski, Lectures on Modern Convex
Optimization).

``reconstruct`` decides all of {0,1}^n in batches, each in three passes.

- The screen takes every point of the batch at its start, a vertex's warm
  start clipped into K or 0, and tries three certificates at once: the
  start as a witness; the hinge dual lambda = hinge * sign(e) /
  ||hinge * sign(e)||_1 of its residual, hinge = max(|e| - budget, 0); and
  the best single-row dual +-e_i, whose value +-c_i - cap tr((+-U_i)_+)
  needs no iterate.  The rounded subsystem determines the vertex set, so
  a 0/1 point outside the polytope violates some integer inequality; when
  that is a selected row i, -e_i proves rejection at once, as +e_i does
  when row i's slack exceeds cap tr(U_i) + budget.
- Projected gradient on sum_i hinge(|e_i| - budget)^2 over K then runs on
  the points the screen left undecided (on crosspoly_01 n=2 the violated
  rows are combinations of the selected ones), and stops each at its
  first witness or hinge-dual certificate.  A point with neither after
  MEMBER_MAX_ITERS iterations is inconclusive.
- Re-validation checks every witness against the budget and the cap, and
  every dual by its value, before a verdict is given.

The verdicts come back as a ``ReconstructionReport`` of columns, one row
per point: points, verdict codes, violations, dual margins, iterations,
witnesses and duals.  Its point lists and JSON form are built from those
columns in bulk, and ``verdict(k)`` gives one point as a
``MembershipVerdict``, which ``membership_test`` returns.
"""

from __future__ import annotations

import itertools
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
        # Written so that NaN fails both checks.
        if not big_delta > 0:
            raise PreconditionError("Delta must be positive")
        if big_delta == math.inf:
            raise PreconditionError("Delta must be finite")
        if not 0 < delta <= grid_delta(n, r) * (1 + 1e-12):
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
    """Round a PSD matrix, or a stack of them, onto the delta/Delta grid via the spectrum.

    Eigenvalues and eigenvector entries are snapped first; the reassembled
    matrix is snapped entrywise so that every entry is an exact grid
    multiple.  PSD-ness survives up to the final entrywise snap.  A factor
    whose top eigenvalue is below half the grid step rounds to zero;
    ``zeroed_factors`` finds those.
    """
    step = g.step
    lam, vec = symmat.spectral_decompose(u)
    rounded = symmat.from_spectrum(round_to_grid(lam, step), round_to_grid(vec, step))
    return round_to_grid((rounded + rounded.swapaxes(-1, -2)) / 2.0, step)


def zeroed_factors(u: np.ndarray, rounded: np.ndarray) -> list[int]:
    """Positions k at which ``u[k]`` is nonzero and ``rounded[k]`` is zero.

    These are the factors of a stack that rounding destroyed.
    """
    return np.flatnonzero(u.any(axis=(1, 2)) & ~rounded.any(axis=(1, 2))).tolist()


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
    # np.linalg.norm(., axis=1)'s own formula, without its wrapper; the
    # loop updates the residual, its squares and the norms in place.
    square = residual * residual
    norms = np.sqrt(np.add.reduce(square, axis=1))
    threshold = symmat.RANK_TOL * max(float(norms.max()), 1.0)
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
    return selected


class RoundedSystem(Record):
    """Padded subsystem (a_i, b_i, rounded U_i) driving the membership oracle.

    ``a`` (n + r^2, n), ``b`` (n + r^2,) and ``factors`` (n + r^2, r, r)
    are float arrays.  ``selected``, ``error_fnorm`` and ``zeroed`` default
    to (): ``error_fnorm`` is ||rounded U_i - U_i||_F per selected row, in
    slot order, and ``zeroed`` the selected rows whose nonzero factor
    rounded to zero, by ``zeroed_factors``; both are empty when the system
    was loaded rather than rounded.
    """

    __slots__ = ("a", "b", "factors", "grid", "selected", "error_fnorm", "zeroed")
    _defaults = {"selected": (), "error_fnorm": (), "zeroed": ()}

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
        zeroed=tuple(int(selected[k]) for k in zeroed_factors(u, rounded)),
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
# The verdicts, indexed by the codes of ``ReconstructionReport.codes``.
VERDICTS = ("member-with-witness", "rejected", "inconclusive")
MEMBER, REJECTED, INCONCLUSIVE = range(3)


class MembershipConfig(Record):
    """A seed that perfbench/workloads.py passes as
    ``PipelineConfig(membership_cfg=MembershipConfig(seed=...))``; the
    oracle is deterministic, and nothing in the package reads it."""

    __slots__ = ("seed",)
    _defaults = {"seed": 11}


class MembershipVerdict(Record):
    """The oracle's verdict on one ``point``.

    ``verdict`` is "member-with-witness", "rejected" or "inconclusive";
    ``witness`` the final iterate Y, None when rejected; ``violation``
    max_i |residual_i| - budget at the final iterate; ``dual_margin``
    lambda.c - cap tr((sum_i lambda_i U_i)_+) - budget, best seen; ``dual``
    that lambda (||lambda||_1 = 1), None when accepted, where a single-row
    dual has one +-1 entry.
    """

    __slots__ = ("point", "verdict", "witness", "violation", "dual_margin", "dual", "iterations")


class ReconstructionReport(Record):
    """The oracle's verdicts on a list of points, one array per field.

    Row k of every array belongs to point k: ``points`` (B, n) int,
    ``codes`` (B,) indices into VERDICTS, ``violations`` and ``margins``
    (B,) as ``MembershipVerdict`` defines them, ``iterations`` (B,), and
    the final iterates ``witnesses`` (B, r, r) and best duals ``duals``
    (B, m).  ``verdict(k)`` gives point k as a ``MembershipVerdict``.
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

    def verdict(self, k: int) -> MembershipVerdict:
        """Point k's verdict; its witness is None when rejected, its dual None when accepted."""
        code = int(self.codes[k])
        return MembershipVerdict(
            point=tuple(self.points[k].tolist()),
            verdict=VERDICTS[code],
            witness=None if code == REJECTED else self.witnesses[k],
            violation=float(self.violations[k]),
            dual_margin=float(self.margins[k]),
            dual=None if code == MEMBER else self.duals[k],
            iterations=int(self.iterations[k]),
        )

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


def _spectra(r: int, *stacks) -> list:
    """The eigenvalues of several (k, r, r) stacks, one (k, r) array per stack.

    One batched eigvalsh covers every matrix; stacks that are all empty
    take none.
    """
    counts = [len(stack) for stack in stacks]
    if not any(counts):
        return [np.zeros((0, r)) for _ in stacks]
    lam = np.linalg.eigvalsh(np.concatenate(stacks))
    return [lam[end - count:end] for count, end in zip(counts, itertools.accumulate(counts))]


def _dual_matrices(lam, u_flat, r):
    """S = sum_i lambda_i U_i for each nonzero row of ``lam``, and the mask of those rows.

    All of ``lam`` goes through one product, since a row of a GEMM can
    depend on the rows beside it; a ``lam`` of zeros takes none.
    """
    nonzero = lam.any(axis=1)
    if not nonzero.any():
        return np.zeros((0, r, r)), nonzero
    return (lam @ u_flat).reshape(-1, r, r)[nonzero], nonzero


def _dual_values(lam, const, cap, nonzero, spectra):
    """lambda.c - cap tr((sum_i lambda_i U_i)_+) for each row of ``lam``.

    ``nonzero`` marks the rows of ``_dual_matrices`` and ``spectra`` holds
    the eigenvalues of their matrices S; a zero lambda has value exactly 0
    and needs no spectrum.  For ||lambda||_1 <= 1 every Y in
    {0 <= Y <= cap I} has <S, Y> <= cap tr(S_+), and
    lambda.c - <S, Y> = lambda.e <= max_i |e_i|; so a value above the
    budget proves that no Y meets it.
    """
    positive = np.zeros(len(lam))
    positive[nonzero] = np.maximum(spectra, 0.0).sum(axis=1)
    return np.einsum("bi,bi->b", lam, const) - cap * positive


def _single_row_duals(rows, spectra, m, const, cap):
    """Each point's best single-row dual lambda = +-e_i, and its value.

    The value of +-e_i is +-c_i - cap tr((+-U_i)_+); it needs no iterate,
    and ||lambda||_1 = 1, so ``_dual_values``' proof applies.  ``rows``
    lists the rows, out of m, whose factor is not zero, and ``spectra``
    holds their eigenvalues; a zero row's traces are 0.
    """
    trace = np.zeros((2, m))
    trace[0, rows] = np.maximum(spectra, 0.0).sum(axis=1)
    trace[1, rows] = -np.minimum(spectra, 0.0).sum(axis=1)
    values = np.concatenate([const - cap * trace[0], -const - cap * trace[1]], axis=1)
    pick = values.argmax(axis=1)
    points = np.arange(len(const))
    lam = np.zeros((len(const), m))
    lam[points, pick % m] = np.where(pick < m, 1.0, -1.0)
    return lam, values[points, pick]


def _hinge(y, const, factors, budget):
    """The residuals e_i = c_i - <U_i, Y> of each iterate and their hinge dual.

    Returns, per point, whether Y is within the budget, the hinge
    hinge(|e| - budget) * sign(e) and its dual lambda: the hinge over its
    l1 norm, 0 when the hinge is 0.
    """
    e = const - symmat.inner_products(y, factors)
    if not np.isfinite(e).all():
        raise NumericError("NaN/Inf in membership iterates")
    size = np.abs(e)
    hinge = np.maximum(size - budget, 0.0)
    push = hinge * np.sign(e)
    mass = hinge.sum(axis=1, keepdims=True)
    member = size.max(axis=1) <= budget * (1.0 + MEMBER_RTOL)
    return member, push, push / np.where(mass > 0.0, mass, 1.0)


def _decide(system: RoundedSystem, xs: np.ndarray, warm: np.ndarray,
            starts: np.ndarray) -> ReconstructionReport:
    """Decide each point of ``xs`` (B, n); point warm[j] starts from starts[j], the others from 0.

    The oracle screens every point, then iterates on the points the screen
    leaves undecided, then re-validates every certificate.

    The screen is iteration 1.  Each warm start (k, r, r) is clipped into
    K = {0 <= Y <= cap I}, and 0 is already in K.  Three certificates are
    tried on the whole batch: a witness when the start meets the budget,
    the hinge dual of its residual, and the best single-row dual +-e_i.  A
    point whose residual is within the budget has a zero hinge dual, whose
    value takes no spectrum.  Unless every point is such a member, the
    factors that the single-row duals read share one ``eigvalsh`` with the
    hinge duals.

    Projected gradient then minimises sum_i hinge(|e_i| - budget)^2 over K
    on the points still live, with the step 1 / L, L = 2 ||U||^2 from one
    spectral norm of the stacked factors.  After each step every live point
    is checked for a witness and its hinge dual; a point leaves at its first
    certificate, and one still live after MEMBER_MAX_ITERS checks keeps the
    iterate of one more step.

    Every residual c - <U_i, Y>, in the screen, the iterations and
    re-validation, is one BLAS product of the flattened iterates and
    factors (``symmat.inner_products``).  Re-validation symmetrises each
    final iterate and checks it against the budget through the full
    factor stack, all n + r^2 padded rows; only points holding a witness
    get the spectrum that checks the cap.  Each point's best dual is
    valued again, in the same ``eigvalsh`` as those witnesses, unless the
    screen found every point: the best duals are then the hinge duals the
    screen valued on this same batch.  A point that passes neither check
    is inconclusive.
    """
    g = system.grid
    budget, cap = g.budget, g.witness_cap
    m, r = system.n_rows, g.r
    u_flat = system.factors.reshape(m, -1)
    const = system.b - xs @ system.a.T

    # The screen.
    y = np.zeros((len(xs), r, r))
    if len(warm):
        y[warm] = symmat.eig_clip(starts, cap)
    found, push, best_lam = _hinge(y, const, system.factors, budget)
    screened = found.all()
    hinge, nonzero = _dual_matrices(best_lam, u_flat, r)
    # The rows whose factors the single-row duals read, unless every point
    # is a member.
    rows = np.zeros(0, dtype=int) if screened else np.flatnonzero(u_flat.any(axis=1))
    hinge_spectra, row_spectra = _spectra(r, hinge, system.factors[rows])
    best = _dual_values(best_lam, const, cap, nonzero, hinge_spectra) - budget
    live = np.flatnonzero(~found & (best <= budget * MEMBER_RTOL))
    if live.size:
        lam, margin = _single_row_duals(rows, row_spectra, m, const[live], cap)
        margin -= budget
        better = margin > best[live]
        best[live[better]] = margin[better]
        best_lam[live[better]] = lam[better]
        live = live[best[live] <= budget * MEMBER_RTOL]
    iterations = np.ones(len(xs), dtype=int)
    iterations[live] = MEMBER_MAX_ITERS

    # Projected gradient on the live points.
    if live.size:
        push = push[live]
        lip = 2.0 * float(np.linalg.norm(u_flat, 2)) ** 2
        step = 1.0 / lip if lip > 0.0 else 0.0
    # Iteration it steps from the check of iteration it - 1, then checks.
    for it in range(2, MEMBER_MAX_ITERS + 2):
        if not live.size:
            break
        # The gradient of the objective is -2 sum_i push_i U_i.
        y[live] = symmat.eig_clip(y[live] + (2.0 * step) * (push @ u_flat).reshape(-1, r, r), cap)
        if it > MEMBER_MAX_ITERS:
            break
        member, push, lam = _hinge(y[live], const[live], system.factors, budget)
        s, nonzero = _dual_matrices(lam, u_flat, r)
        margin = _dual_values(lam, const[live], cap, nonzero, *_spectra(r, s)) - budget
        better = margin > best[live]
        best[live[better]] = margin[better]
        best_lam[live[better]] = lam[better]
        done = member | (best[live] > budget * MEMBER_RTOL)
        found[live[member]] = True
        iterations[live[done]] = it
        push, live = push[~done], live[~done]

    # Re-validation.
    witness = symmat.as_symmetric(y)
    resid = const - symmat.inner_products(witness, system.factors)
    violation = np.abs(resid).max(axis=1) - budget
    witness_ok = found & (violation <= budget * MEMBER_RTOL)
    # Every best dual is valued again, in the witnesses' eigvalsh, unless
    # the screen found every point: each is then its hinge dual, already
    # valued on this batch.
    duals, nonzero = np.zeros((0, r, r)), None
    if not screened:
        duals, nonzero = _dual_matrices(best_lam, u_flat, r)
    witness_spectra, dual_spectra = _spectra(r, witness[witness_ok], duals)
    witness_ok[witness_ok] = ((witness_spectra[:, 0] >= -cap * MEMBER_RTOL)
                              & (witness_spectra[:, -1] <= cap * (1.0 + MEMBER_RTOL)))
    if not screened:
        best = _dual_values(best_lam, const, cap, nonzero, dual_spectra) - budget
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
                    warm_start: np.ndarray | None = None) -> MembershipVerdict:
    """Decide one lattice point: a PSD witness Y with ||Y|| <= sqrt(r Delta)
    certifies membership, a dual functional certifies rejection.

    The search starts from ``warm_start``, else from 0; it is the batched
    oracle of ``reconstruct`` run on one point.
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    r = system.grid.r
    if warm_start is None:
        return _decide(system, x, np.zeros(0, dtype=int), np.zeros((0, r, r))).verdict(0)
    return _decide(system, x, np.zeros(1, dtype=int),
                   np.asarray(warm_start, dtype=float)[None]).verdict(0)


def reconstruct(system: RoundedSystem, n: int,
                warm_starts: tuple | None = None) -> ReconstructionReport:
    """Run the membership oracle over all of {0,1}^n, lexicographically.

    All points are decided together, up to MEMBER_BATCH at a time.
    ``warm_starts`` is a pair (points, factors) of a (k, n) array of 0/1
    points and a (k, r, r) stack: point j starts from factor j, every other
    point from 0.  Inconclusive verdicts are listed, never dropped; their
    presence marks the reconstruction incomplete.
    """
    if n > RECONSTRUCT_MAX_DIM:
        raise ResourceError(f"2^{n} membership sweep refused (n > {RECONSTRUCT_MAX_DIM})",
                            arg="n")
    if n != system.a.shape[1]:
        raise DimensionError(f"n = {n} disagrees with the system's dimension {system.a.shape[1]}",
                             arg="n")
    r = system.grid.r
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
