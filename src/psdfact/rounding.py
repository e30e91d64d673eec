"""Grid rounding of rescaled factors and vertex reconstruction.

A factor U with operator norm at most sqrt(r Delta) is rounded by
snapping its eigenvalues and eigenvector entries to the nearest integer
multiple of delta/Delta (ties toward +inf), reassembling, and snapping
the reassembled entries once more so every entry lands exactly on the
grid.  The Frobenius error stays below 4 delta r^2 / sqrt(Delta).

Membership of a lattice point is decided by searching for a bounded-norm
PSD witness Y with all row residuals |b_i - a_i.x - <U_i, Y>| within the
budget 1/(4(n + r^2)); the search is projected gradient on a convex
hinge objective, so acceptance is certified while rejection is
best-effort (restarts plus stagnation detection).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericError, PreconditionError, ResourceError
from .factorization import PsdFactorization
from .polytopes import HPolytope
from . import symmat


def grid_delta(n: int, r: int) -> float:
    """Largest admissible rounding parameter, (16 r^3 (n + r^2))^-1."""
    if n < 1 or r < 1:
        raise PreconditionError("n and r must be positive")
    return 1.0 / (16.0 * r**3 * (n + r**2))


def round_to_grid(x, step: float):
    """Nearest integer multiple of ``step``, ties toward +inf."""
    return np.floor(np.asarray(x, dtype=float) / step + 0.5) * step


@dataclass(frozen=True)
class GridParams:
    """Rounding grid, tolerance budget, and which Delta convention is used."""

    n: int
    r: int
    delta: float
    big_delta: float
    worst_case: bool = False

    def __post_init__(self):
        # Written so that NaN fails both checks.
        if not self.big_delta > 0:
            raise PreconditionError("Delta must be positive")
        if not 0 < self.delta <= grid_delta(self.n, self.r) * (1 + 1e-12):
            raise PreconditionError(
                f"delta must lie in (0, {grid_delta(self.n, self.r):.3g}]"
            )

    @property
    def step(self) -> float:
        return self.delta / self.big_delta

    @property
    def budget(self) -> float:
        return 1.0 / (4.0 * (self.n + self.r**2))

    @property
    def witness_cap(self) -> float:
        return float(np.sqrt(self.r * self.big_delta))

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
                raise PreconditionError("worst-case Delta supported for n <= 12 only")
            big = float((n + 1) ** ((n + 1) / 2.0))
        else:
            # Integral slack matrices are either zero or have max entry >= 1;
            # the zero case still needs a positive grid.
            big = max(float(delta_eff), 1.0)
        return cls(n=n, r=r, delta=grid_delta(n, r) * scale, big_delta=big,
                   worst_case=worst_case)


@dataclass(frozen=True)
class RoundedFactor:
    """One rounded factor with its certified error and magnitude checks."""

    matrix: np.ndarray
    error_fnorm: float
    error_bound: float
    entry_bound: float
    entry_bound_ok: bool

    @property
    def error_bound_ok(self) -> bool:
        return self.error_fnorm <= self.error_bound


def round_factor(u: np.ndarray, g: GridParams) -> np.ndarray:
    """Round a PSD matrix onto the delta/Delta grid via its spectrum.

    Eigenvalues and eigenvector entries are snapped first; the reassembled
    matrix is snapped entrywise so that every entry is an exact grid
    multiple.  PSD-ness survives up to the final entrywise snap.
    """
    step = g.step
    dec = symmat.spectral_decompose(symmat.as_symmetric(u))
    if step >= 2.0 * max(dec.eigenvalues[0], 0.0) and dec.eigenvalues[0] > 0.0:
        warnings.warn(
            "grid step exceeds twice the top eigenvalue; rounding will "
            "destroy the factor",
            RuntimeWarning,
            stacklevel=2,
        )
    lam = round_to_grid(dec.eigenvalues, step)
    vec = round_to_grid(dec.eigenvectors, step)
    rounded = (vec * lam) @ vec.T
    rounded = round_to_grid((rounded + rounded.T) / 2.0, step)
    return rounded


def round_factorization(factors, g: GridParams) -> tuple:
    """Round a stack of row factors, recording per-factor certificates."""
    out = []
    error_bound = float(4.0 * g.delta * g.r**2 / np.sqrt(g.big_delta))
    entry_bound = float(8.0 * g.r**1.5 * np.sqrt(g.big_delta))
    for u in symmat.as_symmetric(factors):
        rounded = round_factor(u, g)
        out.append(
            RoundedFactor(
                matrix=rounded,
                error_fnorm=float(np.linalg.norm(rounded - u)),
                error_bound=error_bound,
                entry_bound=entry_bound,
                entry_bound_ok=bool(np.max(np.abs(rounded)) <= entry_bound),
            )
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# Subsystem selection


def select_subsystem(h: HPolytope, f: PsdFactorization, rank_tol: float = 1e-9) -> list[int]:
    """Greedy max-volume row subset of the stacked vectors (a_i, vec(U_i)).

    Pivoted Gram-Schmidt: repeatedly add the row whose residual against the
    span of the selected rows is largest, i.e. the row maximizing the Gram
    determinant increase, until no residual exceeds rank_tol times the
    largest row norm.  At most n + r^2 rows are selected.
    """
    if h.n_rows == 0:
        raise PreconditionError("empty inequality system")
    if h.n_rows != f.n_rows:
        raise DimensionError("inequality rows and row factors are misaligned")
    n, r = h.dim, f.side
    vecs = np.concatenate([h.a.astype(float), f.row_factors.reshape(f.n_rows, -1)], axis=1)
    norms = np.linalg.norm(vecs, axis=1)
    threshold = rank_tol * max(float(norms.max()), 1.0)
    residual = vecs.copy()
    selected: list[int] = []
    basis = []
    while True:
        res_norms = np.linalg.norm(residual, axis=1)
        res_norms[selected] = 0.0
        j = int(np.argmax(res_norms))
        if res_norms[j] <= threshold:
            break
        q = residual[j] / res_norms[j]
        basis.append(q)
        selected.append(j)
        residual = residual - np.outer(residual @ q, q)
    if len(selected) > n + r * r:
        raise NumericError("selected subsystem exceeds n + r^2 rows")
    return selected


@dataclass(frozen=True)
class RoundedSystem:
    """Padded subsystem (a_i, b_i, rounded U_i) driving the membership oracle."""

    a: np.ndarray  # (n + r^2, n) float
    b: np.ndarray  # (n + r^2,) float
    factors: np.ndarray  # (n + r^2, r, r) float
    grid: GridParams
    selected: tuple = ()
    rounding: tuple = ()  # RoundedFactor records for the selected rows

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]


def build_rounded_system(h: HPolytope, f: PsdFactorization, g: GridParams) -> RoundedSystem:
    """Select the working subsystem, round its factors, pad with zero rows."""
    selected = select_subsystem(h, f)
    rounded = round_factorization(f.row_factors[selected], g)
    total = g.n + g.r**2
    a = np.zeros((total, h.dim))
    b = np.zeros(total)
    mats = np.zeros((total, f.side, f.side))
    for slot, i in enumerate(selected):
        a[slot] = h.a[i]
        b[slot] = h.b[i]
        mats[slot] = rounded[slot].matrix
    return RoundedSystem(
        a=a, b=b, factors=mats, grid=g,
        selected=tuple(int(i) for i in selected), rounding=rounded,
    )


# ---------------------------------------------------------------------------
# Membership oracle


# Projected-gradient iterations per start; random starts after the warm ones.
MEMBER_MAX_ITERS = 4000
MEMBER_RESTARTS = 5
# Hinge objective at or below which a witness counts as found.
MEMBER_TOL = 1e-14
# A start stagnates when its objective drops by at most
# STAGNATION_RTOL * (1 + objective) over STAGNATION_WINDOW iterations.
STAGNATION_WINDOW = 100
STAGNATION_RTOL = 1e-12
# Rejection needs every start stagnant at or above REJECT_RATIO * budget^2.
REJECT_RATIO = 0.25


@dataclass(frozen=True)
class MembershipConfig:
    seed: int = 11


@dataclass(frozen=True)
class MembershipVerdict:
    point: tuple
    verdict: str  # "member-with-witness" | "rejected" | "inconclusive"
    witness: np.ndarray | None
    violation: float  # max_i |residual_i| - budget at the best witness
    objective: float
    iterations: int


def _pgd_feasibility(y0, u_stack, const, budget, cap):
    """Projected gradient on sum hinge(|e_i| - budget)^2 over the capped PSD cone."""
    m = u_stack.shape[0]
    flat = u_stack.reshape(m, -1)
    lip = 2.0 * float(np.linalg.norm(flat, 2)) ** 2
    y = symmat.eig_clip(symmat.as_symmetric(y0), 0.0, cap)
    history = []
    stagnant = False
    it = 0
    for it in range(MEMBER_MAX_ITERS):
        e = const - np.einsum("irs,rs->i", u_stack, y)
        hinge = np.maximum(np.abs(e) - budget, 0.0)
        obj = float(hinge @ hinge)
        if not np.isfinite(obj):
            raise NumericError("NaN/Inf in membership iterates")
        history.append(obj)
        if obj <= MEMBER_TOL:
            break
        if len(history) > STAGNATION_WINDOW:
            past = history[-STAGNATION_WINDOW - 1]
            if past - obj <= STAGNATION_RTOL * (1.0 + past):
                stagnant = True
                break
        if lip == 0.0:
            stagnant = True
            break
        grad = np.einsum("i,irs->rs", -2.0 * hinge * np.sign(e), u_stack)
        y = symmat.eig_clip(symmat.as_symmetric(y - grad / lip), 0.0, cap)
    e = const - np.einsum("irs,rs->i", u_stack, y)
    hinge = np.maximum(np.abs(e) - budget, 0.0)
    return y, float(hinge @ hinge), float(np.max(np.abs(e)) - budget), stagnant, it + 1


def membership_test(
    x,
    system: RoundedSystem,
    cfg: MembershipConfig = MembershipConfig(),
    warm_starts=(),
) -> MembershipVerdict:
    """Search for a PSD witness Y with ||Y|| <= sqrt(r Delta) certifying x.

    Acceptance requires a witness whose residuals are all within the
    budget, re-validated from scratch.  Rejection is reported only when
    every restart stagnated well above the member level; anything in
    between is inconclusive.
    """
    x = np.asarray(x, dtype=float)
    g = system.grid
    const = system.b - system.a @ x
    u_stack = system.factors
    cap = g.witness_cap
    budget = g.budget
    r = g.r
    rng = np.random.default_rng(cfg.seed)

    starts = [symmat.as_symmetric(w) for w in warm_starts]
    starts.append(np.zeros((r, r)))
    for _ in range(MEMBER_RESTARTS):
        raw = rng.standard_normal((r, r))
        starts.append(symmat.as_symmetric(raw @ raw.T / r * cap / 2.0))

    best = None
    all_stagnant = True
    total_iters = 0
    for y0 in starts:
        y, obj, viol, stagnant, iters = _pgd_feasibility(y0, u_stack, const, budget, cap)
        total_iters += iters
        if best is None or obj < best[1]:
            best = (y, obj, viol)
        if obj <= MEMBER_TOL:
            all_stagnant = True
            break
        if not stagnant:
            all_stagnant = False

    y, obj, viol = best
    point = tuple(int(v) for v in np.asarray(x).ravel())
    if obj <= MEMBER_TOL:
        # Re-validate the witness from scratch at the stated budget.
        e = system.b - system.a @ x - np.einsum("irs,rs->i", u_stack, y)
        if np.max(np.abs(e)) <= budget * (1.0 + 1e-9) and symmat.operator_norm(y) <= cap * (1.0 + 1e-9):
            return MembershipVerdict(
                point=point, verdict="member-with-witness", witness=y,
                violation=float(np.max(np.abs(e)) - budget), objective=obj,
                iterations=total_iters,
            )
        return MembershipVerdict(
            point=point, verdict="inconclusive", witness=y,
            violation=viol, objective=obj, iterations=total_iters,
        )
    floor = REJECT_RATIO * budget**2
    if obj >= floor and all_stagnant:
        return MembershipVerdict(
            point=point, verdict="rejected", witness=None,
            violation=viol, objective=obj, iterations=total_iters,
        )
    return MembershipVerdict(
        point=point, verdict="inconclusive", witness=y,
        violation=viol, objective=obj, iterations=total_iters,
    )


@dataclass(frozen=True)
class ReconstructionReport:
    accepted: tuple
    rejected: tuple
    inconclusive: tuple
    complete: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "complete", len(self.inconclusive) == 0)


def reconstruct(
    system: RoundedSystem,
    n: int,
    cfg: MembershipConfig = MembershipConfig(),
    warm_start_map=None,
    max_dim: int = 20,
) -> ReconstructionReport:
    """Run the membership oracle over all of {0,1}^n, lexicographically.

    Inconclusive verdicts are listed, never dropped; their presence marks
    the reconstruction incomplete.
    """
    if n > max_dim:
        raise ResourceError(f"2^{n} membership sweep refused (n > {max_dim})")
    if n != system.a.shape[1]:
        raise DimensionError(f"n = {n} disagrees with the system's dimension {system.a.shape[1]}")
    warm_start_map = warm_start_map or {}
    accepted, rejected, inconclusive = [], [], []
    for idx in range(1 << n):
        x = np.array([(idx >> (n - 1 - j)) & 1 for j in range(n)], dtype=float)
        key = tuple(int(v) for v in x)
        verdict = membership_test(x, system, cfg, warm_starts=warm_start_map.get(key, ()))
        if verdict.verdict == "member-with-witness":
            accepted.append(verdict)
        elif verdict.verdict == "rejected":
            rejected.append(verdict)
        else:
            inconclusive.append(verdict)
    return ReconstructionReport(
        accepted=tuple(accepted), rejected=tuple(rejected), inconclusive=tuple(inconclusive)
    )
