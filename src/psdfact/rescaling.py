"""Congruence rescaling of semidefinite factorizations.

Pipeline: reduce a factorization onto the common image space of its two
side-averages, balance the sides by a scalar so both attain the same top
norm mu, then repeatedly shrink the largest row factors with congruence
steps exp(-eps Z) (and grow the column side with exp(+eps Z)).  The
direction Z is the moment matrix of a John decomposition: the minimum
volume enclosing ellipsoid of the top-eigenspace directions of all row
factors currently at norm mu.  A monotone line search over a geometric
eps grid converts the descent direction into concrete steps; the loop
stops once the potential lmax(U) * lmax(V) falls below d * Delta times
(1 + tol), with d the reduced dimension and Delta the largest entry of
the factored matrix.

The line search is exact but measures only candidates that can still
win.  With E = exp(-eps Z), ||U|| <= ||E^-1||^2 ||E U E|| for symmetric U,
and likewise on the column side, so every candidate has
phi(eps) >= phi0 exp(-2 eps (lam_max(Z) - lam_min(Z))) with phi0 the
current potential.  The largest eps is measured first, then in one batch
every smaller eps whose bound does not exceed that candidate's phi (up to
BOUND_RTOL); the others cannot reach the minimum of the whole grid.

The loop keeps the balanced winner of each line search, the operator
norms of its factors (measured once per step and shared by the
direction, the line search and the trajectory) and M, the product of the
accepted steps.  The returned transform is the polar part
P = (M^T M)^(1/2), formed once at the end; M = Q P with Q orthogonal, so
the congruence by P has the norms of the last winner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, NumericError, PreconditionError
from .factorization import (
    PsdFactorization,
    congruence,
    max_operator_norm,
    operator_norms,
    potential,
    verify_factorization,
)
from .polytopes import SlackMatrix
from . import symmat

# Default geometric line-search grid, as multiples of 1 / ||Z||.
DEFAULT_EPS_GRID = tuple(2.0 ** (-k) for k in range(20, 0, -1))
# Relative slack on the line search's lower bound, for round-off in phi and
# in the bound: a candidate is skipped only when bound * (1 - BOUND_RTOL)
# exceeds a measured phi.
BOUND_RTOL = 1e-9
# Random unit samples per degenerate top eigenspace (doubled after a stall).
SPHERE_SAMPLES = 64
# Relative gap within which a row factor is tight and the sides balanced.
MU_TOL = 1e-6
# Residual tolerance, relative to 1 + Delta, of input and rescaled factors.
VERIFY_TOL = 1e-8
# MVEE: relative volume gap, contact-weight floor, iteration cap.
MVEE_VOL_TOL = 1e-7
MVEE_WEIGHT_FLOOR = 1e-9
MVEE_MAX_ITERS = 200_000
# Largest accepted gap in the John identity and in the contact radii.
JOHN_TOL = 1e-6


# ---------------------------------------------------------------------------
# John decomposition (minimum-volume enclosing ellipsoid of a symmetric set)


@dataclass(frozen=True)
class JohnDecomposition:
    """MVEE of a centrally symmetric point set, with contact points.

    T maps the unit ball of R^k onto the ellipsoid inside the ambient
    space; the contact points z (rows) carry weights p summing to one and
    satisfy sum p z z^T = T T^T / k.
    """

    dim: int
    ellipsoid_map: np.ndarray  # (ambient, k)
    points: np.ndarray  # (m, ambient)
    weights: np.ndarray  # (m,)

    def moment_matrix(self) -> np.ndarray:
        return symmat.as_symmetric(
            np.einsum("m,mi,mj->ij", self.weights, self.points, self.points)
        )


def _fold_symmetric(points: np.ndarray) -> np.ndarray:
    """One representative per antipodal pair, duplicates removed.

    The input is read as the generators of a symmetric set conv(+-points),
    so folding is canonical: flip each point so its first nonzero
    coordinate is positive.
    """
    pts = np.array(points, dtype=float)
    first = np.take_along_axis(pts, np.argmax(pts != 0, axis=1)[:, None], axis=1)[:, 0]
    pts[first < 0] *= -1.0
    pts = np.unique(pts, axis=0)
    keep = np.linalg.norm(pts, axis=1) > 0
    return pts[keep]


def _mvee_weights(y: np.ndarray, eps_g: float) -> np.ndarray:
    """Optimal design weights for the centered MVEE of rows of y.

    Maximizes log det of M(u) = sum u_i y_i y_i^T over the simplex with
    Wolfe-style add and away steps; at optimality every support point has
    leverage g_i = y_i^T M(u)^{-1} y_i equal to the dimension k.
    """
    m, k = y.shape
    u = np.full(m, 1.0 / m)
    for it in range(MVEE_MAX_ITERS):
        mat = (y * u[:, None]).T @ y
        try:
            g = np.einsum("ij,ji->i", y, np.linalg.solve(mat, y.T))
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"singular moment matrix in MVEE iteration: {exc}") from exc
        j_plus = int(np.argmax(g))
        gap_plus = g[j_plus] - k
        support = np.nonzero(u > 0)[0]
        j_minus = support[int(np.argmin(g[support]))]
        gap_minus = k - g[j_minus]
        if gap_plus <= k * eps_g and gap_minus <= k * eps_g:
            return u
        if gap_plus >= gap_minus:
            j, gj = j_plus, g[j_plus]
            beta = (gj - k) / (k * (gj - 1.0))
        else:
            j, gj = j_minus, g[j_minus]
            if u[j] >= 1.0:
                return u  # single support point; nothing to move
            drop = -u[j] / (1.0 - u[j])
            if gj > 1.0 + 1e-12:
                beta = max((gj - k) / (k * (gj - 1.0)), drop)
            else:
                beta = drop
        u = (1.0 - beta) * u
        u[j] += beta
        np.clip(u, 0.0, None, out=u)
        if it % 128 == 127:
            u /= u.sum()
    mat = (y * u[:, None]).T @ y
    g = np.einsum("ij,ji->i", y, np.linalg.solve(mat, y.T))
    raise ConvergenceError(
        "MVEE did not converge",
        duality_gap=float(np.max(g) / k - 1.0),
        iterations=MVEE_MAX_ITERS,
    )


def john_decompose(points) -> JohnDecomposition:
    """John decomposition of the symmetric hull of a finite point set.

    Points are generators: the body is conv(points U -points).  Requires
    the points to span a subspace of dimension at least one.  The result
    is validated (probability weights, John identity, contact points on
    the boundary) before it is returned.
    """
    pts = _fold_symmetric(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise PreconditionError("point set spans the zero subspace")
    # Orthonormal basis of the span; all MVEE work happens in coordinates.
    _, sig, vt = np.linalg.svd(pts, full_matrices=False)
    keep = sig > symmat.RANK_TOL * sig[0]
    basis = vt[keep].T  # (ambient, k)
    k = basis.shape[1]
    y = pts @ basis
    # Leverage tolerance tight enough for the target relative volume gap.
    eps_g = min(1e-8, 2.0 * MVEE_VOL_TOL / k)
    u = _mvee_weights(y, eps_g)
    kept = u > MVEE_WEIGHT_FLOOR
    w = u[kept] / u[kept].sum()
    yk = y[kept]
    moment = (yk * w[:, None]).T @ yk
    t_map = basis @ symmat.sqrt_psd(k * moment)
    jd = JohnDecomposition(
        dim=k, ellipsoid_map=t_map, points=pts[kept], weights=w
    )
    _validate_john(jd)
    return jd


def _validate_john(jd: JohnDecomposition) -> None:
    if np.any(jd.weights < 0) or abs(jd.weights.sum() - 1.0) > 1e-9:
        raise NumericError("John weights are not a probability vector")
    t = jd.ellipsoid_map
    identity_gap = np.linalg.norm(jd.moment_matrix() - (t @ t.T) / jd.dim)
    if identity_gap > JOHN_TOL:
        raise NumericError(f"John identity violated: gap {identity_gap:.3g}")
    t_pinv = np.linalg.pinv(t)
    radii = np.linalg.norm(jd.points @ t_pinv.T, axis=1)
    if np.any(np.abs(radii - 1.0) > JOHN_TOL):
        raise NumericError(
            f"contact point off the ellipsoid boundary by {np.max(np.abs(radii - 1.0)):.3g}"
        )


# ---------------------------------------------------------------------------
# Reduction, balancing, descent


def _side_average(stack: np.ndarray) -> np.ndarray:
    """Symmetrized mean of one side's factors, summed one after another.

    A plain sum over the factor index; np.sum's pairwise blocking rounds
    differently and would move the reduced space, and with it every
    rescaling trajectory, in the last bits.
    """
    return symmat.as_symmetric(np.add.accumulate(stack, axis=0)[-1] / len(stack))


def reduce_to_common_space(f: PsdFactorization) -> tuple[PsdFactorization, symmat.Subspace]:
    """Compress a factorization onto W = P_{Im(mean U)}(Im(mean V)).

    Returns the reduced factorization (O^T U O, O^T V O) together with the
    basis subspace O.  On the reduced space both side-averages are
    nonsingular; dimension zero (all-zero products) yields empty factors.
    """
    if not f.n_rows or not f.n_cols:
        raise PreconditionError("factorization must be nonempty on both sides")
    u_bar = _side_average(f.row_factors)
    v_bar = _side_average(f.col_factors)
    w = symmat.project_subspace(symmat.image_basis(u_bar), symmat.image_basis(v_bar))
    o = w.basis
    rows, cols = (symmat.as_symmetric(o.T @ side @ o) for side in (f.row_factors, f.col_factors))
    reduced = PsdFactorization(row_factors=rows, col_factors=cols)
    if w.dim > 0:
        for side, label in ((reduced.row_factors, "row"), (reduced.col_factors, "column")):
            lam = np.linalg.eigvalsh(_side_average(side))
            if lam[0] <= symmat.RANK_TOL * max(lam[-1], 0.0):
                raise NumericError(
                    f"reduced {label} average is singular (min eigenvalue {lam[0]:.3g})"
                )
    return reduced, w


def _top_norms(f: PsdFactorization) -> tuple[float, float]:
    """(lmax(U), lmax(V)): the largest operator norm on each side."""
    return max_operator_norm(f.row_factors), max_operator_norm(f.col_factors)


def balance_scalar(f: PsdFactorization) -> PsdFactorization:
    """Rescale (s^2 U, V / s^2) so both sides attain the same top norm.

    The potential is unchanged and afterwards lmax(U) = lmax(V) = sqrt(phi).
    """
    return _balanced(f, *_top_norms(f))


def _balanced(f: PsdFactorization, lmax_u: float, lmax_v: float) -> PsdFactorization:
    """``balance_scalar`` from the two top norms of ``f``, already measured."""
    if lmax_u == 0.0 or lmax_v == 0.0:
        if lmax_u == lmax_v:
            return f
        raise PreconditionError(
            "one side of the factorization is zero while the other is not"
        )
    s2 = np.sqrt(lmax_v / lmax_u)
    return PsdFactorization(row_factors=f.row_factors * s2, col_factors=f.col_factors / s2)


def _side_norms(f: PsdFactorization) -> tuple[np.ndarray, np.ndarray]:
    """The operator norm of every factor, one array per side."""
    return operator_norms(f.row_factors), operator_norms(f.col_factors)


def _tops(norms: tuple[np.ndarray, np.ndarray]) -> tuple[float, float]:
    """(lmax(U), lmax(V)) from ``_side_norms``."""
    return float(norms[0].max(initial=0.0)), float(norms[1].max(initial=0.0))


def _balanced_mu(norms: tuple[np.ndarray, np.ndarray]) -> float:
    """Balanced top norm mu, from ``_side_norms``."""
    lmax_u, lmax_v = _tops(norms)
    mu = max(lmax_u, lmax_v)
    if mu == 0.0:
        raise PreconditionError("cannot perturb a zero factorization")
    if abs(lmax_u - lmax_v) > MU_TOL * mu:
        raise PreconditionError(
            f"factorization is not balanced: lmax_u={lmax_u:.6g}, lmax_v={lmax_v:.6g}"
        )
    return mu


def perturbation_direction(
    f: PsdFactorization,
    sphere_samples: int = SPHERE_SAMPLES,
    rng: np.random.Generator | None = None,
    norms: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Descent direction Z from a John decomposition of top eigenspaces.

    Collects the top-eigenspace unit sphere of every row factor at the
    balanced norm mu (exact eigenbasis plus random unit samples per
    space), takes the MVEE of the symmetric hull, and returns its moment
    matrix Z = sum p(z) z z^T = T T^T / k.  ``norms`` is the operator norm
    of every factor of ``f``, one array per side; it is measured here when
    not given.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    norms = _side_norms(f) if norms is None else norms
    mu = _balanced_mu(norms)
    tight = f.row_factors[norms[0] >= mu * (1.0 - MU_TOL)]
    if len(tight) == 0:
        raise NumericError("no row factor attains the balanced norm")
    pts = []
    for u in tight:
        basis = symmat.spectral_decompose(u).top_cluster()
        pts.extend(basis.T)
        width = basis.shape[1]
        if width > 1:
            g = rng.standard_normal((sphere_samples, width))
            norms = np.linalg.norm(g, axis=1)
            ok = norms > 1e-12
            pts.extend((g[ok] / norms[ok, None]) @ basis.T)
    jd = john_decompose(np.asarray(pts))
    return jd.moment_matrix()


def descent_step(
    f: PsdFactorization,
    z: np.ndarray,
    eps_grid=DEFAULT_EPS_GRID,
    *,
    phi0: float | None = None,
    counts: dict | None = None,
) -> tuple[PsdFactorization, float | None]:
    """Line search over (exp(-eps Z) U exp(-eps Z), exp(eps Z) V exp(eps Z)).

    Grid values are multiples of 1 / ||Z||.  The candidate with the lowest
    potential wins (ties to the smallest eps) and is accepted only on a
    strict relative decrease of at least 1e-12 below ``phi0``, the
    potential of ``f`` (measured here when not given).

    Only candidates that can still win are measured.  Every candidate obeys
    phi(eps) >= phi0 exp(-2 eps (lam_max(Z) - lam_min(Z))), a bound that
    falls as eps grows.  The largest eps is measured first; then, in one
    second batch, every smaller eps whose bound times (1 - BOUND_RTOL) is
    at most that candidate's phi.  A skipped candidate has phi above the
    largest eps's, hence strictly above the best measured one, so it can be
    neither the minimum nor a tie: the winner is the one a search of the
    whole grid picks.  Each batch is one broadcast product per side, of
    shape (candidates, factors, d, d), measured by one batched eigvalsh per
    side.  When ``counts`` is given, the number of candidates measured is
    added to ``counts["line_search_candidates"]``.

    Returns the winner balanced by the scalar of ``balance_scalar``, taken
    from the norms the search measured, and its eps; ``rescale`` keeps that
    pair as its working state.  Returns (f, None) on a stall.
    """
    z = symmat.as_symmetric(z)
    z_norm = symmat.operator_norm(z)
    if z_norm == 0.0 or len(eps_grid) == 0:
        return f, None
    phi0 = potential(f) if phi0 is None else phi0
    dec = symmat.spectral_decompose(z)
    lam, q = dec.eigenvalues, dec.eigenvectors
    eps = np.sort(np.asarray(eps_grid, dtype=float)) / z_norm

    def measure(k):
        # Slice i of each stack is exp(-+eps_k[i] Z), written through Z's eigenbasis.
        e = eps[k]
        shrink = symmat.as_symmetric((q * np.exp(-e[:, None] * lam)[:, None, :]) @ q.T)[:, None]
        grow = symmat.as_symmetric((q * np.exp(e[:, None] * lam)[:, None, :]) @ q.T)[:, None]
        rows = symmat.as_symmetric(shrink @ f.row_factors @ shrink)
        cols = symmat.as_symmetric(grow @ f.col_factors @ grow)
        return rows, cols, operator_norms(rows).max(axis=1), operator_norms(cols).max(axis=1)

    top = len(eps) - 1
    last = measure(np.array([top]))
    phi_top = last[2][0] * last[3][0]
    bound = phi0 * np.exp(-2.0 * eps[:top] * (lam[0] - lam[-1]))
    live = np.flatnonzero(bound * (1.0 - BOUND_RTOL) <= phi_top)
    idx = np.append(live, top)
    if counts is not None:
        counts["line_search_candidates"] = counts.get("line_search_candidates", 0) + idx.size
    head = measure(live)
    phi = np.append(head[2] * head[3], phi_top)
    best = int(np.argmin(phi))  # first minimum, ascending eps: ties go to the smallest eps
    if phi[best] > phi0 * (1.0 - 1e-12):
        return f, None
    rows, cols, lmax_u, lmax_v = (a[best] for a in head) if best < live.size else (a[0] for a in last)
    winner = PsdFactorization(row_factors=rows, col_factors=cols)
    return _balanced(winner, float(lmax_u), float(lmax_v)), float(eps[idx[best]])


# ---------------------------------------------------------------------------
# The full rescaling loop


@dataclass(frozen=True)
class RescaleConfig:
    tol: float = 0.05
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        # Written so that NaN fails the check.
        if not 0.0 <= self.tol < np.inf:
            raise PreconditionError(f"tol must be finite and >= 0, got {self.tol!r}")
        if self.max_iters < 0:
            raise PreconditionError(f"max_iters must be >= 0, got {self.max_iters!r}")


@dataclass(frozen=True)
class RescaleResult:
    transform: np.ndarray
    transform_pinv: np.ndarray
    factorization: PsdFactorization
    phi_trajectory: tuple
    # (lmax_u, lmax_v) per recorded iteration, measured on the working
    # factorization: the balanced reduced input, then each line-search
    # winner as descent_step balanced it.  Whenever the common space is
    # nonzero the two are equal up to round-off; the CLI trace records
    # their max.
    lmax_trajectory: tuple
    lmax_u: float
    lmax_v: float
    certificate: bool
    iterations: int
    reduced_dim: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def target(self) -> float:
        return self.diagnostics.get("target_lmax", float("nan"))


def rescale(f: PsdFactorization, s: SlackMatrix, cfg: RescaleConfig = RescaleConfig()) -> RescaleResult:
    """Find a PSD congruence A with lmax(A U A), lmax(A+ V A+) <= sqrt(d Delta).

    The returned transform acts on the original side r; its pseudo-inverse
    handles the column factors, so the rescaled factorization still
    reproduces the slack matrix.  The certificate flag is set only when
    the recomputed norms meet sqrt(d * Delta) * (1 + tol) with d the
    reduced dimension and Delta the largest slack entry.
    """
    report = verify_factorization(f, s, VERIFY_TOL)
    if not report.passed:
        raise PreconditionError(
            f"input factorization does not reproduce the slack matrix "
            f"(max residual {report.max_abs_residual:.3g})"
        )
    delta = s.max_entry
    r = f.side
    rng = np.random.default_rng(cfg.seed)

    reduced, subspace = reduce_to_common_space(f)
    d = subspace.dim
    target_phi = d * delta * (1.0 + cfg.tol)
    target_lmax = np.sqrt(d * delta) * (1.0 + cfg.tol)

    if d == 0:
        lmax_u, lmax_v = _top_norms(f)
        eye = np.eye(r)
        return RescaleResult(
            transform=eye,
            transform_pinv=eye,
            factorization=f,
            phi_trajectory=(lmax_u * lmax_v,),
            lmax_trajectory=((lmax_u, lmax_v),),
            lmax_u=lmax_u,
            lmax_v=lmax_v,
            certificate=bool(lmax_u <= target_lmax and lmax_v <= target_lmax),
            iterations=0,
            reduced_dim=0,
            diagnostics={
                "target_lmax": target_lmax,
                "note": "zero common space",
                "line_search_candidates": 0,
            },
        )

    o = subspace.basis
    u_bar = _side_average(reduced.row_factors)
    v_bar = _side_average(reduced.col_factors)
    sigma = min(
        float(np.min(np.linalg.eigvalsh(u_bar))), float(np.min(np.linalg.eigvalsh(v_bar)))
    )
    tau = potential(reduced)
    cond_cap = max(1e12, 100.0 * tau / max(sigma, 1e-300) ** 2)

    # State: the balanced working factorization fw that descent_step
    # returns, the norms of its factors, and M = exp(-eps_k Z_k) ...
    # exp(-eps_1 Z_1) up to a positive scalar: fw = (c M U M^T,
    # M^-T V M^-1 / c) for the reduced (U, V) and some c > 0.
    fw = balance_scalar(reduced)
    norms = _side_norms(fw)
    lmax_traj = [_tops(norms)]
    m = np.eye(d)
    sphere = SPHERE_SAMPLES
    doubled = False
    iterations = 0
    stalled = False
    counts = {"line_search_candidates": 0}

    while iterations < cfg.max_iters and np.prod(lmax_traj[-1]) > target_phi:
        z = perturbation_direction(fw, sphere, rng, norms)
        lmax_u, lmax_v = lmax_traj[-1]
        step, eps = descent_step(fw, z, phi0=lmax_u * lmax_v, counts=counts)
        if eps is None:
            if doubled:
                stalled = True
                break
            doubled = True
            sphere *= 2
            iterations += 1
            continue
        m = symmat.matrix_exponential(-eps * z) @ m
        sv = np.linalg.svd(m, compute_uv=False)
        if sv[-1] <= 0 or sv[0] / sv[-1] > cond_cap:
            raise NumericError(
                "rescaling transform is blowing up; the bounded-minimizer "
                f"diagnostic cap {cond_cap:.3g} was exceeded "
                f"(condition number {sv[0] / max(sv[-1], 1e-300):.3g})"
            )
        # Each step can divide ||M|| by up to e^(1/2); its scale is free, and
        # holding it at 1 keeps runs with a large max_iters from underflowing.
        m /= sv[0]
        fw = step
        norms = _side_norms(fw)
        lmax_traj.append(_tops(norms))
        iterations += 1

    # M = L S R^T = Q P with Q = L R^T orthogonal and P = R S R^T, so
    # M U M^T = Q (P U P) Q^T: the congruence by P has the norms of fw once
    # balanced by a scalar.  P is lifted by O, so A = W S W^T, W = O R.
    _, sv, rt = np.linalg.svd(m)
    p_u, p_v = _top_norms(congruence(reduced, (rt.T * sv) @ rt, (rt.T / sv) @ rt))
    sv = sv * (p_v / p_u) ** 0.25
    w = o @ rt.T
    transform = symmat.as_symmetric((w * sv) @ w.T)
    transform_pinv = symmat.as_symmetric((w / sv) @ w.T)
    rescaled = congruence(f, transform, transform_pinv)
    final = verify_factorization(rescaled, s, VERIFY_TOL)
    # Congruence by an exact inverse pair preserves the products, so the
    # residual may only drift by float error beyond what came in.
    if final.max_abs_residual > report.max_abs_residual + VERIFY_TOL * (1.0 + delta):
        raise NumericError(
            f"rescaled factorization drifted off the slack matrix "
            f"(max residual {final.max_abs_residual:.3g})"
        )
    lmax_u = final.lmax_u
    lmax_v = final.lmax_v
    certificate = bool(lmax_u <= target_lmax and lmax_v <= target_lmax)
    return RescaleResult(
        transform=transform,
        transform_pinv=transform_pinv,
        factorization=rescaled,
        phi_trajectory=tuple(u * v for u, v in lmax_traj),
        lmax_trajectory=tuple(lmax_traj),
        lmax_u=lmax_u,
        lmax_v=lmax_v,
        certificate=certificate,
        iterations=iterations,
        reduced_dim=d,
        diagnostics={
            "target_lmax": target_lmax,
            "target_phi": target_phi,
            "delta_eff": delta,
            "sigma": sigma,
            "tau": tau,
            "stalled": stalled,
            "sphere_samples_final": sphere,
            "residual": final.max_abs_residual,
            **counts,
        },
    )
