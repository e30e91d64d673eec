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
    for row in pts:
        nz = np.nonzero(row)[0]
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
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


def _validate_john(jd: JohnDecomposition, tol: float = 1e-6) -> None:
    if np.any(jd.weights < 0) or abs(jd.weights.sum() - 1.0) > 1e-9:
        raise NumericError("John weights are not a probability vector")
    t = jd.ellipsoid_map
    identity_gap = np.linalg.norm(jd.moment_matrix() - (t @ t.T) / jd.dim)
    if identity_gap > tol:
        raise NumericError(f"John identity violated: gap {identity_gap:.3g}")
    t_pinv = np.linalg.pinv(t)
    radii = np.linalg.norm(jd.points @ t_pinv.T, axis=1)
    if np.any(np.abs(radii - 1.0) > tol):
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


def balance_scalar(f: PsdFactorization) -> PsdFactorization:
    """Rescale (s^2 U, V / s^2) so both sides attain the same top norm.

    The potential is unchanged and afterwards lmax(U) = lmax(V) = sqrt(phi).
    """
    lmax_u = max_operator_norm(f.row_factors)
    lmax_v = max_operator_norm(f.col_factors)
    if lmax_u == 0.0 or lmax_v == 0.0:
        if lmax_u == lmax_v:
            return f
        raise PreconditionError(
            "one side of the factorization is zero while the other is not"
        )
    s2 = np.sqrt(lmax_v / lmax_u)
    return PsdFactorization(row_factors=f.row_factors * s2, col_factors=f.col_factors / s2)


def _balanced_mu(f: PsdFactorization) -> tuple[float, np.ndarray]:
    """Balanced top norm mu and the operator norm of every row factor."""
    row_norms = operator_norms(f.row_factors)
    lmax_u = float(row_norms.max(initial=0.0))
    lmax_v = float(operator_norms(f.col_factors).max(initial=0.0))
    mu = max(lmax_u, lmax_v)
    if mu == 0.0:
        raise PreconditionError("cannot perturb a zero factorization")
    if abs(lmax_u - lmax_v) > MU_TOL * mu:
        raise PreconditionError(
            f"factorization is not balanced: lmax_u={lmax_u:.6g}, lmax_v={lmax_v:.6g}"
        )
    return mu, row_norms


def perturbation_direction(
    f: PsdFactorization,
    sphere_samples: int = SPHERE_SAMPLES,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Descent direction Z from a John decomposition of top eigenspaces.

    Collects the top-eigenspace unit sphere of every row factor at the
    balanced norm mu (exact eigenbasis plus random unit samples per
    space), takes the MVEE of the symmetric hull, and returns its moment
    matrix Z = sum p(z) z z^T = T T^T / k.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    mu, row_norms = _balanced_mu(f)
    tight = f.row_factors[row_norms >= mu * (1.0 - MU_TOL)]
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
) -> tuple[PsdFactorization, float | None]:
    """Line search over (exp(-eps Z) U exp(-eps Z), exp(eps Z) V exp(eps Z)).

    Grid values are multiples of 1 / ||Z||.  All candidates are built in
    one broadcast product per side, of shape (len(grid), factors, d, d),
    and measured by one batched eigvalsh per side.  The candidate with the
    lowest potential wins (ties to the smallest eps) and is accepted only
    on a strict relative decrease of at least 1e-12.  The accepted
    candidate is re-balanced.  Returns (f, None) on a stall.
    """
    z = symmat.as_symmetric(z)
    z_norm = symmat.operator_norm(z)
    if z_norm == 0.0 or len(eps_grid) == 0:
        return f, None
    dec = symmat.spectral_decompose(z)
    lam, q = dec.eigenvalues, dec.eigenvectors
    eps = np.sort(np.asarray(eps_grid, dtype=float)) / z_norm
    # Slice k of each stack is exp(-+eps_k Z), written through Z's eigenbasis.
    shrink = symmat.as_symmetric((q * np.exp(-eps[:, None] * lam)[:, None, :]) @ q.T)[:, None]
    grow = symmat.as_symmetric((q * np.exp(eps[:, None] * lam)[:, None, :]) @ q.T)[:, None]
    rows = symmat.as_symmetric(shrink @ f.row_factors @ shrink)
    cols = symmat.as_symmetric(grow @ f.col_factors @ grow)
    phi = operator_norms(rows).max(axis=1) * operator_norms(cols).max(axis=1)
    best = int(np.argmin(phi))  # first minimum: ties go to the smallest eps
    if phi[best] > potential(f) * (1.0 - 1e-12):
        return f, None
    winner = PsdFactorization(row_factors=rows[best], col_factors=cols[best])
    return balance_scalar(winner), float(eps[best])


# ---------------------------------------------------------------------------
# The full rescaling loop


@dataclass(frozen=True)
class RescaleConfig:
    tol: float = 0.05
    max_iters: int = 500
    seed: int = 0


@dataclass(frozen=True)
class RescaleResult:
    transform: np.ndarray
    transform_pinv: np.ndarray
    factorization: PsdFactorization
    phi_trajectory: tuple
    # (lmax_u, lmax_v) per recorded iteration.  Whenever the common space
    # is nonzero each pair is taken after re-balancing, so the two are
    # equal up to round-off; the CLI trace records their max.
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


def _balanced_state(reduced: PsdFactorization, a: np.ndarray):
    """The congruence (A, A^-1) of the reduced factorization, balanced.

    A is rescaled by (lmax_v / lmax_u)^(1/4) so both sides of the result
    attain one top norm.  Returns A, its inverse, the congruent
    factorization and its norms (lmax_u, lmax_v).
    """
    a_inv = np.linalg.inv(a)
    fw = congruence(reduced, a, a_inv)
    s_bal = float((max_operator_norm(fw.col_factors) / max_operator_norm(fw.row_factors)) ** 0.25)
    a, a_inv = a * s_bal, a_inv / s_bal
    fw = congruence(reduced, a, a_inv)
    return a, a_inv, fw, (max_operator_norm(fw.row_factors), max_operator_norm(fw.col_factors))


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
        lmax_u = max_operator_norm(f.row_factors)
        lmax_v = max_operator_norm(f.col_factors)
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
            diagnostics={"target_lmax": target_lmax, "note": "zero common space"},
        )

    o = subspace.basis
    u_bar = _side_average(reduced.row_factors)
    v_bar = _side_average(reduced.col_factors)
    sigma = min(
        float(np.min(np.linalg.eigvalsh(u_bar))), float(np.min(np.linalg.eigvalsh(v_bar)))
    )
    tau = potential(reduced)
    cond_cap = max(1e12, 100.0 * tau / max(sigma, 1e-300) ** 2)

    # State: the accumulated PSD congruence on the reduced space, balanced.
    # Working factors are recomputed from it each iteration; exponential
    # steps fold in through the PSD polar part of (exp(-eps Z) A).
    a, a_inv, fw, norms = _balanced_state(reduced, np.eye(d))
    trajectory = [norms[0] * norms[1]]
    lmax_traj = [norms]
    sphere = SPHERE_SAMPLES
    doubled = False
    iterations = 0
    stalled = False

    while iterations < cfg.max_iters:
        if trajectory[-1] <= target_phi:
            break
        z = perturbation_direction(fw, sphere, rng)
        _, eps = descent_step(fw, z)
        if eps is None:
            if doubled:
                stalled = True
                break
            doubled = True
            sphere *= 2
            iterations += 1
            continue
        # Fold the accepted step into A via the PSD polar part.
        zdec = symmat.spectral_decompose(z)
        e2 = symmat.as_symmetric(
            (zdec.eigenvectors * np.exp(-2.0 * eps * zdec.eigenvalues))
            @ zdec.eigenvectors.T
        )
        a = symmat.sqrt_psd(symmat.as_symmetric(a @ e2 @ a))
        lam = np.linalg.eigvalsh(a)
        if lam[0] <= 0 or lam[-1] / lam[0] > cond_cap:
            raise NumericError(
                "rescaling transform is blowing up; the bounded-minimizer "
                f"diagnostic cap {cond_cap:.3g} was exceeded "
                f"(condition number {lam[-1] / max(lam[0], 1e-300):.3g})"
            )
        a, a_inv, fw, norms = _balanced_state(reduced, a)
        trajectory.append(norms[0] * norms[1])
        lmax_traj.append(norms)
        iterations += 1

    transform = symmat.as_symmetric(o @ a @ o.T)
    transform_pinv = symmat.as_symmetric(o @ a_inv @ o.T)
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
        phi_trajectory=tuple(trajectory),
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
        },
    )
