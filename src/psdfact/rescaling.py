"""Congruence rescaling of semidefinite factorizations.

Every builtin input takes two steps: reduce the factorization onto the
common image space of its two side-averages, then start at the
geometric-mean congruence of those averages when it lowers the potential
lmax(U) * lmax(V).  With Delta > 0, diagonal or fitted, plain or after an
``unbalance`` congruence, that start meets the target
d * Delta * (1 + CERTIFICATE_TOL), with d the reduced dimension and
Delta the largest entry of the factored matrix; a zero matrix, such as
the point's, takes the zero start.  The descent loop is the fallback, and
no builtin input reaches it.  The two loop inputs of the tests reach it
(``loop_from_input`` and ``loop_from_mean``: side-2 factorizations of
2 x 100 and 100 x 100 matrices after a congruence, where neither start
meets the target), and so do diagonal embeddings of sparse random slack
matrices with one dense row after a 1e2 or 1e4 congruence.  The loop
balances the sides by a scalar so both attain the same top norm mu, then
repeatedly shrinks the largest row factors with congruence steps
exp(-eps Z) (and grows the column side with exp(+eps Z)).  The direction
Z is the moment matrix of a John decomposition: the minimum volume
enclosing ellipsoid of a deterministic contact set, the top eigenvectors
of all row factors currently at norm mu.  A monotone line search over a
geometric eps grid, measured in one batch, converts the descent
direction into concrete steps; the loop stops below the target, at the
first stall, or after DESCENT_MAX_ITERS steps.

The start is closed-form.  With mU and mV the reduced averages, the matrix
geometric mean X = mU^-1 # mV is the positive definite solution of
X mU X = mV; from mU = Q L Q^T and mU^1/2 mV mU^1/2 = R G R^T,
A = G^1/4 R^T mU^-1/2 satisfies A^T A = X and A mU A^T = A^-T mV A^-1 =
G^1/2, and its symmetric polar factor P = X^1/2 has the same norms.  This
is one balancing step of operator scaling (Gurvits 2004; Garg, Gurvits,
Oliveira and Wigderson 2016).  It is congruence-invariant:
(B^T Y B) # (B^T W B) = B^T (Y # W) B (Bhatia 2007, ch. 4), so for an
input (B U B^T, B^-T V B^-1) the start lands on the same norms whatever B
is, and a congruence of a diagonal embedding is undone exactly.  It is
formed only when the input's potential tau exceeds the target, and kept
only when it lowers phi: on some inputs phi is higher at the mean than at
the input, and the loop then starts from the input.

The prologue measures every stack at most once: the input gate checks
only the residual, the reduction averages each side once and takes one
batched eigvalsh of the two averages.  When both are nonsingular the
common space is R^r and that spectrum gives the averages' extremes; only
otherwise do two eigendecompositions find the common space and one more
eigvalsh of the reduced averages give them.  Sigma is their least
eigenvalue.  Each measurement of a factorization is one eigvalsh of both
sides, which keeps the least and the largest eigenvalue of every factor.
An average's top norm is at most its side's, so the product of the two
averages' top norms is a lower bound on tau.  When it exceeds the target
the mean start is sure to be tried, and it is formed before the input is
measured: one eigvalsh takes all its factors, and with them the input
factors whose Frobenius norm reaches (1 - SCREEN_TOL) times their
average's top norm.  Since max |lambda| <= ||U||_F, no other factor
reaches the input's top norm, and tau is the full measurement's, bit for
bit; the input's least eigenvalues, which only its start would need, are
measured when the mean start is not kept.  Otherwise one measurement of
the reduced factorization gives tau and, when tau is above the target,
one more of the mean start gives its potential.  The top norms of a
factorization balanced by a scalar are both the square root of its
potential, so the factors of the start are measured one by one only
when the loop runs.  The loop keeps the balanced winner
of each line search, the ``side_extremes`` of its factors (measured once
per step and shared by the direction, the line search and the
trajectory) and M, the start times the product of the accepted steps.
The transform is the polar part P = (M^T M)^(1/2), from one SVD of M at
the end; M = Q P with Q orthogonal, so the congruence by P has the norms
of the last winner, and the epilogue measures it.  With no accepted step
M is the start, already measured.  The result keeps the transform
factored, as W = O R and the scales of c P, and forms the matrix only
when it is read.  Its factorization is the last one measured, balanced
by a scalar (in place, when rescale built its stacks) and lifted by O;
it equals the congruence of the input by the transform up to round-off.
The certificate reads the top norms from that measurement, and a factor
whose least eigenvalue there fails ``symmat.not_psd`` has its negative
eigenvalues clipped.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ConvergenceError, NumericError, PreconditionError
from .factorization import (
    VERIFY_TOL,
    PsdFactorization,
    check_reproduces,
    congruence,
    max_residual,
    potential,
    residual_budget,
    side_extremes,
    top_norms,
)
from .polytopes import SlackMatrix
from .record import Record
from . import symmat

# Relative slack of the certificate: lmax(U) and lmax(V) may reach
# sqrt(d Delta) (1 + CERTIFICATE_TOL).
CERTIFICATE_TOL = 0.05
# Descent steps after which rescale stops, certified or not.
DESCENT_MAX_ITERS = 500
# Default geometric line-search grid, as multiples of 1 / ||Z||.
DEFAULT_EPS_GRID = tuple(2.0 ** (-k) for k in range(20, 0, -1))
# Relative gap within which a row factor is tight and the sides balanced.
MU_TOL = 1e-6
# Relative round-off margin of the screen that measures only the input
# factors whose Frobenius norm can reach their side's top norm.
SCREEN_TOL = 1e-9
# MVEE: relative volume gap, contact-weight floor, iteration cap.
MVEE_VOL_TOL = 1e-7
MVEE_WEIGHT_FLOOR = 1e-9
MVEE_MAX_ITERS = 200_000
# Largest accepted gap in the John identity and in the contact radii.
JOHN_TOL = 1e-6
# The range of normal floats, where a ratio of top norms loses no precision.
_NORMAL_MIN, _NORMAL_MAX = sys.float_info.min, sys.float_info.max


# ---------------------------------------------------------------------------
# John decomposition (minimum-volume enclosing ellipsoid of a symmetric set)


class JohnDecomposition(Record):
    """MVEE of a centrally symmetric point set, with contact points.

    T = ``ellipsoid_map``, an (ambient, k) array with k = ``dim``, maps the
    unit ball of R^k onto the ellipsoid inside the ambient space; the
    contact points z, the rows of ``points`` (m, ambient), carry
    ``weights`` p (m,) summing to one and satisfy sum p z z^T = T T^T / k.
    """

    __slots__ = ("dim", "ellipsoid_map", "points", "weights")

    def moment_matrix(self) -> np.ndarray:
        return symmat.as_symmetric(
            np.einsum("m,mi,mj->ij", self.weights, self.points, self.points)
        )


def _fold_symmetric(points: np.ndarray) -> np.ndarray:
    """One representative per antipodal pair, duplicates and zero rows removed, rows sorted.

    Points generate the symmetric set conv(+-points); each is flipped so its
    first nonzero coordinate is positive.
    """
    pts = np.array(points, dtype=float)
    first = np.take_along_axis(pts, np.argmax(pts != 0, axis=1)[:, None], axis=1)[:, 0]
    pts[first < 0] *= -1.0
    pts = np.unique(pts, axis=0)
    return pts[np.linalg.norm(pts, axis=1) > 0]


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
    the points to span a subspace of dimension at least one.  Signs are
    folded, the MVEE solver weights the folded points, and the result is
    validated (probability weights, John identity, contact points on the
    boundary) before it is returned.  Contact points come in ascending
    lexicographic order.
    """
    pts = _fold_symmetric(points)
    if not len(pts):
        raise PreconditionError("point set spans the zero subspace")
    # All MVEE work happens in coordinates of an orthonormal basis of the span.
    _, sig, vt = np.linalg.svd(pts, full_matrices=False)
    basis = vt[sig > symmat.RANK_TOL * sig[0]].T
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
    jd = JohnDecomposition(dim=k, ellipsoid_map=t_map, points=pts[kept], weights=w)
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


def reduce_to_common_space(
    f: PsdFactorization,
) -> tuple[PsdFactorization, np.ndarray, np.ndarray, np.ndarray]:
    """Compress a factorization onto W = P_{Im(mean U)}(Im(mean V)).

    With B an orthonormal basis of Im(mean U) and V PSD,
    Im(B^T V) = Im(B^T V^(1/2)) = Im(B^T V B), so W = B Im(B^T (mean V) B),
    and two eigendecompositions give its orthonormal basis O, an (r, d)
    array.  Returns the reduced factorization (O^T U O, O^T V O), O, the
    extremes of the two reduced side-averages O^T (mean U) O and
    O^T (mean V) O (a (2, 2) array of each one's least and largest
    eigenvalue, as ``side_extremes`` gives them), and those two averages
    stacked, a (2, d, d) array.  ``rescale`` reads sigma, the least
    eigenvalue of both, and a lower bound on the potential from the
    extremes.  Both images are cut at round-off (``symmat.IMAGE_TOL``), so
    an ill-conditioned congruence of the input keeps the directions of its
    common space.  Dimension zero (all-zero products) yields empty factors
    and zero extremes.  The one overflow guard of ``rescale`` is here:
    factor entries that overflow when the sides are summed or symmetrized
    raise PreconditionError naming ``f``.

    One eigvalsh of both averages comes first.  When each average's least
    eigenvalue exceeds IMAGE_TOL times its largest, both are nonsingular,
    W = R^r and O = I: the reduced factorization is ``f`` itself, the
    averages are the reduced averages and the extremes are read from that
    spectrum, with no eigendecomposition.  Otherwise the construction
    above runs, and one more eigvalsh of the reduced averages gives them.
    """
    if not f.n_rows or not f.n_cols:
        raise PreconditionError("factorization must be nonempty on both sides")
    # The stacks are exactly symmetric, and so are their sums.  The factors
    # are finite, so every non-finite value starts as an overflow.
    try:
        with np.errstate(over="raise"):
            bars = np.empty((2, f.side, f.side))
            f.row_factors.sum(axis=0, out=bars[0])
            f.col_factors.sum(axis=0, out=bars[1])
            bars[0] /= f.n_rows
            bars[1] /= f.n_cols
            lam = np.linalg.eigvalsh(bars)
            if f.side and (lam[:, 0] > symmat.IMAGE_TOL * lam[:, -1]).all():
                return f, np.eye(f.side), lam.take((0, -1), axis=1), bars
            b = symmat.image_basis(bars[0])
            o = b @ symmat.image_basis(b.T @ bars[1] @ b)
            reduced = PsdFactorization(row_factors=o.T @ f.row_factors @ o,
                                       col_factors=o.T @ f.col_factors @ o)
            means = symmat.as_symmetric(o.T @ bars @ o)
    except FloatingPointError:
        top = max(float(np.abs(side).max()) for side in (f.row_factors, f.col_factors))
        raise PreconditionError(
            f"factor entries up to {top:.3g} overflow when the factors are summed or symmetrized",
            arg="f",
        ) from None
    if not o.shape[1]:
        return reduced, o, np.zeros((2, 2)), means
    return reduced, o, np.linalg.eigvalsh(means).take((0, -1), axis=1), means


def mean_congruence(means: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The symmetric congruence that makes the two reduced averages equal.

    ``means`` stacks mU and mV, both positive definite.  With
    mU = Q L Q^T and mU^1/2 mV mU^1/2 = R G R^T, the matrix
    A = G^1/4 R^T mU^-1/2 gives A mU A^T = A^-T mV A^-1 = G^1/2, and
    A^T A = mU^-1/2 (mU^1/2 mV mU^1/2)^1/2 mU^-1/2 = X, the matrix
    geometric mean mU^-1 # mV: the positive definite solution of
    X mU X = mV.  Its symmetric polar factor P = (A^T A)^1/2 = X^1/2 has
    A's norms, since A = W P with W orthogonal.  Returns (s, rt) with
    P = rt^T diag(s) rt and ||P|| = s[0] = 1, from the SVD of A; None when
    G is not numerically positive.
    """
    lam, q = np.linalg.eigh(means[0])
    root = np.sqrt(lam)
    half = symmat.from_spectrum(root, q)
    g, r = np.linalg.eigh(symmat.as_symmetric(half @ means[1] @ half))
    if not g[0] > 0.0:
        return None
    _, s, rt = np.linalg.svd((r * g ** 0.25).T @ ((q / root) @ q.T))
    return s / s[0], rt


def balance_scalar(f: PsdFactorization,
                   tops: tuple[float, float] | None = None) -> PsdFactorization:
    """Rescale (c^2 U, V / c^2) so both sides attain the same top norm.

    ``tops`` is (lmax(U), lmax(V)) of ``f``, measured here when not given.
    The potential is unchanged and afterwards lmax(U) = lmax(V) = sqrt(phi).
    """
    if tops is None:
        tops = top_norms(side_extremes(f), f.n_rows)
    c2, _ = _balancing_scalars(*tops)
    return PsdFactorization(row_factors=f.row_factors * c2, col_factors=f.col_factors / c2)


def _balancing_scalars(lmax_u: float, lmax_v: float) -> tuple[float, float]:
    """c^2 = sqrt(lmax_v / lmax_u) and c, which balance (c^2 U, V / c^2).

    Two zero norms give (1, 1); one zero norm raises PreconditionError.  A
    ratio that is not a normal float (lmax_u = 1e200, lmax_v = 1e-200) is
    split into a ratio of mantissas and a power of two, whose roots are
    exact.  Norms so far apart that c^2 overflows raise PreconditionError.
    """
    if lmax_u == 0.0 or lmax_v == 0.0:
        if lmax_u == lmax_v:
            return 1.0, 1.0
        raise PreconditionError(
            "one side of the factorization is zero while the other is not"
        )
    ratio = lmax_v / lmax_u
    if _NORMAL_MIN <= ratio <= _NORMAL_MAX:
        return math.sqrt(ratio), ratio ** 0.25
    (mant_u, exp_u), (mant_v, exp_v) = math.frexp(lmax_u), math.frexp(lmax_v)
    # ratio = q 2^shift with shift a multiple of 4 and q in [1/2, 16).
    shift = (exp_v - exp_u) // 4 * 4
    q = math.ldexp(mant_v / mant_u, exp_v - exp_u - shift)
    try:
        return math.ldexp(math.sqrt(q), shift // 2), math.ldexp(q ** 0.25, shift // 4)
    except OverflowError:
        raise PreconditionError(
            f"top norms {lmax_u:.3g} and {lmax_v:.3g} are too far apart to balance"
        ) from None


def _polar_congruence(f: PsdFactorization, sv: np.ndarray, rt: np.ndarray) -> PsdFactorization:
    """``congruence(f, P, P^-1)`` for P = rt^T diag(sv) rt, rt orthogonal and sv > 0."""
    return congruence(f, symmat.from_spectrum(sv, rt.T), (rt.T / sv) @ rt)


def perturbation_direction(f: PsdFactorization, ends: np.ndarray | None = None) -> np.ndarray:
    """Descent direction Z from a John decomposition of top eigenspaces.

    Decomposes the row factors at the balanced norm mu in one batch and
    returns the moment matrix Z = sum p(z) z z^T = T T^T / k of the MVEE of
    +- their top-eigenspace eigenvectors.  The eigenbasis of a degenerate
    eigenspace stands in for its unit sphere: the MVEE of +- an orthonormal
    basis is the unit ball of its span, so one tight factor 2I gives
    exactly Z = I / 2.  ``ends`` is the ``side_extremes`` of ``f``,
    measured here when not given; the balanced norm mu and each row
    factor's norm are read from it.
    """
    ends = side_extremes(f) if ends is None else ends
    lmax_u, lmax_v = top_norms(ends, f.n_rows)
    mu = max(lmax_u, lmax_v)
    if mu == 0.0:
        raise PreconditionError("cannot perturb a zero factorization")
    if abs(lmax_u - lmax_v) > MU_TOL * mu:
        raise PreconditionError(
            f"factorization is not balanced: lmax_u={lmax_u:.6g}, lmax_v={lmax_v:.6g}"
        )
    tight = f.row_factors[np.abs(ends[:f.n_rows]).max(axis=1) >= mu * (1.0 - MU_TOL)]
    if len(tight) == 0:
        raise NumericError("no row factor attains the balanced norm")
    return john_decompose(symmat.top_cluster(*symmat.spectral_decompose(tight)).T).moment_matrix()


def descent_step(
    f: PsdFactorization,
    z: np.ndarray,
    eps_grid=DEFAULT_EPS_GRID,
    *,
    phi0: float | None = None,
) -> tuple[PsdFactorization, float | None]:
    """Line search over (exp(-eps Z) U exp(-eps Z), exp(eps Z) V exp(eps Z)).

    Grid values are multiples of 1 / ||Z||.  The candidate with the lowest
    potential wins (ties to the smallest eps) and is accepted only on a
    strict relative decrease of at least 1e-12 below ``phi0``, the
    potential of ``f`` (measured here when not given).  The whole grid is
    one broadcast product per side, of shape (candidates, factors, d, d),
    measured by one batched eigvalsh per side.

    Returns the winner balanced by the scalar of ``balance_scalar``, taken
    from the norms the search measured, and its eps; ``rescale`` keeps that
    pair as its working state.  Returns (f, None) on a stall, which is
    every call at phi0 = 0 (a side of ``f`` is zero) and every NaN
    potential.
    """
    z = symmat.as_symmetric(z)
    z_norm = symmat.operator_norm(z)
    if z_norm == 0.0 or len(eps_grid) == 0:
        return f, None
    phi0 = potential(f) if phi0 is None else phi0
    lam, q = symmat.spectral_decompose(z)
    eps = np.sort(np.asarray(eps_grid, dtype=float)) / z_norm
    # Slice i of each stack is exp(-+eps[i] Z), written through Z's eigenbasis.
    shrink = symmat.as_symmetric(symmat.from_spectrum(np.exp(-eps[:, None] * lam), q))[:, None]
    grow = symmat.as_symmetric(symmat.from_spectrum(np.exp(eps[:, None] * lam), q))[:, None]
    rows = symmat.as_symmetric(shrink @ f.row_factors @ shrink)
    cols = symmat.as_symmetric(grow @ f.col_factors @ grow)
    lmax_u, lmax_v = (symmat.operator_norms(side).max(axis=1) for side in (rows, cols))
    phi = lmax_u * lmax_v
    best = int(np.argmin(phi))  # first minimum, ascending eps: ties go to the smallest eps
    if not phi[best] < phi0 * (1.0 - 1e-12):
        return f, None
    c2, _ = _balancing_scalars(float(lmax_u[best]), float(lmax_v[best]))
    return PsdFactorization(rows[best] * c2, cols[best] / c2), float(eps[best])


# ---------------------------------------------------------------------------
# The full rescaling loop


class RescaleConfig(Record):
    """CERTIFICATE_TOL as ``RescaleConfig().tol``, which perfbench/workloads.py
    reads; nothing in the package constructs or reads it."""

    __slots__ = ("tol",)
    _defaults = {"tol": CERTIFICATE_TOL}


class RescaleResult(Record):
    """What ``rescale`` found.

    The transform is kept factored as A = W diag(sv) W^T: W =
    ``transform_basis``, an orthonormal (r, d) basis of the common space,
    and sv = ``transform_scales`` > 0.

    ``lmax_trajectory`` holds (lmax_u, lmax_v) of the balanced working
    factorization: the reduced input, then the geometric-mean start when
    rescale keeps it (also at iteration 0, so ``iterations`` counts only
    the entries after it), then each line-search winner as descent_step
    balanced it.  The two are equal up to round-off; the CLI trace records
    their max.  After loop steps, ``lmax_u`` and ``lmax_v`` come from one
    more measurement, of the congruence by the polar part, and match the
    last entry up to round-off.  ``diagnostics`` is a dict.
    """

    __slots__ = ("transform_basis", "transform_scales", "factorization", "lmax_trajectory",
                 "lmax_u", "lmax_v", "certificate", "iterations", "reduced_dim", "diagnostics")

    @property
    def transform(self) -> np.ndarray:
        """A, the congruence of the row factors, formed on each access."""
        w = self.transform_basis
        return symmat.as_symmetric(symmat.from_spectrum(self.transform_scales, w))

    @property
    def transform_pinv(self) -> np.ndarray:
        """W diag(1 / sv) W^T, the pseudo-inverse of A, for the column factors."""
        w = self.transform_basis
        return symmat.as_symmetric((w / self.transform_scales) @ w.T)

    @property
    def phi_trajectory(self) -> tuple:
        """The potential lmax_u * lmax_v of every ``lmax_trajectory`` entry."""
        return tuple(u * v for u, v in self.lmax_trajectory)


def rescale(f: PsdFactorization, s: SlackMatrix) -> RescaleResult:
    """Find a PSD congruence A with lmax(A U A), lmax(A+ V A+) <= sqrt(d Delta).

    The returned transform acts on the original side r; its pseudo-inverse
    handles the column factors, so the rescaled factorization still
    reproduces the slack matrix; ``RescaleResult`` keeps the two factored.
    The returned factorization is the last one rescale measured (the
    reduced input, the mean start, or the congruence by the polar part of
    the loop's transform), balanced by a scalar and lifted to side r: it
    equals the congruence of ``f`` by the transform pair up to round-off,
    and ``f``'s stacks are never written.  lmax_u and lmax_v are its top
    norms from that measurement, and the certificate flag is set only when
    they meet sqrt(d * Delta) * (1 + CERTIFICATE_TOL) with d the reduced
    dimension and Delta the largest slack entry.  Every returned factor
    passes ``symmat.not_psd``; ``diagnostics["psd_repaired"]`` counts those
    whose negative eigenvalues were clipped to get there.

    When the reduced input's potential tau exceeds the target, rescale
    forms the congruence P = (mU^-1 # mV)^1/2 of ``mean_congruence``, the
    geometric mean of the two reduced averages, and starts from it if it
    lowers phi.  Being congruence-invariant, it undoes any congruence
    applied to the input.  ``diagnostics["start"]`` says which start was
    taken, "mean" or "input"; the descent loop runs from there while phi
    is above the target, for at most DESCENT_MAX_ITERS steps.  With d = 0
    the transform is the zero matrix.  A zero slack matrix has common
    space {0}: rescale returns the zero factorization and transform,
    certified, with start "zero".

    Factor entries that overflow when the sides are averaged or
    symmetrized raise PreconditionError naming ``f``; that guard lives in
    ``reduce_to_common_space``.  A Delta for which the target overflows
    raises one naming ``s``.  Top norms so far apart that the balancing
    scalar leaves the float range raise one too.
    """
    delta = s.max_entry
    residual_in = check_reproduces(f, s)

    if delta == 0.0 and f.n_rows and f.n_cols:
        # The zero factorization reproduces S = 0 exactly, and its common
        # space is {0}.  An empty side is left to reduce_to_common_space,
        # which refuses it.
        reduced = PsdFactorization(np.zeros((f.n_rows, 0, 0)), np.zeros((f.n_cols, 0, 0)))
        o, mean_ends, means, start = np.zeros((f.side, 0)), np.zeros((2, 2)), None, "zero"
    else:
        reduced, o, mean_ends, means = reduce_to_common_space(f)
        start = "input"
    d = o.shape[1]
    sigma = float(min(mean_ends[0, 0], mean_ends[1, 0]))
    # In Python floats, which overflow to inf without a warning.
    target_phi = d * delta * (1.0 + CERTIFICATE_TOL)
    target_lmax = math.sqrt(d * delta) * (1.0 + CERTIFICATE_TOL)
    if not math.isfinite(target_phi) or not math.isfinite(target_lmax):
        raise PreconditionError(
            f"Delta = {delta:.3g} at d = {d} overflows the certificate bound "
            f"sqrt(d * Delta) * (1 + {CERTIFICATE_TOL})",
            arg="s",
        )

    # The start: a congruence P = rt^T diag(sv) rt of the reduced
    # factorization, the factorization fs it gives, the least and largest
    # eigenvalue of each of fs's factors and fs's top norms (p_u, p_v).  P
    # is the identity, or the geometric-mean congruence when the input
    # misses the target and the mean lowers phi.  Balanced by a scalar,
    # each has both top norms at the square root of its potential.  The
    # reduced averages are positive definite, and lmax is convex, so an
    # average's largest eigenvalue is at most its side's top norm: the
    # product of the two is a lower bound on tau.  Above the target the
    # mean is sure to be tried, and it is formed before the input is
    # measured.
    sv, rt, fs, ends, keep = np.ones(d), np.eye(d), reduced, None, False
    floor = mean_ends[:, 1]
    sure = floor[0] * floor[1] > target_phi
    polar = mean_congruence(means) if sure else None
    if polar is None:
        ends = side_extremes(reduced)
        p_u, p_v = top_norms(ends, reduced.n_rows)
        if not sure and p_u * p_v > target_phi:
            polar = mean_congruence(means)
    if polar is not None:
        trial = _polar_congruence(reduced, *polar)
        # With the input not yet measured, only its factors whose Frobenius
        # norm reaches their side's floor join the start's eigvalsh: since
        # max |lambda| <= ||U||_F, they give tau.  The norms of U / floor
        # neither overflow nor lose digits to underflow.
        screened = [] if ends is not None else [
            stack[((stack / top) ** 2).sum(axis=(1, 2)) >= (1.0 - SCREEN_TOL) ** 2]
            for stack, top in zip((reduced.row_factors, reduced.col_factors), floor)]
        measured = side_extremes(trial, *screened)
        trial_ends = measured[:trial.n_rows + trial.n_cols]
        if screened:
            p_u, p_v = top_norms(measured[len(trial_ends):], len(screened[0]))
        tops = top_norms(trial_ends, trial.n_rows)
        keep = p_u * p_v > target_phi and tops[0] * tops[1] < p_u * p_v
    tau = p_u * p_v
    lmax_traj = [(math.sqrt(tau),) * 2]
    if keep:
        (sv, rt), start, fs, ends, (p_u, p_v) = polar, "mean", trial, trial_ends, tops
        lmax_traj.append((math.sqrt(p_u * p_v),) * 2)
    elif ends is None:
        # The input is the start after all; the epilogue reads every factor.
        ends = side_extremes(reduced)

    # State: the balanced working factorization fw that descent_step
    # returns, its side_extremes fw_ends, and M = exp(-eps_k Z_k) ...
    # exp(-eps_1 Z_1) P up to a positive scalar: fw = (c M U M^T,
    # M^-T V M^-1 / c) for the reduced (U, V) and some c > 0.  They are
    # formed only when the loop runs, and then d > 0 and sigma > 0; the cap
    # divides by sigma twice so that a tiny sigma cannot underflow to 0.
    iterations = 0
    stalled = False
    if lmax_traj[-1][0] * lmax_traj[-1][1] > target_phi:
        fw = balance_scalar(fs, (p_u, p_v))
        fw_ends = side_extremes(fw)
        m = symmat.from_spectrum(sv, rt.T)
        cond_cap = max(1e12, 100.0 * tau / sigma / sigma)

    while iterations < DESCENT_MAX_ITERS and lmax_traj[-1][0] * lmax_traj[-1][1] > target_phi:
        z = perturbation_direction(fw, fw_ends)
        lmax_u, lmax_v = lmax_traj[-1]
        step, eps = descent_step(fw, z, phi0=lmax_u * lmax_v)
        if eps is None:
            stalled = True
            break
        m = symmat.matrix_exponential(-eps * z) @ m
        sv = np.linalg.svd(m, compute_uv=False)
        if sv[-1] <= 0 or sv[0] / sv[-1] > cond_cap:
            raise NumericError(
                "rescaling transform is blowing up; the bounded-minimizer "
                f"diagnostic cap {cond_cap:.3g} was exceeded "
                f"(condition number {sv[0] / max(sv[-1], 1e-300):.3g})"
            )
        # Each step can divide ||M|| by up to e^(1/2); its scale is free, and
        # holding it at 1 keeps long runs from underflowing.
        m /= sv[0]
        fw = step
        fw_ends = side_extremes(fw)
        lmax_traj.append(top_norms(fw_ends, fw.n_rows))
        iterations += 1

    # M = L S R^T = Q P with Q = L R^T orthogonal and P = R S R^T, so
    # M U M^T = Q (P U P) Q^T: fs, the congruence by P, has the norms of fw
    # once balanced by a scalar.  With no accepted step M is the start, and
    # fs is the start already measured.
    if iterations:
        _, sv, rt = np.linalg.svd(m)
        fs = _polar_congruence(reduced, sv, rt)
        ends = side_extremes(fs)
        p_u, p_v = top_norms(ends, fs.n_rows)
    # The scalar c^2 = sqrt(p_v / p_u) balances fs: the result is
    # (c^2 U, V / c^2) for fs = (U, V), lifted by O when the common space
    # is proper, and the transform is c P lifted, A = W (c S) W^T with
    # W = O R.  At d = 0 both norms are 0, every factor is 0 and c = 1.
    c2, c = _balancing_scalars(p_u, p_v)
    sv = sv * c
    # Round-off amplified by an ill-conditioned input can leave a least
    # eigenvalue below the PSD floor; those factors alone get their
    # negative eigenvalues clipped.  One test over both sides: fs's
    # extremes, measured for this function alone, scale in place by c^2 on
    # the rows and by 1 / c^2 on the columns.
    rows = fs.n_rows
    ends[:rows] *= c2
    ends[rows:] *= 1.0 / c2
    bad = symmat.not_psd(ends)
    psd_repaired = int(np.count_nonzero(bad))
    # fs is the caller's f only at the input start with O = I, and is
    # copied; any other fs was built and validated here, and is balanced
    # in place.  Lifted or clipped stacks are validated again.
    stacks = [fs.row_factors, fs.col_factors]
    if fs is f:
        stacks = [stacks[0] * c2, stacks[1] / c2]
    else:
        stacks[0] *= c2
        stacks[1] /= c2
    if reduced is not f:
        stacks = [o @ stack @ o.T for stack in stacks]
    if psd_repaired:
        for stack, side_bad in zip(stacks, (bad[:rows], bad[rows:])):
            if side_bad.any():
                stack[side_bad] = symmat.eig_clip(stack[side_bad])
    rescaled = fs
    if fs is f or reduced is not f or psd_repaired:
        rescaled = PsdFactorization(*stacks)
    residual, _ = max_residual(rescaled, s)
    # Up to round-off the result is the congruence of f by an inverse
    # pair, which preserves the products, so the residual may only drift
    # by float error (and the clipping) beyond what came in.  Written so
    # that a NaN residual fails the check.
    if not (residual <= residual_in + residual_budget(s, VERIFY_TOL)):
        raise NumericError(
            f"rescaled factorization drifted off the slack matrix "
            f"(max residual {residual:.3g})"
        )
    lmax_u = c2 * p_u
    lmax_v = p_v / c2
    certificate = bool(lmax_u <= target_lmax and lmax_v <= target_lmax)
    return RescaleResult(
        # O is the identity when the common space is R^r.
        transform_basis=rt.T if reduced is f else o @ rt.T,
        transform_scales=sv,
        factorization=rescaled,
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
            "start": start,
            "residual": residual,
            "psd_repaired": psd_repaired,
        },
    )


def rescale_report(res: RescaleResult) -> dict:
    """The rescale stage's report, which ``run_pipeline`` and ``rescale run`` both give."""
    return {
        "certificate": res.certificate,
        "iterations": res.iterations,
        "start": res.diagnostics["start"],
        "reduced_dim": res.reduced_dim,
        "lmax_u": res.lmax_u,
        "lmax_v": res.lmax_v,
        "target_lmax": res.diagnostics["target_lmax"],
    }
